#pragma once

// Versioned SCF checkpoint artifact (schema dftfe.checkpoint.v1): the
// ks::ScfState captured at an iteration boundary, serialized so a killed
// job restarts on the exact arithmetic path of the uninterrupted run and
// converges to the identical energy. Numbers are emitted with %.17g — the
// shortest precision that round-trips every IEEE-754 double — so
// emit → parse → re-emit is byte-identical (the same discipline as the
// RunReport artifact, obs/report.hpp) and a restored density/subspace is
// bitwise equal to the one saved. Writes are atomic (tmp + rename): a job
// killed mid-write leaves the previous checkpoint intact, never a torn
// file.

#include <optional>
#include <string>

#include "ks/scf.hpp"

namespace dftfe::svc {

struct Checkpoint {
  std::string label;  // job name; must match on restore (svc keys files by it)
  ks::ScfState scf;
};

/// Serialize to the single-line dftfe.checkpoint.v1 JSON document.
/// Deterministic: a pure function of the struct.
std::string checkpoint_json(const Checkpoint& cp);

/// Parse a dftfe.checkpoint.v1 document. Returns false on syntax errors,
/// wrong schema, missing required fields, or a vector element that is not a
/// number (a non-finite value is written as null and never resumed from).
bool parse_checkpoint(const std::string& text, Checkpoint& out);

/// Atomically write the artifact: serialize to "<path>.tmp", then rename
/// over `path`. Returns false on any I/O failure (the tmp file is removed).
bool write_checkpoint(const std::string& path, const Checkpoint& cp);

/// Read and parse `path`. Empty optional if the file is missing or invalid.
std::optional<Checkpoint> read_checkpoint(const std::string& path);

}  // namespace dftfe::svc
