#pragma once

// core::JobState — the mutable, per-job half of a simulation: the Kohn-Sham
// solver (wavefunctions, density, Poisson warm start, Anderson history),
// the SCF progress, and the per-job execution backend. Every JobState
// borrows an immutable core::SharedModel (core/model.hpp) via shared_ptr;
// N JobStates running concurrently against one model is the multi-tenant
// mode the svc layer (svc/service.hpp) schedules. A JobState is
// single-threaded from the caller's perspective — one driver thread runs
// run(); the threaded backend's engine lanes are internal to the job.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/model.hpp"

namespace dftfe::core {

struct SimulationResult {
  ks::ScfResult scf;
  double energy = 0.0;
  double energy_per_atom = 0.0;
  index_t ndofs = 0;
  index_t natoms = 0;
  double n_electrons = 0.0;
};

class JobState;

struct JobOptions {
  /// Job identity: labels the run report ("<name>"), names the artifact in
  /// report_path directory mode, and keys checkpoints in the svc layer.
  std::string name = "job";
  std::vector<ks::KPointSample> kpoints;  // empty -> Gamma point
  /// Execution backend for the whole solver stack, handed to the solver
  /// run() builds. Per-job: two tenants of one SharedModel may run serial
  /// and threaded side by side.
  dd::BackendOptions backend;
  /// Family-sibling structure override: same box/periodicity as the shared
  /// model, perturbed atoms (defect separations, solute swaps). Nuclei and
  /// electron count are rebuilt via SharedModel::nuclei_for; the mesh and
  /// DofHandler are reused. Empty -> the model's own structure.
  std::optional<atoms::Structure> structure;
  /// RunReport artifact destination. A path ending in '/' is directory
  /// mode: the artifact lands at "<dir><name>.report.json", so concurrent
  /// jobs sharing one options template emit distinct well-formed artifacts.
  /// Otherwise the literal path. Empty -> no report.
  std::string report_path;
  /// Per-iteration hook with job access (checkpointing: call
  /// job.save_scf_state() inside). Driver thread, after iteration
  /// `completed` (1-based) fully updated; not called on the converging
  /// iteration. Forwarded to ks::ScfOptions::on_iteration.
  std::function<void(JobState&, int completed)> on_iteration;
  ks::ScfOptions scf;
};

class JobState {
 public:
  /// Binds the job to its shared model. If `opt.structure` is set, the
  /// family sibling's nuclei replace the model's (box must match). The
  /// model pointer must be non-null.
  JobState(std::shared_ptr<const SharedModel> model, JobOptions opt);

  SimulationResult run();

  /// Install SCF state from a checkpoint; the next run() resumes from it.
  /// Call before run().
  void set_resume_state(ks::ScfState st);
  /// Capture the solver's SCF state (valid inside on_iteration or after
  /// run()). Throws before the solver exists.
  ks::ScfState save_scf_state() const;
  /// Iteration the job resumed from (0 = fresh start).
  int resumed_from() const { return resumed_from_; }

  const std::string& name() const { return opt_.name; }
  const SharedModel& model() const { return *model_; }
  const atoms::Structure& structure() const {
    return opt_.structure ? *opt_.structure : model_->structure();
  }
  double n_electrons() const { return nelectrons_; }

  /// Hellmann-Feynman forces on the atoms (after run()).
  std::vector<std::array<double, 3>> forces();
  /// Gamma-point solver access (after run()); throws on k-point runs.
  ks::KohnShamDFT<double>& gamma_solver();
  /// k-point solver access (after run()); throws on Gamma runs.
  ks::KohnShamDFT<complex_t>& kpoint_solver();

 private:
  template <class T>
  ks::ScfResult run_solver(std::vector<ks::KPointSample> kpts);

  std::shared_ptr<const SharedModel> model_;
  JobOptions opt_;
  std::vector<ks::GaussianCharge> nuclei_;
  double nelectrons_ = 0.0;
  int resumed_from_ = 0;
  std::optional<ks::ScfState> resume_;
  std::variant<std::monostate, std::unique_ptr<ks::KohnShamDFT<double>>,
               std::unique_ptr<ks::KohnShamDFT<complex_t>>>
      solver_;
};

}  // namespace dftfe::core
