#include "svc/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace dftfe::svc {

namespace {

void emit_vec(std::ostringstream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << obs::json_num(v[i]);
  }
  os << ']';
}

void emit_vec2(std::ostringstream& os, const std::vector<std::vector<double>>& vv) {
  os << '[';
  for (std::size_t i = 0; i < vv.size(); ++i) {
    if (i) os << ',';
    emit_vec(os, vv[i]);
  }
  os << ']';
}

/// Every element must be a number: a non-finite value was written as null,
/// and resuming from it (or from a corrupted element) as 0 would be silent.
bool read_vec(const obs::JsonValue* v, std::vector<double>& out) {
  if (v == nullptr || !v->is_array()) return false;
  out.clear();
  out.reserve(v->arr.size());
  for (const auto& x : v->arr) {
    if (x.kind != obs::JsonValue::Kind::number) return false;
    out.push_back(x.as_num());
  }
  return true;
}

bool read_vec2(const obs::JsonValue* v, std::vector<std::vector<double>>& out) {
  if (v == nullptr || !v->is_array()) return false;
  out.clear();
  out.reserve(v->arr.size());
  for (const auto& row : v->arr) {
    std::vector<double> r;
    if (!read_vec(&row, r)) return false;
    out.push_back(std::move(r));
  }
  return true;
}

}  // namespace

std::string checkpoint_json(const Checkpoint& cp) {
  const ks::ScfState& s = cp.scf;
  std::ostringstream os;
  os << "{\"schema\":\"dftfe.checkpoint.v1\",\"label\":\"" << obs::json_escape(cp.label)
     << "\",\"scf\":{\"iterations\":" << s.iterations
     << ",\"complex_scalars\":" << (s.complex_scalars ? "true" : "false")
     << ",\"ndofs\":" << s.ndofs << ",\"nstates\":" << s.nstates << ",\"rho\":";
  emit_vec(os, s.rho);
  os << ",\"phi\":";
  emit_vec(os, s.phi);
  os << ",\"hist_rho\":";
  emit_vec2(os, s.hist_rho);
  os << ",\"hist_res\":";
  emit_vec2(os, s.hist_res);
  os << ",\"residual_history\":";
  emit_vec(os, s.residual_history);
  os << ",\"kpoints\":[";
  for (std::size_t ik = 0; ik < s.kpoints.size(); ++ik) {
    if (ik) os << ',';
    os << "{\"eigenvalues\":";
    emit_vec(os, s.kpoints[ik].eigenvalues);
    os << ",\"coeffs\":";
    emit_vec(os, s.kpoints[ik].coeffs);
    os << '}';
  }
  os << "]}}";
  return os.str();
}

bool parse_checkpoint(const std::string& text, Checkpoint& out) {
  obs::JsonValue doc;
  if (!obs::json_parse(text, doc) || !doc.is_object()) return false;
  const obs::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->as_str() != "dftfe.checkpoint.v1") return false;

  out = Checkpoint{};
  if (const obs::JsonValue* v = doc.find("label")) out.label = v->as_str();
  const obs::JsonValue* scf = doc.find("scf");
  if (scf == nullptr || !scf->is_object()) return false;
  ks::ScfState& s = out.scf;
  const obs::JsonValue* it = scf->find("iterations");
  if (it == nullptr) return false;
  s.iterations = static_cast<int>(it->as_int());
  if (const obs::JsonValue* v = scf->find("complex_scalars"))
    s.complex_scalars = v->kind == obs::JsonValue::Kind::boolean && v->b;
  if (const obs::JsonValue* v = scf->find("ndofs")) s.ndofs = v->as_int();
  if (const obs::JsonValue* v = scf->find("nstates")) s.nstates = v->as_int();
  if (!read_vec(scf->find("rho"), s.rho)) return false;
  if (!read_vec(scf->find("phi"), s.phi)) return false;
  if (!read_vec2(scf->find("hist_rho"), s.hist_rho)) return false;
  if (!read_vec2(scf->find("hist_res"), s.hist_res)) return false;
  if (!read_vec(scf->find("residual_history"), s.residual_history)) return false;
  const obs::JsonValue* kpts = scf->find("kpoints");
  if (kpts == nullptr || !kpts->is_array()) return false;
  for (const auto& k : kpts->arr) {
    ks::ScfState::KSubspace sub;
    if (!read_vec(k.find("eigenvalues"), sub.eigenvalues)) return false;
    if (!read_vec(k.find("coeffs"), sub.coeffs)) return false;
    s.kpoints.push_back(std::move(sub));
  }
  return true;
}

bool write_checkpoint(const std::string& path, const Checkpoint& cp) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp);
    if (!f) return false;
    f << checkpoint_json(cp) << '\n';
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<Checkpoint> read_checkpoint(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  Checkpoint cp;
  if (!parse_checkpoint(buf.str(), cp)) return std::nullopt;
  return cp;
}

}  // namespace dftfe::svc
