#include "dd/backend.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "dd/engine.hpp"

namespace dftfe::dd {

namespace {

[[noreturn]] void reject_env(const char* var, const char* value, const char* accepted) {
  throw std::invalid_argument(std::string(var) + ": unknown value '" + value +
                              "' (accepted: " + accepted + ")");
}

/// Whole-string parse of a positive decimal integer: no sign, no blanks, no
/// trailing characters.
bool parse_positive_int(std::string_view s, int& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size() && out > 0;
}

/// DFTFE_NLANES: a total lane count "N" (grid left to factorize) or an
/// explicit brick grid "NX,NY,NZ".
bool parse_lanes(std::string_view v, int& nlanes, std::array<int, 3>& grid) {
  if (v.find(',') == v.npos) {
    grid = {0, 0, 0};
    return parse_positive_int(v, nlanes);
  }
  for (int a = 0; a < 3; ++a) {
    const std::size_t end = (a < 2) ? v.find(',') : v.size();
    if (end == v.npos || !parse_positive_int(v.substr(0, end), grid[a])) return false;
    v.remove_prefix(std::min(end + 1, v.size()));
  }
  nlanes = grid[0] * grid[1] * grid[2];
  return true;
}

}  // namespace

BackendOptions BackendOptions::from_env() { return from_env(BackendOptions{}); }

BackendOptions BackendOptions::from_env(BackendOptions base) {
  if (const char* be = std::getenv("DFTFE_BACKEND"); be != nullptr) {
    if (std::strcmp(be, "serial") == 0) base.kind = BackendKind::serial;
    else if (std::strcmp(be, "threaded") == 0) base.kind = BackendKind::threaded;
    else reject_env("DFTFE_BACKEND", be, "serial | threaded");
  }
  if (const char* nl = std::getenv("DFTFE_NLANES");
      nl != nullptr && !parse_lanes(nl, base.nlanes, base.grid))
    reject_env("DFTFE_NLANES", nl, "a positive lane count N | a grid NX,NY,NZ");
  if (const char* w = std::getenv("DFTFE_WIRE"); w != nullptr) {
    const auto it = std::find_if(kWireNames.begin(), kWireNames.end(),
                                 [w](const WireNames& n) { return std::strcmp(w, n.name) == 0; });
    if (it == kWireNames.end()) reject_env("DFTFE_WIRE", w, "fp64 | fp32 | bf16");
    base.wire = static_cast<Wire>(it - kWireNames.begin());
  }
  if (const char* m = std::getenv("DFTFE_ENGINE_MODE"); m != nullptr) {
    if (std::strcmp(m, "sync") == 0) base.mode = EngineMode::sync;
    else if (std::strcmp(m, "async") == 0) base.mode = EngineMode::async;
    else reject_env("DFTFE_ENGINE_MODE", m, "sync | async");
  }
  if (const char* d = std::getenv("DFTFE_INJECT_WIRE_DELAY"); d != nullptr) {
    if (std::strcmp(d, "0") == 0) base.inject_wire_delay = false;
    else if (std::strcmp(d, "1") == 0) base.inject_wire_delay = true;
    else reject_env("DFTFE_INJECT_WIRE_DELAY", d, "0 | 1");
  }
  if (const char* bw = std::getenv("DFTFE_WIRE_BW"); bw != nullptr) {
    const std::string_view v(bw);
    double x = 0.0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
    if (ec != std::errc() || end != v.data() + v.size() || !std::isfinite(x) || x <= 0.0)
      reject_env("DFTFE_WIRE_BW", bw, "a positive finite bandwidth in bytes/s, e.g. 2e7");
    base.model.bandwidth_bytes_per_s = x;
  }
  return base;
}

template <class T>
SerialBackend<T>::SerialBackend(const fe::DofHandler& dofh, FusedApplyFn<T> apply_fused,
                                std::function<void(const std::vector<double>&)> set_potential)
    : dofh_(&dofh),
      fused_(std::move(apply_fused)),
      set_potential_(std::move(set_potential)) {
  if (!fused_) throw std::invalid_argument("dd::SerialBackend: apply_fused hook is empty");
}

template <class T>
std::unique_ptr<ExecBackend<T>> make_backend(
    const fe::DofHandler& dofh, const BackendOptions& opt, FusedApplyFn<T> serial_apply,
    std::function<void(const std::vector<double>&)> serial_set_potential,
    std::array<double, 3> kpoint) {
  if (opt.kind == BackendKind::serial)
    return std::make_unique<SerialBackend<T>>(dofh, std::move(serial_apply),
                                              std::move(serial_set_potential));
  return std::make_unique<RankEngine<T>>(dofh, opt, Operator::hamiltonian, kpoint);
}

template class SerialBackend<double>;
template class SerialBackend<complex_t>;

template std::unique_ptr<ExecBackend<double>> make_backend<double>(
    const fe::DofHandler&, const BackendOptions&, FusedApplyFn<double>,
    std::function<void(const std::vector<double>&)>, std::array<double, 3>);
template std::unique_ptr<ExecBackend<complex_t>> make_backend<complex_t>(
    const fe::DofHandler&, const BackendOptions&, FusedApplyFn<complex_t>,
    std::function<void(const std::vector<double>&)>, std::array<double, 3>);

}  // namespace dftfe::dd
