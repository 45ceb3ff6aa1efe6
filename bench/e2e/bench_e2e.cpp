// bench_e2e — one workload of the end-to-end benchmark per process.
//
// bench/e2e/run.py launches this program, measures it from outside (peak RSS
// via wait4), and checks its energies against bench/e2e/references.json.
// It builds the generated inputs and calls the public core/svc API
// and, in the traced run, the public functions of each layer. It never reads
// DFTFE_* variables: every workload sets its BackendOptions explicitly.
//
//   bench_e2e --workload NAME --seed S [--seconds T]
//             [--setup-only [--machine]] [--trace DIR] [--smoke] [--tmp DIR]
//
// Modes:
//   --setup-only  one cold set-up (structure, SharedModel, JobState or
//                 JobService); --machine adds the host fingerprint. run.py
//                 starts several of these per run, so each set-up is a fresh
//                 process and includes the one-off MLXC surrogate training.
//   (default)     closed loop: op after op until the next op would end past
//                 --seconds. Each op builds a fresh model and job; the
//                 process-wide workspace pools persist. Tracing is off.
//   --trace DIR   an untraced warm-up op, a traced op, an untraced op with
//                 the same seed, then the per-layer probes. Writes
//                 DIR/trace_<workload>.json (Chrome format) and
//                 DIR/runreport_<workload>.json.
//
// Output is line oriented; each record is one JSON object behind a tag:
//   SETUP {...}    --setup-only
//   MACHINE {...}  --setup-only --machine, after the set-up was timed
//   OP {...}       one op: set-up + solve (or one sweep batch)
//   LAYER {...}    --trace: the per-layer metrics
// Exit codes: 0 every op succeeded, 2 bad usage or environment, 3 an op failed.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atoms/defects.hpp"
#include "atoms/lattice.hpp"
#include "atoms/quasicrystal.hpp"
#include "base/rng.hpp"
#include "base/timer.hpp"
#include "bench/bench_common.hpp"
#include "core/job.hpp"
#include "core/model.hpp"
#include "fe/gradient.hpp"
#include "fe/poisson.hpp"
#include "la/workspace_metrics.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "svc/checkpoint.hpp"
#include "svc/service.hpp"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

using namespace dftfe;

namespace {

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::function<atoms::Structure()> structure;  // generated inside the timed set-up
  core::ModelOptions model;
  ks::ScfOptions scf;
  dd::BackendOptions backend;
  std::vector<ks::KPointSample> kpoints;
  // Sweep workloads (jobs > 0): one op is a JobService batch of `jobs`
  // family siblings against one SharedModel.
  int jobs = 0;
  int workers = 0;
  std::size_t queue = 0;
};

dd::BackendOptions serial_backend() {
  dd::BackendOptions b;
  b.kind = dd::BackendKind::serial;
  return b;
}

// Real lanes on real cores: async halos, FP32 wire, no injected wire delay.
dd::BackendOptions lane_backend(std::array<int, 3> grid) {
  dd::BackendOptions b;
  b.kind = dd::BackendKind::threaded;
  b.grid = grid;
  b.nlanes = grid[0] * grid[1] * grid[2];
  b.mode = dd::EngineMode::async;
  b.wire = dd::Wire::fp32;
  b.inject_wire_delay = false;
  return b;
}

// The ROADMAP's reference problem (the quickstart): Mg2, LDA, p=4, h=2.8.
Workload dimer(std::string name, dd::BackendOptions backend) {
  Workload w;
  w.name = std::move(name);
  w.structure = [] {
    atoms::Structure st;
    st.atoms = {{atoms::Species::Mg, {0.0, 0.0, 0.0}}, {atoms::Species::Mg, {5.8, 0.0, 0.0}}};
    st.periodic = {false, false, false};
    return st;
  };
  w.model.functional = "LDA";
  w.model.fe_degree = 4;
  w.model.mesh_size = 2.8;
  w.model.vacuum = 7.0;
  w.scf.temperature = 5e-3;
  w.scf.mp_block = 4;  // below the 11 states, so the FP32 off-diagonal tiles engage
  w.backend = backend;
  return w;
}

// The paper's science case: an icosahedral Yb-Cd nanoparticle (43 atoms)
// with the MLXC functional, valences scaled as in examples/qc_nanoparticle.
// The mesh (h=3.0, 4.5 Bohr vacuum, 10,648 DoFs) is sized so one run holds
// several solves.
Workload qc43() {
  Workload w;
  w.name = "qc43-mlxc-lanes4";
  w.structure = [] {
    atoms::QuasicrystalOptions q;
    q.scale = 3.4;
    q.n_range = 5;
    return atoms::make_icosahedral_nanoparticle(6.2, q);
  };
  w.model.functional = "MLXC";
  w.model.fe_degree = 3;
  w.model.mesh_size = 3.0;
  w.model.vacuum = 4.5;
  w.model.z_override = {{atoms::Species::Yb, 3.0}, {atoms::Species::Cd, 2.0}};
  w.scf.temperature = 0.01;
  w.scf.max_iterations = 40;
  w.scf.density_tol = 2e-6;
  w.backend = lane_backend({1, 2, 2});
  return w;
}

constexpr double kMgA = 6.06, kMgC = 9.84;  // Mg lattice (Bohr)

// The production shape: a screw-dipole separation sweep of 2-k-point jobs
// against one shared periodic Mg model (examples/sweep_service), 12 jobs
// against a queue of 8 on 4 workers. p=2 keeps one batch near 5 s.
Workload sweep12() {
  Workload w;
  w.name = "sweep12-kpts";
  w.structure = [] { return atoms::make_hcp(atoms::Species::Mg, kMgA, kMgC, 2, 1, 1); };
  w.model.functional = "LDA";
  w.model.fe_degree = 2;
  w.model.mesh_size = 2.8;
  w.scf.temperature = 0.01;
  w.scf.max_iterations = 25;
  w.scf.density_tol = 2e-6;
  w.kpoints = {{{0.0, 0.0, 0.0}, 0.5}, {{0.0, 0.0, kPi / kMgC}, 0.5}};
  w.backend = serial_backend();
  w.jobs = 12;
  w.workers = 4;
  w.queue = 8;
  return w;
}

std::optional<Workload> make_workload(const std::string& name) {
  if (name == "dimer-serial") return dimer(name, serial_backend());
  if (name == "dimer-lanes4") return dimer(name, lane_backend({2, 1, 2}));
  if (name == "qc43-mlxc-lanes4") return qc43();
  if (name == "sweep12-kpts") return sweep12();
  return std::nullopt;
}

// --smoke: a tiny mesh and a fixed two-iteration SCF, so the ctest runs the
// whole runner/compare pipeline in seconds. Lane workloads use two lanes.
void make_smoke(Workload& w) {
  w.model.fe_degree = 2;
  w.model.mesh_size = 4.0;
  w.model.vacuum = 5.0;
  w.scf.max_iterations = 2;
  w.scf.density_tol = 0.0;
  if (w.backend.kind == dd::BackendKind::threaded) {
    w.backend.grid = {1, 1, 2};
    w.backend.nlanes = 2;
  }
}

atoms::Structure sweep_sibling(const core::SharedModel& model, int j, int njobs) {
  // Dipole separation from a quarter of the box up to half of it along x.
  const auto& box = model.structure().box;
  const double sep = box[0] * (0.25 + 0.25 * j / std::max(1, njobs - 1));
  atoms::Structure st = model.structure();
  atoms::apply_screw_dipole(st, kMgC, {(box[0] - sep) * 0.5, box[1] * 0.5},
                            {(box[0] + sep) * 0.5, box[1] * 0.5});
  return st;
}

// --------------------------------------------------------------------- ops

// Trace-mode instrumentation, attached through the public per-iteration hook.
struct Tap {
  std::mutex mu;
  Timer clock;
  std::map<std::string, std::vector<double>> stamps;  // job -> hook times (s)
  std::optional<svc::Checkpoint> captured;            // first job's first state
};

struct Setup {
  double atoms_s = 0.0, model_s = 0.0, total_s = 0.0;
  std::int64_t builds_before = 0;  // SharedModel::built_count() before this set-up
  std::shared_ptr<const core::SharedModel> model;
  std::unique_ptr<core::JobState> job;       // SCF workloads
  std::unique_ptr<svc::JobService> service;  // sweep workloads
  std::vector<core::JobOptions> batch;       // sweep submissions, in order
};

struct JobResult {
  std::string name;
  bool ok = false;
  bool converged = false;
  int iterations = 0;
  double energy = 0.0;
  std::string error;
};

struct Op {
  double setup_s = 0.0;
  double solve_s = 0.0;
  std::vector<JobResult> jobs;
  std::string error;  // op-level failure (an exception or a broken invariant)
};

core::JobOptions job_options(const Workload& w, const std::string& name, unsigned seed,
                             Tap* tap) {
  core::JobOptions jo;
  jo.name = name;
  jo.kpoints = w.kpoints;
  jo.backend = w.backend;
  jo.scf = w.scf;
  jo.scf.seed = seed;
  if (tap != nullptr) {
    jo.on_iteration = [tap](core::JobState& job, int) {
      std::lock_guard<std::mutex> lk(tap->mu);
      tap->stamps[job.name()].push_back(tap->clock.seconds());
      if (!tap->captured) tap->captured = svc::Checkpoint{job.name(), job.save_scf_state()};
    };
  }
  return jo;
}

// The timed set-up: structure generation, SharedModel and JobState
// construction, or for the sweep the JobService start and its submissions.
Setup set_up(const Workload& w, unsigned seed, const std::string& ckpt_dir,
             const std::string& report_dir, Tap* tap) {
  Setup s;
  s.builds_before = core::SharedModel::built_count();
  Timer total;
  Timer t;
  atoms::Structure st = w.structure();
  s.atoms_s = t.seconds();
  t.reset();
  s.model = std::make_shared<const core::SharedModel>(std::move(st), w.model);
  s.model_s = t.seconds();
  if (w.jobs == 0) {
    s.job = std::make_unique<core::JobState>(s.model, job_options(w, w.name, seed, tap));
  } else {
    svc::ServiceOptions so;
    so.workers = w.workers;
    so.queue_capacity = w.queue;
    so.checkpoint_dir = ckpt_dir;
    so.checkpoint_every = 1;
    so.report_dir = report_dir;
    s.service = std::make_unique<svc::JobService>(s.model, so);
    // The seed also fixes the order in which the separations are submitted.
    std::vector<int> order(static_cast<std::size_t>(w.jobs));
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (int j : order) {
      core::JobOptions jo = job_options(w, "sep_" + std::to_string(j), seed, tap);
      jo.structure = sweep_sibling(*s.model, j, w.jobs);
      s.batch.push_back(std::move(jo));
    }
  }
  s.total_s = total.seconds();
  return s;
}

JobResult job_result(const std::string& name, const core::SimulationResult& r) {
  JobResult j;
  j.name = name;
  j.ok = true;
  j.converged = r.scf.converged;
  j.iterations = r.scf.iterations;
  j.energy = r.energy;
  return j;
}

// Run the op's solve half: JobState::run(), or submit the whole batch and
// drain. The sweep asserts one model build and no checkpoint resume.
void solve(Setup& s, Op& op) {
  Timer t;
  if (s.job) {
    const auto res = s.job->run();
    op.solve_s = t.seconds();
    op.jobs.push_back(job_result(s.job->name(), res));
    return;
  }
  const double resumed = obs::MetricsRegistry::global().counter("svc.jobs.resumed");
  for (auto& jo : s.batch) s.service->submit(std::move(jo));
  const auto outcomes = s.service->drain();
  op.solve_s = t.seconds();
  for (const auto& o : outcomes) {
    if (o.ok) {
      op.jobs.push_back(job_result(o.name, o.result));
    } else {
      JobResult j;
      j.name = o.name;
      j.error = o.error;
      op.jobs.push_back(j);
    }
  }
  if (core::SharedModel::built_count() - s.builds_before != 1)
    op.error = "the sweep built more than one SharedModel";
  if (obs::MetricsRegistry::global().counter("svc.jobs.resumed") != resumed)
    op.error = "a sweep job resumed from a checkpoint";
}

// ------------------------------------------------------------------ output

class JsonLine {
 public:
  explicit JsonLine(const char* tag) : s_(tag) { s_ += " {"; }
  JsonLine& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  JsonLine& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + obs::json_escape(v) + "\"");
  }
  JsonLine& raw(const std::string& k, const std::string& v) {
    if (s_.back() != '{') s_ += ", ";
    s_ += "\"";
    s_ += obs::json_escape(k);
    s_ += "\": ";
    s_ += v;
    return *this;
  }
  void print() {
    std::printf("%s}\n", s_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string s_;
};

void print_op(int index, unsigned seed, const Op& op) {
  std::string jobs = "[";
  for (const auto& j : op.jobs) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", j.energy);
    if (jobs.size() > 1) jobs += ", ";
    jobs += "{\"name\": \"" + obs::json_escape(j.name) + "\", \"ok\": " +
            (j.ok ? "true" : "false") + ", \"converged\": " + (j.converged ? "true" : "false") +
            ", \"iterations\": " + std::to_string(j.iterations) + ", \"energy\": " + buf +
            ", \"error\": \"" + obs::json_escape(j.error) + "\"}";
  }
  jobs += "]";
  JsonLine("OP")
      .num("op", index)
      .num("seed", seed)
      .num("setup_s", op.setup_s)
      .num("solve_s", op.solve_s)
      .str("error", op.error)
      .raw("jobs", jobs)
      .print();
}

// ------------------------------------------------------------ layer probes

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Median wall time of `f` over at least `reps` calls and at least 50 ms.
template <class F>
double time_median(F&& f, int reps = 5) {
  std::vector<double> t;
  Timer total;
  while (static_cast<int>(t.size()) < reps || total.seconds() < 0.05) {
    Timer one;
    f();
    t.push_back(one.seconds());
  }
  return median(t);
}

using Layer = std::map<std::string, double>;

const char* const kSteps[] = {"CF",   "CholGS-S", "CholGS-CI", "CholGS-O", "RR-P",
                              "RR-D", "RR-SR",    "DC",        "DH",       "EP"};
const char* const kFlopSteps[] = {"CF", "CholGS-S", "CholGS-O", "RR-P", "RR-SR"};

// Sum of `field` over every span-tree node named `name`, at any depth.
double span_sum(const std::vector<obs::ReportSpan>& nodes, const std::string& name,
                double obs::ReportSpan::*field) {
  double s = 0.0;
  for (const auto& n : nodes) {
    if (n.name == name) s += n.*field;
    s += span_sum(n.children, name, field);
  }
  return s;
}

void lane_seconds(const std::vector<obs::ReportSpan>& nodes, const std::string& name,
                  std::map<int, double>& out) {
  for (const auto& n : nodes) {
    if (n.name == name)
      for (const auto& [lane, s] : n.lane_s) out[lane] += s;
    lane_seconds(n.children, name, out);
  }
}

// Per-solve numbers read from RunReports (one per job of the traced op):
// step self seconds and FLOPs, SCF reconciliation, dd ledger, memory.
void from_reports(const std::vector<obs::RunReport>& reports, Layer& L) {
  const double njobs = std::max<double>(1.0, static_cast<double>(reports.size()));
  double scf_s = 0.0, steps_self = 0.0, flops = 0.0, pools_max = 0.0;
  std::map<std::string, double> step_s, step_flop;
  std::map<int, double> lane_busy;
  Layer dd;
  for (const auto& r : reports) {
    scf_s += span_sum(r.spans, "SCF", &obs::ReportSpan::total_s);
    for (const char* st : kSteps) {
      const double s = span_sum(r.spans, st, &obs::ReportSpan::self_s);
      step_s[st] += s;
      steps_self += s;
    }
    for (const auto& [name, f] : r.flop_steps) step_flop[name] += f;
    flops += r.flops_total;
    double pools = 0.0;
    for (const auto& [name, p] : r.memory.pools) pools += p.highwater_bytes;
    pools_max = std::max(pools_max, pools);
    auto prof = [&r](const char* name) {
      auto it = r.profile.find(name);
      return it == r.profile.end() ? ProfileRegistry::Entry{} : it->second;
    };
    dd["dd.engine.dispatches"] += static_cast<double>(prof("Engine-apply").count);
    dd["dd.halo.wait_lane_s"] += prof("CF-halo").seconds;
    dd["dd.gram.s"] += prof("Gram-tree").seconds;
    dd["dd.halo.exposed_wait_s"] += r.comm.exposed_wait_s;
    dd["dd.halo.bytes"] += r.comm.fp64.bytes + r.comm.fp32.bytes + r.comm.bf16.bytes;
    dd["dd.halo.msgs"] += r.comm.fp64.messages + r.comm.fp32.messages + r.comm.bf16.messages;
    lane_seconds(r.spans, "CF-lane", lane_busy);
  }
  for (const char* st : kSteps) L[std::string("ks.step.") + st + ".s"] = step_s[st] / njobs;
  for (const char* st : kFlopSteps)
    L[std::string("ks.step.") + st + ".gflop"] = step_flop[st] / njobs / 1e9;
  L["ks.flops.total_gflop"] = flops / njobs / 1e9;
  L["ks.sustained_gflops"] = scf_s > 0.0 ? flops / scf_s / 1e9 : 0.0;
  // Reconciliation: the SCF span against the paper's steps beneath it. The
  // remainder (Lanczos bounds, Fermi level, mixing, energy) is its own number.
  L["core.scf.coverage"] = scf_s > 0.0 ? steps_self / scf_s : 0.0;
  L["core.scf.unexplained_s"] = (scf_s - steps_self) / njobs;
  for (const auto& [k, v] : dd) L[k] = v / njobs;
  double busy_max = 0.0, busy_sum = 0.0;
  for (const auto& [lane, s] : lane_busy) {
    busy_max = std::max(busy_max, s);
    busy_sum += s;
  }
  L["dd.lane.imbalance"] =
      lane_busy.empty() ? 0.0 : busy_max / (busy_sum / static_cast<double>(lane_busy.size()));
  L["mem.workspace.highwater_mb"] = pools_max / 1e6;
}

// Iteration times from the hook stamps: the gaps between consecutive
// completed iterations (the first iteration, which also builds the solver,
// and the converging one, which has no hook call, are not sampled).
void iteration_times(const Tap& tap, Layer& L) {
  std::vector<double> gaps;
  for (const auto& [job, t] : tap.stamps)
    for (std::size_t i = 1; i < t.size(); ++i) gaps.push_back(t[i] - t[i - 1]);
  L["ks.scf_iter.p50_s"] = quantile(gaps, 0.50);
  L["ks.scf_iter.p75_s"] = quantile(gaps, 0.75);
  L["ks.scf_iter.samples"] = static_cast<double>(gaps.size());
}

// Kernel and solver-stage probes on a converged solver: each times one call
// into a layer's public function on the job's own shapes and data.
template <class T>
void probe_solver(const Workload& w, const core::SharedModel& model, core::JobState& job,
                  ks::KohnShamDFT<T>& ksd, Layer& L) {
  const fe::DofHandler& dofh = model.dofs();
  const index_t n = dofh.ndofs(), N = ksd.nstates();
  const index_t Bf = std::min<index_t>(w.scf.block_size, N);
  const double ff = scalar_traits<T>::flop_factor;
  const la::Matrix<T> X = ksd.wavefunctions(0);

  // la: the (n x N)(N x N) GEMM of RR-SR and CholGS-O.
  {
    la::Matrix<T> Q(N, N), C(n, N);
    for (index_t i = 0; i < Q.size(); ++i) Q.data()[i] = T(1e-3 * static_cast<double>(i % 97));
    const double s = time_median([&] { la::gemm('N', 'N', T(1), X, Q, T(0), C); });
    L["la.gemm.s"] = s;
    L["la.gemm.gflops"] = 2.0 * ff * static_cast<double>(n) * N * N / s / 1e9;
  }
  // la: the strided-batched cell GEMM of the Hamiltonian apply, one shared
  // (p+1)^3 cell matrix against B_f columns of every cell. Bytes are
  // computed from the array sizes, not measured.
  {
    const index_t nd = dofh.ndofs_per_cell(), cells = model.mesh().ncells_total();
    la::Matrix<T> A(nd, nd);
    for (index_t i = 0; i < A.size(); ++i) A.data()[i] = T(1e-3 * static_cast<double>(i % 89));
    std::vector<T> Xc(static_cast<std::size_t>(nd * Bf * cells), T(0.5)), Yc(Xc.size());
    const double s = time_median([&] {
      la::gemm_strided_batched<T>('N', 'N', nd, Bf, nd, T(1), A.data(), nd, 0, Xc.data(), nd,
                                  nd * Bf, T(0), Yc.data(), nd, nd * Bf, cells);
    });
    const double flop = 2.0 * ff * static_cast<double>(nd) * nd * Bf * cells;
    const double bytes =
        static_cast<double>(sizeof(T)) * (static_cast<double>(nd) * nd + 2.0 * nd * Bf * cells);
    L["la.batched_gemm.s"] = s;
    L["la.batched_gemm.gflops"] = flop / s / 1e9;
    L["la.batched_gemm.op_per_byte"] = flop / bytes;
  }
  // ks: one Hamiltonian apply on a B_f block (FLOPs from the library's counter).
  {
    ks::Hamiltonian<T>& H = ksd.hamiltonian(0);
    la::Matrix<T> Xb(n, Bf), Y(n, Bf);
    std::copy(X.data(), X.data() + n * Bf, Xb.data());
    const double f0 = FlopCounter::global().total();
    H.apply(Xb, Y);
    const double flop = FlopCounter::global().total() - f0;
    const double s = time_median([&] { H.apply(Xb, Y); });
    L["ks.ham_apply.s"] = s;
    L["ks.ham_apply.gflops"] = flop / s / 1e9;
  }
  // ks: ChFES cycles on the converged subspace through the workload's own
  // backend kind; the CF of one cycle is one filter_block per B_f block.
  // The workspace counters across the steady cycles must not move.
  {
    ks::Hamiltonian<T>& H = ksd.hamiltonian(0);
    ks::ChfesOptions copt;
    copt.cheb_degree = w.scf.cheb_degree;
    copt.block_size = w.scf.block_size;
    copt.mixed_precision = w.scf.mixed_precision;
    copt.mp_block = w.scf.mp_block;
    ks::ChebyshevFilteredSolver<T> cfs(H, N, copt);
    const ks::ScfState st = job.save_scf_state();
    cfs.restore_subspace(st.kpoints[0].coeffs, st.kpoints[0].eigenvalues);
    auto be = dd::make_backend<T>(
        dofh, w.backend,
        [h = &H](const la::Matrix<T>& A, la::Matrix<T>& B, double c, double sc,
                 const la::Matrix<T>* Z, double zc) { h->apply_fused(A, B, c, sc, Z, zc); },
        {}, w.kpoints.empty() ? std::array<double, 3>{0, 0, 0} : w.kpoints[0].k);
    be->set_potential(ksd.effective_potential());
    cfs.set_backend(be.get());
    cfs.cycle();  // warm the pools and set the filter bounds
    const std::int64_t a0 = la::WorkspaceCounters::allocations();
    L["ks.chfes_cycle.s"] = time_median([&] { cfs.cycle(); }, 3);
    L["mem.workspace.steady_allocs"] =
        static_cast<double>(la::WorkspaceCounters::allocations() - a0);
    const double blocks = std::ceil(static_cast<double>(N) / static_cast<double>(Bf));
    L["ks.cf_block.s"] = time_median([&] { cfs.filter(); }, 3) / blocks;
  }
  // ks: the DC and DH steps at the converged density.
  {
    const double mu = ksd.find_fermi_level();
    L["ks.dc.s"] = time_median([&] { ksd.compute_density(mu); }, 3);
    L["ks.dh.s"] = time_median([&] { ksd.update_effective_potential(); }, 3);
  }
  // fe: a cold Poisson solve of the converged density, and the stiffness
  // apply its PCG runs on.
  {
    fe::PoissonSolver ps(dofh);
    std::vector<double> phi;
    Timer t;
    const la::SolveReport rep = ps.solve(ksd.density(), phi, w.scf.poisson_tol);
    L["fe.poisson.cold_s"] = t.seconds();
    L["fe.poisson.cold_iters"] = rep.iterations;
    std::vector<double> x(ksd.density()), y(x.size());
    L["fe.stiffness_apply.s"] = time_median([&] {
      std::fill(y.begin(), y.end(), 0.0);
      ps.stiffness().apply_add(x, y);
    });
  }
  // xc: one functional evaluation on the converged rho (and sigma).
  if (const auto& f = model.functional()) {
    const std::vector<double>& rho = ksd.density();
    std::vector<double> sigma, exc, vrho, vsigma;
    if (f->needs_gradient()) {
      const auto g = fe::nodal_gradient(dofh, rho);
      sigma.resize(rho.size());
      for (std::size_t i = 0; i < rho.size(); ++i)
        sigma[i] = g[0][i] * g[0][i] + g[1][i] * g[1][i] + g[2][i] * g[2][i];
    }
    L["xc.eval.s"] = time_median([&] { f->evaluate(rho, sigma, exc, vrho, vsigma); }, 3);
  }
}

void probe_checkpoint(const std::optional<svc::Checkpoint>& cp, const std::string& tmp,
                      Layer& L) {
  if (!cp) return;
  const std::string path = tmp + "/probe.ckpt.json";
  L["svc.checkpoint.write_s"] = time_median([&] { svc::write_checkpoint(path, *cp); }, 3);
  std::error_code ec;
  L["svc.checkpoint.bytes"] = static_cast<double>(std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
}

void clear_registries() {
  obs::TraceRecorder::global().clear();
  obs::MetricsRegistry::global().clear();
  ProfileRegistry::global().clear();
  FlopCounter::global().clear();
}

// The metrics of layers that do no work on some workloads read 0 there:
// svc outside the sweep (dd's ledger reads 0 on serial backends by itself).
Layer empty_layer() {
  Layer L;
  for (const char* k : {"svc.worker_util", "svc.job.p50_s", "svc.job.max_s",
                        "svc.queue.highwater", "svc.checkpoint.write_s", "svc.checkpoint.bytes",
                        "xc.eval.s"})
    L[k] = 0.0;
  return L;
}

std::string op_dir(const std::string& tmp, const char* what, unsigned seed) {
  const std::string d = tmp + "/" + what + "_" + std::to_string(seed);
  std::filesystem::remove_all(d);
  return d;
}

// One op, exceptions included. `report_dir`/`tap` instrument the traced op.
Op run_op(const Workload& w, unsigned seed, const std::string& tmp, Tap* tap,
          const std::string& report_dir, Setup* keep) {
  Op op;
  const std::string ckpt = op_dir(tmp, "ckpt", seed);
  try {
    Setup s = set_up(w, seed, ckpt, report_dir, tap);
    op.setup_s = s.total_s;
    solve(s, op);
    if (keep != nullptr) *keep = std::move(s);
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  std::error_code ec;
  std::filesystem::remove_all(ckpt, ec);
  return op;
}

bool op_failed(const Op& op) {
  if (!op.error.empty()) return true;
  for (const auto& j : op.jobs)
    if (!j.ok) return true;
  return false;
}

int run_traced(const Workload& w, unsigned seed, const std::string& tmp,
               const std::string& trace_dir) {
  Layer L = empty_layer();
  // xc: the functional factory, cold (MLXC trains its surrogate here).
  {
    Timer t;
    core::make_functional(w.model.functional);
    L["xc.make_functional.s"] = t.seconds();
  }
  std::filesystem::create_directories(trace_dir);
  const std::string reports = op_dir(tmp, "reports", seed);
  bool failed = false;

  // Untraced warm-up, traced op, untraced op with the same seed.
  obs::TraceRecorder::global().set_enabled(false);
  Op warm = run_op(w, seed, tmp, nullptr, "", nullptr);
  print_op(0, seed, warm);
  failed |= op_failed(warm);

  clear_registries();
  obs::TraceRecorder::global().set_enabled(true);
  Tap tap;
  Setup s;
  Op traced;
  {
    obs::TraceSpan span("bench.op", "bench");
    traced = run_op(w, seed, tmp, &tap, w.jobs > 0 ? reports : "", &s);
  }
  print_op(1, seed, traced);
  failed |= op_failed(traced);
  la::publish_workspace_metrics();
  const obs::RunReport report = obs::build_run_report(w.name);
  obs::write_run_report(trace_dir + "/runreport_" + w.name + ".json", report);
  obs::write_chrome_trace(trace_dir + "/trace_" + w.name + ".json");
  obs::TraceRecorder::global().set_enabled(false);

  Op again = run_op(w, seed, tmp, nullptr, "", nullptr);
  print_op(2, seed, again);
  failed |= op_failed(again);
  if (failed) return 3;
  L["obs.trace_overhead_frac"] = traced.solve_s / again.solve_s - 1.0;
  L["atoms.build.s"] = s.atoms_s;
  L["core.model_build.s"] = s.model_s;
  double iters = 0.0;
  for (const auto& j : traced.jobs) iters += j.iterations;
  L["ks.scf.iterations"] = iters / static_cast<double>(traced.jobs.size());
  iteration_times(tap, L);

  if (w.jobs == 0) {
    from_reports({report}, L);
    probe_solver(w, *s.model, *s.job, s.job->gamma_solver(), L);
  } else {
    // svc: the per-job RunReports the workers wrote, and the process gauges.
    std::vector<obs::RunReport> job_reports;
    std::vector<double> job_s;
    for (const auto& e : std::filesystem::directory_iterator(reports)) {
      std::ifstream in(e.path());
      std::stringstream text;
      text << in.rdbuf();
      obs::RunReport r;
      if (!obs::parse_run_report(text.str(), r)) continue;
      job_s.push_back(span_sum(r.spans, "Simulation-run", &obs::ReportSpan::total_s));
      job_reports.push_back(std::move(r));
    }
    from_reports(job_reports, L);
    const double busy = std::accumulate(job_s.begin(), job_s.end(), 0.0);
    L["svc.worker_util"] = busy / (w.workers * traced.solve_s);
    L["svc.job.p50_s"] = median(job_s);
    L["svc.job.max_s"] = job_s.empty() ? 0.0 : *std::max_element(job_s.begin(), job_s.end());
    L["svc.queue.highwater"] = obs::MetricsRegistry::global().gauge("svc.queue.highwater");
    probe_checkpoint(tap.captured, tmp, L);
    // The kernel probes need a live converged solver: one more job of the
    // family, run directly on this thread.
    core::JobOptions jo = job_options(w, "probe", seed, nullptr);
    jo.structure = sweep_sibling(*s.model, 0, w.jobs);
    core::JobState probe(s.model, jo);
    probe.run();
    probe_solver(w, *s.model, probe, probe.kpoint_solver(), L);
  }
  std::filesystem::remove_all(reports);

  JsonLine line("LAYER");
  for (const auto& [k, v] : L) line.num(k, v);
  line.print();
  return 0;
}

// ----------------------------------------------------------------- helpers

// svc workers and engine lanes start with the environment's OpenMP thread
// count, so "at most nproc busy threads" rests on OMP_NUM_THREADS=1.
bool openmp_pinned_to_one() {
  int threads = 0;
  std::thread t([&threads] { threads = omp_get_max_threads(); });
  t.join();
  return threads == 1;
}

int usage(const std::string& msg) {
  std::fprintf(stderr, "bench_e2e: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed S [--seconds T]\n"
               "                 [--setup-only [--machine]] [--trace DIR] [--smoke] [--tmp DIR]\n");
  return 2;
}

int run_setup_only(const Workload& w, unsigned seed, const std::string& tmp, bool machine) {
  obs::TraceRecorder::global().set_enabled(false);
  const std::string ckpt = op_dir(tmp, "setup", seed);
  {
    Setup s = set_up(w, seed, ckpt, "", nullptr);
    JsonLine("SETUP")
        .num("setup_s", s.total_s)
        .num("atoms_s", s.atoms_s)
        .num("model_s", s.model_s)
        .print();
  }
  std::filesystem::remove_all(ckpt);
  if (machine)
    JsonLine("MACHINE")
        .num("hw_threads", std::thread::hardware_concurrency())
        .num("calibrated_peak_gflops", bench::calibrated_peak_gflops())
        .str("build_type", BENCH_E2E_BUILD_TYPE)
        .num("tracing_compiled", DFTFE_ENABLE_TRACING)
        .print();
  return 0;
}

// Closed loop with tracing off at runtime: op after op until the next one
// would end after `seconds` (counted from process start, so the MLXC
// training before the first op is inside the budget but outside every op).
int run_timed(const Workload& w, unsigned seed, const std::string& tmp, double seconds,
              const Timer& clock) {
  obs::TraceRecorder::global().set_enabled(false);
  core::make_functional(w.model.functional);
  std::vector<double> op_s;
  bool failed = false;
  for (int i = 0; op_s.empty() || clock.seconds() + median(op_s) <= seconds; ++i) {
    // Every op of a run starts from its own random subspace.
    const unsigned op_seed = seed * 1000u + static_cast<unsigned>(i);
    Timer t;
    const Op op = run_op(w, op_seed, tmp, nullptr, "", nullptr);
    op_s.push_back(t.seconds());
    print_op(i, op_seed, op);
    failed |= op_failed(op);
  }
  return failed ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Timer clock;
  std::string name, tmp = ".", trace_dir;
  unsigned seed = 0;
  double seconds = 10.0;
  bool setup_only = false, machine = false, smoke = false, have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--setup-only") setup_only = true;
      else if (a == "--machine") machine = true;
      else if (a == "--smoke") smoke = true;
      else if (i + 1 >= argc) return usage("missing value for " + a);
      else if (a == "--workload") name = argv[++i];
      else if (a == "--seed") seed = static_cast<unsigned>(std::stoul(argv[++i])), have_seed = true;
      else if (a == "--seconds") seconds = std::stod(argv[++i]);
      else if (a == "--trace") trace_dir = argv[++i];
      else if (a == "--tmp") tmp = argv[++i];
      else return usage("unknown flag " + a);
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed) return usage("--seed is required");
  std::optional<Workload> w = make_workload(name);
  if (!w) return usage("unknown workload '" + name + "'");
  if (smoke) make_smoke(*w);
  if (!openmp_pinned_to_one()) {
    std::fprintf(stderr,
                 "bench_e2e: OpenMP would start %d threads on each worker; run with "
                 "OMP_NUM_THREADS=1 (OpenMP > 1 crashes the solver, ROADMAP item 1)\n",
                 omp_get_max_threads());
    return 2;
  }
  obs::Logger::global().set_level(obs::LogLevel::warn);
  try {
    std::filesystem::create_directories(tmp);
    if (setup_only) return run_setup_only(*w, seed, tmp, machine);
    if (!trace_dir.empty()) return run_traced(*w, seed, tmp, trace_dir);
    return run_timed(*w, seed, tmp, seconds, clock);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 3;
  }
}
