// Multi-tenant job service vs the naive sequential sweep loop (the svc
// tentpole's perf gate). A parameter sweep runs the same SharedModel —
// identical box, mesh, functional — against a family of sibling structures.
// The naive loop pays twice for that shape: it rebuilds the model (mesh,
// dof handler, nuclei smearing) from scratch for every job, and it exposes
// every job's halo wire serially, one job at a time. svc::JobService builds
// the model once and runs the jobs concurrently, so while one job's lanes
// sleep out their modeled wire time another job's lanes compute — the same
// overlap argument as the async schedule, lifted from within one solve to
// across a fleet of solves.
//
// Interconnect emulation (the convention of bench_scf_scaling): every job
// runs the threaded sync backend at 2 lanes with an injected wire delay
// calibrated against the running host's own per-step filter compute, so
// each halo exchange is a real sleep the OS can overlap across jobs. The
// sequential loop serializes those sleeps end to end; the service overlaps
// them behind other jobs' compute. The headline gauge
// svc_throughput.speedup = sequential wall / service wall gates the
// bench-regression CI tier at >= 1.3x. Every service job must land on its
// sequential twin's energy to <= 1e-10 Ha (FP64 wire: the bitwise-path
// budget), and the shared model must be constructed exactly once for the
// whole fleet (svc_throughput.shared_model_reused, counter-asserted via
// core::SharedModel::built_count).
//
// Flags: --quick  fewer SCF iterations (the CI preset).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/job.hpp"
#include "core/model.hpp"
#include "core/simulation.hpp"
#include "dd/backend.hpp"
#include "dd/engine.hpp"
#include "svc/service.hpp"

using namespace dftfe;

namespace {

// Sweep family: a fixed periodic box with one atom walking along x. Fully
// periodic cells keep SharedModel::nuclei_for exact (no recentering shift),
// so every sibling is a legal family member of the one shared model.
atoms::Structure family_parent() {
  atoms::Structure st;
  st.atoms = {{atoms::Species::X, {1.0, 1.0, 1.0}}, {atoms::Species::X, {1.0, 4.0, 4.0}}};
  st.box = {7.0, 7.0, 7.0};
  st.periodic = {true, true, true};
  return st;
}

atoms::Structure family_sibling(int j) {
  atoms::Structure st = family_parent();
  st.atoms[0].pos[0] = 1.0 + 0.4 * j;
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::print_preamble(
      "SCF sweep throughput: svc::JobService vs the naive sequential loop\n"
      "(shared model built once + wire sleeps overlapped across jobs)");

  const int njobs = 4;
  const int nlanes = 2;

  core::ModelOptions mopt;
  mopt.fe_degree = 2;
  mopt.mesh_size = 2.4;
  mopt.functional = "LDA";

  ks::ScfOptions scf;
  scf.max_iterations = quick ? 3 : 4;
  scf.density_tol = 1e-14;  // unreachable on purpose: fixed-work benchmark
  scf.temperature = 0.01;

  // ---- Calibration probe: per-step filter compute at 2 lanes, free wire ----
  // The injected delay is a fixed multiple of the running host's own per-step
  // compute (bench_common.hpp), so the wire-bound regime travels with the
  // hardware. A 300 us floor keeps the sleep well above OS timer jitter on
  // hosts where the tiny sweep problem computes in the noise.
  auto probe_model = std::make_shared<const core::SharedModel>(family_parent(), mopt);
  const fe::DofHandler& dofh = probe_model->dofs();
  dd::BackendOptions popt;
  popt.nlanes = nlanes;
  popt.mode = dd::EngineMode::sync;
  popt.wire = dd::Wire::fp64;
  const bench::InjectedWire wire = bench::calibrated_wire(
      bench::probe_step_compute(dofh, popt, scf.block_size, scf.cheb_degree), 4.0,
      dd::halo_packet_bytes<double>(dofh.naxis(0) * dofh.naxis(1) * scf.block_size,
                                    dd::Wire::fp64),
      300e-6);
  const double delay = wire.delay;

  dd::BackendOptions backend;
  backend.kind = dd::BackendKind::threaded;
  backend.nlanes = nlanes;
  backend.mode = dd::EngineMode::sync;
  backend.wire = dd::Wire::fp64;  // bitwise-path budget: service == sequential
  backend.inject_wire_delay = true;
  backend.model = wire.model;

  std::printf("workload: %d jobs x %d SCF iterations (fixed), %lld dofs, LDA,\n"
              "2-lane sync backend, FP64 wire, %.2f ms injected delay per plane packet\n\n",
              njobs, scf.max_iterations, static_cast<long long>(dofh.ndofs()),
              1e3 * delay);

  // ---- Naive sequential loop: fresh Simulation (and model) per job ----
  const std::int64_t builds_seq0 = core::SharedModel::built_count();
  std::vector<double> e_seq(njobs);
  Timer seq_timer;
  for (int j = 0; j < njobs; ++j) {
    core::SimulationOptions sopt;
    sopt.fe_degree = mopt.fe_degree;
    sopt.mesh_size = mopt.mesh_size;
    sopt.functional = mopt.functional;
    sopt.backend = backend;
    sopt.scf = scf;
    core::Simulation sim(family_sibling(j), sopt);
    e_seq[static_cast<std::size_t>(j)] = sim.run().energy;
  }
  const double seq_wall = seq_timer.seconds();
  const std::int64_t seq_builds = core::SharedModel::built_count() - builds_seq0;

  // ---- Service: one shared model, njobs workers, wire sleeps overlapped ----
  const std::int64_t builds_svc0 = core::SharedModel::built_count();
  std::vector<svc::JobOutcome> outcomes;
  Timer svc_timer;
  {
    auto model = std::make_shared<const core::SharedModel>(family_parent(), mopt);
    svc::ServiceOptions sopt;
    sopt.workers = njobs;
    sopt.queue_capacity = njobs;
    svc::JobService service(model, sopt);
    for (int j = 0; j < njobs; ++j) {
      core::JobOptions job;
      job.name = "sweep_" + std::to_string(j);
      job.structure = family_sibling(j);
      job.backend = backend;
      job.scf = scf;
      service.submit(std::move(job));
    }
    outcomes = service.drain();
  }
  const double svc_wall = svc_timer.seconds();
  const std::int64_t svc_builds = core::SharedModel::built_count() - builds_svc0;

  double energy_diff = 0.0;
  bool all_ok = true;
  TextTable t({"job", "sequential E (Ha)", "service E (Ha)", "|dE| (Ha)", "worker"});
  for (int j = 0; j < njobs; ++j) {
    const auto& o = outcomes[static_cast<std::size_t>(j)];
    all_ok = all_ok && o.ok;
    const double de = o.ok ? std::abs(o.result.energy - e_seq[static_cast<std::size_t>(j)])
                           : 1.0;
    energy_diff = std::max(energy_diff, de);
    t.add(o.name, TextTable::num(e_seq[static_cast<std::size_t>(j)], 10),
          o.ok ? TextTable::num(o.result.energy, 10) : std::string("FAILED"),
          TextTable::num(de, 2), o.worker);
  }
  t.print();

  const double speedup = seq_wall / svc_wall;
  std::printf("sequential loop: %.3f s (%lld model builds)   service: %.3f s "
              "(%lld model builds)\n",
              seq_wall, static_cast<long long>(seq_builds), svc_wall,
              static_cast<long long>(svc_builds));
  std::printf("throughput speedup, service over sequential: %.2fx "
              "(acceptance gate: >= 1.3x)\n",
              speedup);
  std::printf("max |E_service - E_sequential|: %.3e Ha (gate: <= 1e-10; FP64 wire)\n\n",
              energy_diff);

  bench::emit_bench_artifact(
      "scf_service_throughput", "svc_throughput",
      {{"jobs", static_cast<double>(njobs)},
       {"workers", static_cast<double>(njobs)},
       {"lanes_per_job", static_cast<double>(nlanes)},
       {"sequential_wall_s", seq_wall},
       {"service_wall_s", svc_wall},
       {"speedup", speedup},
       {"injected_delay_s", delay},
       {"sequential_model_builds", static_cast<double>(seq_builds)},
       {"service_model_builds", static_cast<double>(svc_builds)},
       {"shared_model_reused", (svc_builds == 1 && seq_builds == njobs) ? 1.0 : 0.0},
       {"energy_diff_ha", energy_diff},
       {"energy_agree", (all_ok && energy_diff <= 1e-10) ? 1.0 : 0.0}});
  return all_ok && energy_diff <= 1e-10 ? 0 : 1;
}
