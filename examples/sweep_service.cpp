// Defect-separation sweep through the multi-tenant job service — the
// production shape of the paper's science workloads (Sec. 6.2): one
// structure family (a periodic Mg supercell), many related solves (a screw
// dislocation dipole at varying separations). The immutable half — mesh,
// DofHandler, XC functional — is built ONCE as a core::SharedModel; each
// separation is a core::JobOptions with a family-sibling structure, run
// concurrently by svc::JobService workers (each job's solver owns its
// scratch) with per-job RunReports and dftfe.checkpoint.v1
// checkpoint/restart.
//
// The CI service-soak leg drives the full resilience story with this
// binary:
//   sweep_service --dir out                      # clean baseline energies
//   sweep_service --dir out2 --kill-job sep_1 --kill-iter 2
//                                                # hard-killed mid-SCF (exit 3)
//   sweep_service --dir out2                     # resumes from checkpoints
// and asserts the resumed energies equal the baseline to 1e-10 Ha.
//
// Flags: --jobs N, --workers N, --dir PATH, --max-iter N, --quick,
//        --kill-job NAME --kill-iter I (exit(3) after that iteration's
//        checkpoint is on disk). Backend comes from the shared DFTFE_*
//        environment parser (dd::BackendOptions::from_env).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "atoms/defects.hpp"
#include "atoms/lattice.hpp"
#include "base/table.hpp"
#include "core/job.hpp"
#include "core/model.hpp"
#include "svc/service.hpp"

int main(int argc, char** argv) {
  using namespace dftfe;

  int njobs = 4, workers = 2, max_iter = 25, kill_iter = -1;
  std::string dir = "sweep_out", kill_job;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sweep_service: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--jobs") == 0) njobs = std::atoi(next("--jobs"));
    else if (std::strcmp(argv[i], "--workers") == 0) workers = std::atoi(next("--workers"));
    else if (std::strcmp(argv[i], "--dir") == 0) dir = next("--dir");
    else if (std::strcmp(argv[i], "--max-iter") == 0) max_iter = std::atoi(next("--max-iter"));
    else if (std::strcmp(argv[i], "--kill-job") == 0) kill_job = next("--kill-job");
    else if (std::strcmp(argv[i], "--kill-iter") == 0) kill_iter = std::atoi(next("--kill-iter"));
    else if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else {
      std::fprintf(stderr, "sweep_service: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (njobs < 1) njobs = 1;

  const double a = 6.06, c = 9.84;  // Mg lattice (Bohr)

  // The family parent: pristine periodic Mg supercell. Every sweep point
  // perturbs atom positions only (screw-dipole z displacements), so the box
  // — and therefore the mesh and DofHandler — is shared.
  atoms::Structure parent = atoms::make_hcp(atoms::Species::Mg, a, c, 2, 1, 1);

  core::ModelOptions mopt;
  mopt.functional = "LDA";
  mopt.fe_degree = quick ? 2 : 3;
  mopt.mesh_size = quick ? 3.2 : 2.8;
  const std::int64_t builds_before = core::SharedModel::built_count();
  auto model = std::make_shared<const core::SharedModel>(parent, mopt);

  dd::BackendOptions backend;
  try {
    backend = dd::BackendOptions::from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_service: %s\n", e.what());
    return 2;
  }

  svc::ServiceOptions sopt;
  sopt.workers = workers;
  sopt.checkpoint_dir = dir + "/ckpt";
  sopt.report_dir = dir + "/reports";
  sopt.checkpoint_every = 1;
  svc::JobService service(model, sopt);

  std::printf("== Mg screw-dipole separation sweep (%d jobs, %d workers) ==\n", njobs, workers);
  const auto& box = model->structure().box;
  for (int j = 0; j < njobs; ++j) {
    // Dipole separation sweep along x: from a quarter box up to half box.
    const double sep = box[0] * (0.25 + 0.25 * j / std::max(1, njobs - 1));
    atoms::Structure st = model->structure();
    atoms::apply_screw_dipole(st, c, {(box[0] - sep) * 0.5, box[1] * 0.5},
                              {(box[0] + sep) * 0.5, box[1] * 0.5});
    core::JobOptions job;
    job.name = "sep_" + std::to_string(j);
    job.structure = std::move(st);
    job.backend = backend;
    job.scf.max_iterations = max_iter;
    job.scf.density_tol = quick ? 1e-5 : 2e-6;
    job.scf.temperature = 0.01;
    if (!kill_job.empty() && kill_iter > 0) {
      const std::string victim = kill_job;
      const int kiter = kill_iter;
      job.on_iteration = [victim, kiter](core::JobState& js, int done) {
        // The service's checkpoint hook already ran for this iteration, so
        // the artifact for `done` is on disk. _Exit models a hard kill —
        // no destructors, no flushes.
        if (js.name() == victim && done >= kiter) {
          std::printf("SWEEP_KILLED %s at iteration %d\n", victim.c_str(), done);
          std::fflush(stdout);
          std::_Exit(3);
        }
      };
    }
    service.submit(std::move(job));
  }

  const auto outcomes = service.drain();
  const std::int64_t builds = core::SharedModel::built_count() - builds_before;

  TextTable t({"job", "E total (Ha)", "iters", "resumed@", "worker", "status"});
  bool all_ok = true;
  for (const auto& o : outcomes) {
    all_ok = all_ok && o.ok && o.result.scf.converged;
    t.add(o.name, o.ok ? TextTable::num(o.result.energy, 6) : std::string("-"),
          o.ok ? o.result.scf.iterations : 0, o.resumed_from, o.worker,
          o.ok ? (o.result.scf.converged ? "converged" : "max-iter") : o.error);
  }
  t.print();
  std::printf("shared model builds this run: %lld (mesh+functional amortized across %zu jobs)\n",
              static_cast<long long>(builds), outcomes.size());

  // Machine-greppable lines for the CI service-soak leg.
  for (const auto& o : outcomes)
    if (o.ok)
      std::printf("SWEEP_JOB %s ENERGY_HA %.12e ITERS %d RESUMED_FROM %d\n", o.name.c_str(),
                  o.result.energy, o.result.scf.iterations, o.resumed_from);
  std::printf("SWEEP_MODEL_BUILDS %lld\n", static_cast<long long>(builds));
  std::printf(all_ok ? "SWEEP_OK\n" : "SWEEP_FAILED\n");
  std::printf("reports: %s/reports/<job>.report.json  checkpoints: %s/ckpt/<job>.ckpt.json\n",
              dir.c_str(), dir.c_str());
  return all_ok ? 0 : 1;
}
