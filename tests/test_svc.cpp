// Tests for the multi-tenant job service stack: SharedModel/JobState split
// semantics (shared-once model, family-sibling nuclei), the bounded job
// queue, the dftfe.checkpoint.v1 round trip, and the end-to-end service
// guarantees — N concurrent jobs reproduce sequential plain-Simulation
// energies against ONE shared model, a killed job resumes from its
// checkpoint to the identical converged energy, and concurrent jobs emit
// distinct well-formed RunReport artifacts.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/job.hpp"
#include "core/model.hpp"
#include "core/simulation.hpp"
#include "obs/report.hpp"
#include "svc/checkpoint.hpp"
#include "svc/queue.hpp"
#include "svc/service.hpp"

namespace dftfe {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures: a tiny periodic structure family (same box, perturbed
// atom positions) — the shape the service is built for.
// ---------------------------------------------------------------------------

atoms::Structure family_parent() {
  atoms::Structure st;
  st.atoms = {{atoms::Species::X, {1.0, 1.0, 1.0}}, {atoms::Species::X, {1.0, 4.0, 4.0}}};
  st.box = {7.0, 7.0, 7.0};
  st.periodic = {true, true, true};
  return st;
}

atoms::Structure family_sibling(int j) {
  atoms::Structure st = family_parent();
  st.atoms[0].pos[0] = 1.0 + 0.4 * j;  // sweep along x; box unchanged
  return st;
}

core::ModelOptions fast_model_options() {
  core::ModelOptions m;
  m.fe_degree = 2;
  m.mesh_size = 3.5;
  return m;
}

ks::ScfOptions fast_scf_options() {
  ks::ScfOptions scf;
  scf.max_iterations = 10;
  scf.density_tol = 1e-5;
  scf.temperature = 0.01;
  return scf;
}

core::SimulationOptions fast_sim_options() {
  core::SimulationOptions opt;
  opt.fe_degree = 2;
  opt.mesh_size = 3.5;
  opt.scf = fast_scf_options();
  return opt;
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(SvcQueue, PushPopFifoAndHighwater) {
  svc::BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.highwater(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.highwater(), 3u);
}

TEST(SvcQueue, PushBlocksWhenFullUntilPop) {
  svc::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(0));
  std::atomic<bool> second_pushed{false};
  std::thread t([&] {
    EXPECT_TRUE(q.push(1));  // blocks until the main thread pops
    second_pushed = true;
  });
  // The queue is full; the producer must be parked (best-effort check).
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.pop().value(), 0);
  t.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
}

TEST(SvcQueue, CloseDrainsThenReturnsNullopt) {
  svc::BoundedQueue<int> q(4);
  q.push(7);
  q.push(8);
  q.close();
  EXPECT_FALSE(q.push(9));  // rejected after close
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_EQ(q.pop().value(), 8);
  EXPECT_FALSE(q.pop().has_value());  // drained + closed
}

TEST(SvcQueue, CloseWakesBlockedConsumer) {
  svc::BoundedQueue<int> q(2);
  std::thread t([&] { EXPECT_FALSE(q.pop().has_value()); });
  q.close();
  t.join();
}

// ---------------------------------------------------------------------------
// Checkpoint artifact
// ---------------------------------------------------------------------------

svc::Checkpoint sample_checkpoint() {
  svc::Checkpoint cp;
  cp.label = "sample";
  cp.scf.iterations = 3;
  cp.scf.complex_scalars = true;
  cp.scf.ndofs = 4;
  cp.scf.nstates = 2;
  for (int i = 0; i < 4; ++i) {
    cp.scf.rho.push_back(std::sin(1.0 + i) / 3.0);
    cp.scf.phi.push_back(std::cos(2.0 + i) / 7.0);
  }
  cp.scf.hist_rho = {{0.1, 0.2, 0.3, 0.4}, cp.scf.rho};
  cp.scf.hist_res = {{-1e-3, 2e-4, 1.0 / 3.0, 5e-17}};
  cp.scf.residual_history = {0.5, 0.05, 0.005};
  ks::ScfState::KSubspace sub;
  for (int i = 0; i < 16; ++i) sub.coeffs.push_back(std::sin(0.7 * i) * std::pow(10.0, i - 8));
  sub.eigenvalues = {-0.5, 0.25};
  cp.scf.kpoints.push_back(sub);
  cp.scf.kpoints.push_back(std::move(sub));
  return cp;
}

TEST(SvcCheckpoint, EmitParseReEmitIsByteIdentical) {
  const svc::Checkpoint cp = sample_checkpoint();
  const std::string first = svc::checkpoint_json(cp);
  svc::Checkpoint parsed;
  ASSERT_TRUE(svc::parse_checkpoint(first, parsed));
  EXPECT_EQ(svc::checkpoint_json(parsed), first);
  // And the parsed doubles are bitwise-equal to the originals.
  ASSERT_EQ(parsed.scf.rho.size(), cp.scf.rho.size());
  for (std::size_t i = 0; i < cp.scf.rho.size(); ++i)
    EXPECT_EQ(parsed.scf.rho[i], cp.scf.rho[i]);
  ASSERT_EQ(parsed.scf.kpoints.size(), 2u);
  for (std::size_t i = 0; i < cp.scf.kpoints[0].coeffs.size(); ++i)
    EXPECT_EQ(parsed.scf.kpoints[0].coeffs[i], cp.scf.kpoints[0].coeffs[i]);
  EXPECT_TRUE(parsed.scf.complex_scalars);
  EXPECT_EQ(parsed.scf.iterations, 3);
}

TEST(SvcCheckpoint, ParseRejectsWrongSchemaAndGarbage) {
  svc::Checkpoint out;
  EXPECT_FALSE(svc::parse_checkpoint("{}", out));
  EXPECT_FALSE(svc::parse_checkpoint("{\"schema\":\"dftfe.runreport.v1\"}", out));
  EXPECT_FALSE(svc::parse_checkpoint("not json", out));
  EXPECT_FALSE(svc::parse_checkpoint(
      "{\"schema\":\"dftfe.checkpoint.v1\",\"label\":\"x\"}", out));  // missing scf

  // A vector element that is not a number fails the parse (the job then
  // starts fresh) instead of resuming as 0.
  const std::string good = svc::checkpoint_json(sample_checkpoint());
  ASSERT_TRUE(svc::parse_checkpoint(good, out));
  auto insert_after = [&good](const std::string& key, const std::string& text) {
    std::string doc = good;
    const std::size_t at = doc.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    return doc.insert(at + key.size(), text);
  };
  svc::Checkpoint nonfinite = sample_checkpoint();
  nonfinite.scf.rho[1] = std::nan("");
  const std::string null_rho = svc::checkpoint_json(nonfinite);
  EXPECT_NE(null_rho.find("null"), std::string::npos);  // non-finite is written as null
  EXPECT_FALSE(svc::parse_checkpoint(null_rho, out));
  EXPECT_FALSE(svc::parse_checkpoint(insert_after("\"phi\":[", "\"x\","), out));
  EXPECT_FALSE(svc::parse_checkpoint(insert_after("\"hist_rho\":[[", "{\"v\":1},"), out));
}

TEST(SvcCheckpoint, WriteIsAtomicAndReadsBack) {
  const std::string dir = ::testing::TempDir() + "svc_ckpt_test";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/job.ckpt.json";
  const svc::Checkpoint cp = sample_checkpoint();
  ASSERT_TRUE(svc::write_checkpoint(path, cp));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // renamed, not left behind
  auto back = svc::read_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->label, "sample");
  EXPECT_EQ(svc::checkpoint_json(*back), svc::checkpoint_json(cp));
  EXPECT_FALSE(svc::read_checkpoint(dir + "/missing.ckpt.json").has_value());
}

// ---------------------------------------------------------------------------
// SharedModel semantics
// ---------------------------------------------------------------------------

TEST(SharedModel, NucleiForRejectsBoxAndPeriodicityMismatch) {
  core::SharedModel model(family_parent(), fast_model_options());
  atoms::Structure bad_box = family_parent();
  bad_box.box[1] = 8.0;
  EXPECT_THROW(model.nuclei_for(bad_box), std::invalid_argument);
  atoms::Structure bad_periodic = family_parent();
  bad_periodic.periodic[2] = false;
  EXPECT_THROW(model.nuclei_for(bad_periodic), std::invalid_argument);
  auto [nuclei, nelectrons] = model.nuclei_for(family_sibling(1));
  EXPECT_EQ(nuclei.size(), 2u);
  EXPECT_DOUBLE_EQ(nelectrons, model.n_electrons());
}

TEST(SharedModel, JobStateRequiresModel) {
  EXPECT_THROW(core::JobState(nullptr, core::JobOptions{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end service guarantees
// ---------------------------------------------------------------------------

TEST(SvcService, ConcurrentJobsMatchSequentialWithOneSharedModel) {
  constexpr int kJobs = 4;

  // Sequential reference: plain Simulation per sweep point (each builds its
  // own private model — the baseline the service amortizes away).
  std::vector<double> sequential(kJobs);
  std::vector<int> seq_iters(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    core::Simulation sim(family_sibling(j), fast_sim_options());
    const auto res = sim.run();
    sequential[j] = res.energy;
    seq_iters[j] = res.scf.iterations;
  }

  // Service: one SharedModel, four concurrent tenants.
  auto model = std::make_shared<const core::SharedModel>(family_parent(), fast_model_options());
  const std::int64_t builds_before = core::SharedModel::built_count();
  svc::ServiceOptions sopt;
  sopt.workers = kJobs;
  svc::JobService service(model, sopt);
  for (int j = 0; j < kJobs; ++j) {
    core::JobOptions job;
    job.name = "tenant_" + std::to_string(j);
    job.structure = family_sibling(j);
    job.scf = fast_scf_options();
    EXPECT_TRUE(service.submit(std::move(job)));
  }
  const auto outcomes = service.drain();

  // The whole service phase constructed zero additional models.
  EXPECT_EQ(core::SharedModel::built_count() - builds_before, 0);
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kJobs));
  for (int j = 0; j < kJobs; ++j) {
    ASSERT_TRUE(outcomes[j].ok) << outcomes[j].error;
    EXPECT_EQ(outcomes[j].name, "tenant_" + std::to_string(j));  // submission order
    EXPECT_NEAR(outcomes[j].result.energy, sequential[j], 1e-10);
    EXPECT_EQ(outcomes[j].result.scf.iterations, seq_iters[j]);
  }
  EXPECT_FALSE(service.submit(core::JobOptions{}));  // drained service rejects
}

TEST(SvcService, KilledJobResumesFromCheckpointToSameEnergy) {
  const std::string base = ::testing::TempDir() + "svc_resume_test";
  std::filesystem::remove_all(base);
  auto model = std::make_shared<const core::SharedModel>(family_parent(), fast_model_options());

  auto make_job = [&] {
    core::JobOptions job;
    job.name = "resume_me";
    job.structure = family_sibling(2);
    job.scf = fast_scf_options();
    return job;
  };

  // Uninterrupted reference (checkpointing on, like the real deployment).
  double clean_energy = 0.0;
  int clean_iters = 0;
  {
    svc::ServiceOptions sopt;
    sopt.workers = 1;
    sopt.checkpoint_dir = base + "/clean";
    svc::JobService service(model, sopt);
    service.submit(make_job());
    const auto outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    clean_energy = outcomes[0].result.energy;
    clean_iters = outcomes[0].result.scf.iterations;
  }

  // Simulated kill: the user hook throws after iteration 2 — the service's
  // checkpoint hook has already written the iteration-2 artifact.
  const std::string dir = base + "/killed";
  {
    svc::ServiceOptions sopt;
    sopt.workers = 1;
    sopt.checkpoint_dir = dir;
    svc::JobService service(model, sopt);
    auto job = make_job();
    job.on_iteration = [](core::JobState&, int done) {
      if (done >= 2) throw std::runtime_error("simulated kill");
    };
    service.submit(std::move(job));
    const auto outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("simulated kill"), std::string::npos);
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/resume_me.ckpt.json"));

  // Restart in the same checkpoint dir: the job resumes at iteration 2 and
  // converges to the identical energy in the remaining iterations.
  {
    svc::ServiceOptions sopt;
    sopt.workers = 1;
    sopt.checkpoint_dir = dir;
    svc::JobService service(model, sopt);
    service.submit(make_job());
    const auto outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].resumed_from, 2);
    EXPECT_NEAR(outcomes[0].result.energy, clean_energy, 1e-10);
    EXPECT_EQ(outcomes[0].result.scf.iterations, clean_iters);
  }
}

TEST(SvcService, ConcurrentJobsEmitDistinctWellFormedReports) {
  const std::string dir = ::testing::TempDir() + "svc_reports_test";
  std::filesystem::remove_all(dir);
  auto model = std::make_shared<const core::SharedModel>(family_parent(), fast_model_options());
  svc::ServiceOptions sopt;
  sopt.workers = 2;
  sopt.report_dir = dir;
  svc::JobService service(model, sopt);
  for (int j = 0; j < 2; ++j) {
    core::JobOptions job;
    job.name = "reporter_" + std::to_string(j);
    job.structure = family_sibling(j);
    job.scf = fast_scf_options();
    service.submit(std::move(job));
  }
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  for (int j = 0; j < 2; ++j) {
    ASSERT_TRUE(outcomes[j].ok) << outcomes[j].error;
    const std::string path = dir + "/reporter_" + std::to_string(j) + ".report.json";
    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << "missing report artifact " << path;
    std::ostringstream buf;
    buf << f.rdbuf();
    obs::RunReport report;
    ASSERT_TRUE(obs::parse_run_report(buf.str(), report)) << "malformed report " << path;
    EXPECT_EQ(report.label, "reporter_" + std::to_string(j));
    // Per-job scoping: each report carries its own job's convergence record,
    // not an interleaving of both tenants.
    EXPECT_EQ(report.convergence.iterations, outcomes[j].result.scf.iterations);
    EXPECT_GT(report.wall_s, 0.0);
  }
}

}  // namespace
}  // namespace dftfe
