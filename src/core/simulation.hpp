#pragma once

// dftfe::core::Simulation — the top-level single-run API of the library
// (DFT-FE-MLXC): atomic structure in, converged ground state out.
//
//   atoms::Structure st = atoms::make_hcp(...);
//   core::SimulationOptions opt;
//   opt.functional = "MLXC";
//   core::Simulation sim(std::move(st), opt);
//   auto result = sim.run();
//
// Simulation is a convenience facade over the split that the multi-tenant
// layers build on: an immutable core::SharedModel (mesh, DofHandler,
// smeared nuclei, XC functional — core/model.hpp) plus a mutable
// core::JobState (solver, SCF progress, execution backend — core/job.hpp).
// Constructing a Simulation builds a private model and one job; run()
// dispatches between the real Gamma-point and complex k-point solver paths
// and runs the Chebyshev-filtered SCF. To run many related solves against
// one model, use SharedModel + JobState directly or the svc::JobService.

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/job.hpp"
#include "core/model.hpp"

namespace dftfe::core {

struct SimulationOptions {
  int fe_degree = 4;
  double mesh_size = 2.2;  // target cell size (Bohr)
  double vacuum = 7.0;     // padding on non-periodic axes
  std::string functional = "LDA";  // "LDA" | "PBE" | "MLXC" | "none"
  std::optional<std::string> mlxc_weights;  // load MLXC net from file
  std::vector<ks::KPointSample> kpoints;    // empty -> Gamma point
  /// Valence-charge overrides per species (the examples scale the heavy
  /// Yb/Cd valences down to laptop-runnable electron counts; see DESIGN.md).
  std::map<atoms::Species, double> z_override;
  /// Execution backend for the whole solver stack (eigensolver stages,
  /// density accumulation, the EP-step Poisson CG): serial single-image
  /// or threaded brick-rank lanes.
  dd::BackendOptions backend;
  /// When non-empty, run() writes the RunReport flight-recorder artifact
  /// (schema dftfe.runreport.v1, see obs/report.hpp) to this path. A path
  /// ending in '/' writes "<dir>simulation.report.json".
  std::string report_path;
  ks::ScfOptions scf;

  /// The structure-family half of these options (mesh/functional knobs).
  ModelOptions model() const {
    return {fe_degree, mesh_size, vacuum, functional, mlxc_weights, z_override};
  }
  /// The per-job half (k-points, backend, report, SCF loop knobs).
  JobOptions job() const {
    JobOptions j;
    j.name = "simulation";
    j.kpoints = kpoints;
    j.backend = backend;
    j.report_path = report_path;
    j.scf = scf;
    return j;
  }
};

class Simulation {
 public:
  Simulation(atoms::Structure st, SimulationOptions opt = {})
      : model_(std::make_shared<const SharedModel>(std::move(st), opt.model())),
        job_(std::make_unique<JobState>(model_, opt.job())) {}

  SimulationResult run() { return job_->run(); }

  const atoms::Structure& structure() const { return model_->structure(); }
  const fe::DofHandler& dofs() const { return model_->dofs(); }
  const fe::Mesh& mesh() const { return model_->mesh(); }
  double n_electrons() const { return model_->n_electrons(); }

  /// The immutable half; share with further JobStates or an svc::JobService
  /// to run family siblings against the same mesh and functional.
  const std::shared_ptr<const SharedModel>& model() const { return model_; }
  /// The mutable half (SCF state, checkpoint capture).
  JobState& job() { return *job_; }

  /// Hellmann-Feynman forces on the atoms (after run()).
  std::vector<std::array<double, 3>> forces() { return job_->forces(); }

  /// Gamma-point solver access (after run()); throws on k-point runs.
  ks::KohnShamDFT<double>& gamma_solver() { return job_->gamma_solver(); }
  /// k-point solver access (after run()); throws on Gamma runs.
  ks::KohnShamDFT<complex_t>& kpoint_solver() { return job_->kpoint_solver(); }

 private:
  std::shared_ptr<const SharedModel> model_;
  std::unique_ptr<JobState> job_;
};

}  // namespace dftfe::core
