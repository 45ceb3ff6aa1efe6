// Cold control plane of the threaded rank engine: lane construction (each
// lane's rows from its cells, field slices, the sorted list of every lane's
// row of every dof and what it gives: mailbox wiring, packet and owned run
// lists, the interface and interior cell operators), run_lanes and the job
// broadcast protocol under it, failure cascade/reset, the tree allreduce of
// the gram partials, and each stage: its input checks and the body it hands
// its lanes. The per-step data plane those bodies call lives inline in
// engine.hpp so the invariant linter's no-allocation rule covers it.

#include "dd/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace dftfe::dd {

namespace {

/// Append [dst, dst+len) <- [src, src+len) to a run list, merging with the
/// previous run when both sides advance contiguously. Cold path only.
template <class RunT>
void push_run(std::vector<RunT>& runs, index_t dst, index_t src, index_t len) {
  if (len <= 0) return;
  if (!runs.empty() && runs.back().dst + runs.back().len == dst &&
      runs.back().src + runs.back().len == src) {
    runs.back().len += len;
    return;
  }
  runs.push_back({dst, src, len});
}

}  // namespace

template <class T>
RankEngine<T>::RankEngine(const fe::DofHandler& dofh, const BackendOptions& opt, Operator op,
                          std::array<double, 3> kpoint)
    : dofh_(&dofh),
      opt_(opt),
      op_(op),
      part_(BrickPartition::cell_aligned(dofh, opt.grid != std::array<int, 3>{0, 0, 0}
                                                   ? opt.grid
                                                   : BrickPartition::factorize(dofh, opt.nlanes))) {
  build_lanes(kpoint);
  start_lanes();
}

template <class T>
RankEngine<T>::~RankEngine() {
  {
    sched::LockGuard lk(mu_);
    job_ = LaneJob{};
    ++job_seq_;
  }
  cv_job_.notify_all();
  for (auto& ln : lanes_)
    if (ln->th.joinable()) ln->th.join();
}

template <class T>
void RankEngine<T>::build_lanes(const std::array<double, 3>& kpoint) {
  const int R = part_.nranks();
  const auto& mass = dofh_->mass();
  const auto& bmask = dofh_->boundary_mask();
  const auto& kdiag = dofh_->laplacian_diagonal();
  reduce_.init(R);

  std::vector<std::vector<index_t>> cells(static_cast<std::size_t>(R));
  std::vector<index_t> dofs, held;
  lanes_.resize(R);
  for (int r = 0; r < R; ++r) {
    lanes_[r] = std::make_unique<Lane>();
    Lane& ln = *lanes_[r];
    ln.rank = r;
    const std::string comm_prefix = "comm.lane" + std::to_string(r);
    ln.metric_bytes = comm_prefix + ".bytes";
    ln.metric_messages = comm_prefix + ".messages";
    ln.metric_wait = comm_prefix + ".exposed_wait_s";
    ln.metric_highwater = "mem.lane" + std::to_string(r) + ".highwater_bytes";

    // The lane's rows: the sorted global dofs of its cells, one row per dof.
    cells[r] = part_.cells(r);
    held.clear();
    for (const index_t c : cells[r]) {
      dofh_->cell_dofs(c, dofs);
      held.insert(held.end(), dofs.begin(), dofs.end());
    }
    std::sort(held.begin(), held.end());
    ln.gmap.assign(held.begin(), std::unique(held.begin(), held.end()));
    ln.nloc = static_cast<index_t>(ln.gmap.size());

    // Gather runs (maximal both-sides-contiguous row ranges). For slab-shaped
    // lanes these collapse to a handful of whole-plane-range runs.
    for (index_t l = 0; l < ln.nloc; ++l)
      push_run(ln.gather_runs, l, ln.gmap[static_cast<std::size_t>(l)], 1);

    // Slices of the global nodal fields: a lane holds only some cells of a
    // shared dof, so its own assembly would be wrong there.
    ln.ims.resize(static_cast<std::size_t>(ln.nloc));
    ln.bmask.resize(static_cast<std::size_t>(ln.nloc));
    ln.veff.assign(static_cast<std::size_t>(ln.nloc), 0.0);
    for (index_t l = 0; l < ln.nloc; ++l) {
      const index_t g = ln.gmap[static_cast<std::size_t>(l)];
      ln.ims[static_cast<std::size_t>(l)] = 1.0 / std::sqrt(mass[g]);
      ln.bmask[static_cast<std::size_t>(l)] = bmask[g];
    }
    // The Jacobi preconditioner of the pcg job (bare-stiffness engines).
    if (op_ == Operator::stiffness) {
      ln.kdiag.resize(static_cast<std::size_t>(ln.nloc));
      for (index_t l = 0; l < ln.nloc; ++l)
        ln.kdiag[static_cast<std::size_t>(l)] = kdiag[ln.gmap[static_cast<std::size_t>(l)]];
    }
  }

  // Every lane's row of every global dof, sorted by dof, then lane (rows are
  // listed in lane order; the sort is stable). A dof held by more than one
  // lane is shared: each ordered pair of its lanes is one packet value,
  // read from the sender's row and added into the receiver's at the same
  // packet offset on both ends, so the two agree on a packet dof by dof.
  struct Holder {
    index_t g;
    int lane;
    index_t row;
  };
  std::vector<Holder> holders;
  for (const auto& lp : lanes_)
    for (index_t l = 0; l < lp->nloc; ++l)
      holders.push_back({lp->gmap[static_cast<std::size_t>(l)], lp->rank, l});
  std::stable_sort(holders.begin(), holders.end(),
                   [](const Holder& x, const Holder& y) { return x.g < y.g; });
  const auto pair = [R](int a, int b) { return static_cast<std::size_t>(a) * R + b; };
  const auto packet_end = [](const std::vector<Run>& runs) {
    return runs.empty() ? index_t{0} : runs.back().dst + runs.back().len;
  };
  std::vector<Neighbor> nbs(pair(R, 0));  // nbs[pair(a, b)]: lane a's view of lane b
  std::vector<char> shared(static_cast<std::size_t>(dofh_->ndofs()), 0);
  for (std::size_t i0 = 0, i1 = 0; i0 < holders.size(); i0 = i1) {
    while (i1 < holders.size() && holders[i1].g == holders[i0].g) ++i1;
    // The highest-rank lane holding the dof owns it.
    const Holder& own = holders[i1 - 1];
    Lane& owner = *lanes_[static_cast<std::size_t>(own.lane)];
    push_run(owner.owned_runs, own.g, own.row, 1);
    ++owner.nown;
    shared[static_cast<std::size_t>(own.g)] = i1 - i0 > 1;
    for (std::size_t s = i0; s < i1; ++s)
      for (std::size_t d = i0; d < i1; ++d) {
        if (d == s) continue;
        Neighbor& out = nbs[pair(holders[s].lane, holders[d].lane)];
        if (out.send == nullptr) {  // one mailbox per (sender, receiver) pair
          channels_.push_back(std::make_unique<HaloChannel<T>>());
          out.send = nbs[pair(holders[d].lane, holders[s].lane)].recv = channels_.back().get();
        }
        push_run(out.runs, packet_end(out.runs), holders[s].row, 1);
      }
  }

  const double coef_lap = op_ == Operator::hamiltonian ? 0.5 : 1.0;
  for (int r = 0; r < R; ++r) {
    Lane& ln = *lanes_[r];
    for (int q = 0; q < R; ++q) {  // peers in rank order
      Neighbor& nb = nbs[pair(r, q)];
      if (nb.send == nullptr) continue;
      nb.count = packet_end(nb.runs);
      ln.nb.push_back(std::move(nb));
    }

    // Epilogue row ranges, merged: interior rows (no shared dof) can be
    // epilogued before the async receives land; shell rows wait for every
    // peer's partial.
    for (index_t l = 0; l < ln.nloc; ++l) {
      const bool on_shell = shared[static_cast<std::size_t>(ln.gmap[static_cast<std::size_t>(l)])];
      auto& rows = on_shell ? ln.shell_rows : ln.interior_rows;
      if (!rows.empty() && rows.back().second == l)
        ++rows.back().second;
      else
        rows.emplace_back(l, l + 1);
    }

    // The interface cells (those with a shared dof) and the rest form one
    // operator each, on the lane's rows.
    std::vector<index_t> iface_cells, inner_cells;
    for (const index_t cell : cells[r]) {
      dofh_->cell_dofs(cell, dofs);
      const bool on_iface = std::any_of(dofs.begin(), dofs.end(), [&](index_t g) {
        return shared[static_cast<std::size_t>(g)] != 0;
      });
      (on_iface ? iface_cells : inner_cells).push_back(cell);
    }
    ln.iface_op = std::make_unique<fe::CellStiffness<T>>(*dofh_, iface_cells, coef_lap, kpoint,
                                                         ln.gmap);
    ln.inner_op = std::make_unique<fe::CellStiffness<T>>(*dofh_, inner_cells, coef_lap, kpoint,
                                                         ln.gmap);
  }
}

template <class T>
void RankEngine<T>::start_lanes() {
  // Lanes adopt the spawning thread's observability scope: under the svc
  // layer each job runs inside its own obs::JobScope, and the lane-side
  // spans/metrics (CF-lane, comm.lane.*) must land in that job's registries
  // rather than the process-wide ones. With no scope installed the token is
  // null and adoption is a no-op.
  const obs::JobScope::Token scope = obs::JobScope::current();
  for (int r = 0; r < static_cast<int>(lanes_.size()); ++r)
    lanes_[r]->th = std::thread([this, r, scope] {
      obs::JobScope::Adopt adopt(scope);
      lane_main(r);
    });
}

template <class T>
void RankEngine<T>::lane_main(int r) {
#ifdef _OPENMP
  // The cell kernels' inner `omp parallel for` must not spawn a team per
  // lane: lane-level concurrency replaces OpenMP scaling inside the engine.
  // num_threads is a per-thread ICV, so this pins only this lane.
  omp_set_num_threads(1);
#endif
  Lane& ln = *lanes_[r];
  std::uint64_t seen = 0;
  for (;;) {
    LaneJob job;
    {
      sched::UniqueLock lk(mu_);
      cv_job_.wait(lk, [&] { return job_seq_ != seen; });
      seen = job_seq_;
      job = job_;
    }
    if (job.run == nullptr) return;
    try {
      ln.job_drift = {};
      job.run(job.body, ln);
      if (opt_.drift_budget > 0.0) {
        // Hard-fail the job when the relative L2 drift of this job's demoted
        // wire values exceeds the budget. `!(x <= b)` also trips on NaN — a
        // poisoned wire (a NaN value, or one that overflows the wire) must
        // not pass silently. The throw rides the failure cascade below; a
        // failed job's drift never reaches the ledger.
        const double worst = worst_drift(ln.job_drift);
        if (!(worst <= opt_.drift_budget))
          throw std::runtime_error(std::string("dd::RankEngine lane ") + std::to_string(r) +
                                   ": wire demotion drift " + std::to_string(worst) +
                                   " exceeds drift_budget " +
                                   std::to_string(opt_.drift_budget) + " in job '" + job.name +
                                   "'");
      }
      for (std::size_t w = 0; w < ln.job_drift.size(); ++w) {
        ln.comm.lines[w].drift_num += ln.job_drift[w].drift_num;
        ln.comm.lines[w].drift_den += ln.job_drift[w].drift_den;
      }
    } catch (...) {
      {
        sched::LockGuard lk(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      // Poison this lane's mailboxes and the reduction barrier so lanes
      // blocked on us unblock and fail too — the failure cascades
      // lane-to-lane instead of deadlocking, and every lane still checks in
      // below.
      close_lane_channels(ln);
      reduce_.close();
    }
    {
      sched::LockGuard lk(mu_);
      if (++done_count_ == static_cast<int>(lanes_.size())) cv_done_.notify_all();
    }
  }
}

template <class T>
void RankEngine<T>::close_lane_channels(Lane& ln) {
  for (Neighbor& nb : ln.nb) {
    nb.send->close();
    nb.recv->close();
  }
}

template <class T>
template <class Body>
void RankEngine<T>::run_lanes(const char* name, index_t wire_cols, int nsteps,
                              const Body& body) {
  // Each channel is sized for exactly the dofs its two lanes share.
  if (wire_cols > 0)
    for (auto& lp : lanes_)
      for (Neighbor& nb : lp->nb) nb.send->init(opt_.wire, nb.count * wire_cols);
  for (auto& lp : lanes_)
    if (lp->steps.size() < static_cast<std::size_t>(nsteps))
      lp->steps.resize(static_cast<std::size_t>(nsteps));
  submit({name, &body, [](const void* b, Lane& ln) { (*static_cast<const Body*>(b))(ln); }});
  step_stats_.assign(static_cast<std::size_t>(nsteps), EngineStepStats{});
  for (std::size_t k = 0; k < step_stats_.size(); ++k) {
    EngineStepStats& st = step_stats_[k];
    for (auto& lp : lanes_) {
      st.compute = std::max(st.compute, lp->steps[k].compute);
      st.wait = std::max(st.wait, lp->steps[k].wait);
      st.modeled = std::max(st.modeled, lp->steps[k].modeled);
    }
  }
  publish_job_metrics(nsteps);
}

template <class T>
void RankEngine<T>::submit(const LaneJob& job) {
  sched::UniqueLock lk(mu_);
  if (job_active_) {
    // A second submit while a job is in flight would overwrite job_ and
    // done_count_ under the lanes, turning into a silent mailbox deadlock.
    // Fail loudly instead, naming both jobs; the in-flight job is untouched.
    throw std::logic_error(std::string("dd::RankEngine::submit: job '") + job.name +
                           "' submitted while job '" + job_.name +
                           "' is in flight (public entry points must be called "
                           "from one driver thread at a time)");
  }
  job_active_ = true;
  job_ = job;
  done_count_ = 0;
  first_error_ = nullptr;
  ++job_seq_;
  cv_job_.notify_all();
  cv_done_.wait(lk, [&] { return done_count_ == static_cast<int>(lanes_.size()); });
  job_active_ = false;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    // All lanes are parked again; clear poisoned/in-flight mailbox and
    // barrier state so the engine is usable for the next job.
    for (auto& ch : channels_) ch->reset();
    reduce_.reset();
    std::rethrow_exception(e);
  }
}

template <class T>
void RankEngine<T>::publish_job_metrics(int nsteps) {
  obs::MetricsRegistry& m = obs::MetricsRegistry::global();
  CommStats job, total;  // this job's traffic, and all traffic since the last clear
  double exposed = 0.0;
  for (auto& lp : lanes_) {
    Lane& ln = *lp;
    const CommStats d = ln.comm.since(ln.comm_pub);
    job += d;
    total += ln.comm;
    double wait = 0.0;
    for (int k = 0; k < nsteps; ++k) wait += ln.steps[static_cast<std::size_t>(k)].wait;
    exposed += wait;
    m.counter_add(ln.metric_bytes, static_cast<double>(d.bytes()));
    m.counter_add(ln.metric_messages, static_cast<double>(d.messages));
    m.counter_add(ln.metric_wait, wait);
    // Lane working-set high water: every persistent WorkMatrix the lane owns,
    // and the gather/scatter chunks of its two cell operators.
    std::int64_t hw = ln.sl.highwater_bytes() + ln.xb.highwater_bytes() +
                      ln.yb.highwater_bytes() + ln.zb.highwater_bytes() +
                      ln.ga.highwater_bytes() + ln.gb.highwater_bytes() +
                      ln.gram.highwater_bytes() + ln.cg.highwater_bytes();
    hw += ln.iface_op->scratch_highwater_bytes() + ln.inner_op->scratch_highwater_bytes();
    m.gauge_set(ln.metric_highwater, static_cast<double>(hw));
    ln.comm_pub = ln.comm;
  }
  bool drifted = false;
  for (std::size_t w = 0; w < kWireNames.size(); ++w) {
    const WireNames& names = kWireNames[w];
    m.counter_add(names.bytes, static_cast<double>(job.lines[w].bytes));
    m.counter_add(names.messages, static_cast<double>(job.lines[w].messages));
    // Drift gauges are cumulative: the RMS over every value packed so far.
    if (names.drift_rms != nullptr && total.lines[w].drift_den > 0.0) {
      m.gauge_set(names.drift_rms, total.lines[w].drift_rms());
      drifted = true;
    }
  }
  m.counter_add("comm.halo.exposed_wait_s", exposed);
  m.counter_add("comm.halo.modeled_s", job.modeled_seconds);
  m.counter_add("comm.halo.pack_s", job.pack_seconds);
  // Fraction of the configured error budget consumed by the worst cumulative
  // per-format drift (>= 1.0 would mean a job already hard-failed).
  if (opt_.drift_budget > 0.0 && drifted)
    m.gauge_set("comm.wire.drift_budget_used", total.worst_drift() / opt_.drift_budget);
}

template <class T>
void RankEngine<T>::set_potential(const std::vector<double>& v_eff) {
  if (op_ == Operator::stiffness) return;  // the bare stiffness has no potential term
  if (static_cast<index_t>(v_eff.size()) < dofh_->ndofs())
    throw std::invalid_argument("RankEngine::set_potential: field too short");
  for (auto& lp : lanes_) {
    Lane& ln = *lp;
    for (index_t l = 0; l < ln.nloc; ++l)
      ln.veff[static_cast<std::size_t>(l)] = v_eff[ln.gmap[static_cast<std::size_t>(l)]];
  }
}

template <class T>
void RankEngine<T>::apply(const la::Matrix<T>& X, la::Matrix<T>& Y) {
  if (X.rows() != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::apply: row count mismatch");
  const index_t B = X.cols();
  Y.reshape(X.rows(), B);
  if (B == 0) return;  // nothing to apply (and a wire width of 0 sizes nothing)
  run_lanes("apply", B, 1, [&](Lane& ln) {
    obs::TraceSpan span("Engine-apply", "dd", ln.rank);
    la::Matrix<T>& Xl = ln.xb.acquire(ln.nloc, B);
    gather_block(ln, X, 0, B, Xl);
    la::Matrix<T>& Yl = ln.yb.acquire(ln.nloc, B);
    ln.steps[0] = lane_fused_step(ln, Xl, Yl, nullptr, 0.0, 1.0, 0.0);
    scatter_owned(ln, Yl, Y, 0, B);
  });
}

template <class T>
void RankEngine<T>::filter_block(la::Matrix<T>& X, index_t col0, index_t ncols,
                                 int degree, double a, double b, double a0) {
  if (op_ != Operator::hamiltonian)
    throw std::logic_error(
        "RankEngine::filter_block: needs a Hamiltonian engine (dd::Operator::hamiltonian)");
  if (X.rows() != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::filter_block: row count mismatch");
  if (col0 < 0 || ncols < 1 || col0 + ncols > X.cols())
    throw std::invalid_argument("RankEngine::filter_block: bad column range");
  if (degree < 1) throw std::invalid_argument("RankEngine::filter_block: degree >= 1");
  run_lanes("filter", ncols, degree,
            [&](Lane& ln) { lane_filter(ln, X, col0, ncols, degree, a, b, a0); });
}

template <class T>
void RankEngine<T>::overlap(const la::Matrix<T>& A, const la::Matrix<T>& B,
                            la::Matrix<T>& S, index_t mp_block, bool mixed) {
  if (A.rows() != dofh_->ndofs() || B.rows() != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::overlap: row count mismatch");
  if (A.cols() != B.cols())
    throw std::invalid_argument("RankEngine::overlap: column count mismatch");
  run_lanes("gram", 0, 1, [&](Lane& ln) { lane_gram(ln, A, B, mp_block, mixed); });
  const index_t N = A.cols();
  // Tree allreduce of the brick partials through tree_reduce
  // (dd/allreduce.hpp). Lanes are parked, so the driver may sum their gram
  // buffers in place; lane 0's buffer ends up holding the total.
  {
    obs::TraceSpan span("Gram-tree", "dd", 0);
    tree_reduce(nlanes(), [&](int acc, int part) {
      T* s = lanes_[static_cast<std::size_t>(acc)]->gram.get().data();
      const T* g = lanes_[static_cast<std::size_t>(part)]->gram.get().data();
      for (index_t i = 0; i < N * N; ++i) s[i] += g[i];
    });
  }
  S.reshape(N, N);
  {
    const la::Matrix<T>& G0 = lanes_[0]->gram.get();
    std::copy(G0.data(), G0.data() + N * N, S.data());
  }
  la::overlap_hermitian_complete(S, mp_block);
}

template <class T>
void RankEngine<T>::accumulate_density(const la::Matrix<T>& X,
                                       const std::vector<double>& occ, double weight,
                                       std::vector<double>& rho) {
  if (X.rows() != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::accumulate_density: row count mismatch");
  if (static_cast<index_t>(occ.size()) < X.cols())
    throw std::invalid_argument("RankEngine::accumulate_density: occupations too short");
  if (static_cast<index_t>(rho.size()) != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::accumulate_density: rho size mismatch");
  // Each lane runs the serial DC row loop over its owned (disjoint) rows of
  // the global density, so the threaded density is bitwise the serial one.
  run_lanes("density", 0, 1, [&](Lane& ln) {
    obs::TraceSpan span("DC-lane", "dd", ln.rank);
    Timer tstep;
    for (const Run& rn : ln.owned_runs)
      density_rows(X, occ.data(), weight, dofh_->mass().data(), rho.data(), rn.dst,
                   rn.dst + rn.len);
    ln.steps[0] = {tstep.seconds(), 0.0, 0.0};
  });
}

template <class T>
la::SolveReport RankEngine<T>::pcg(const std::vector<T>& b, std::vector<T>& x, double tol,
                                   int maxit) {
  if (op_ != Operator::stiffness)
    throw std::logic_error(
        "RankEngine::pcg: needs a bare-stiffness engine (dd::Operator::stiffness)");
  const index_t n = dofh_->ndofs();
  if (static_cast<index_t>(b.size()) != n || static_cast<index_t>(x.size()) != n)
    throw std::invalid_argument("RankEngine::pcg: vector length != ndofs");
  for (const index_t i : dofh_->boundary_dofs())
    if (b[static_cast<std::size_t>(i)] != T{})
      throw std::invalid_argument("RankEngine::pcg: b must vanish on the Dirichlet rows");
  const int fault_lane = pcg_fault_lane_, fault_iter = pcg_fault_iter_;
  pcg_fault_lane_ = pcg_fault_iter_ = -1;
  // Each lane gathers its rows of b and x, runs la::pcg over its local rows
  // (owned + ghost) with the lane policy, and scatters its owned rows of x.
  run_lanes("pcg", 1, 1, [&](Lane& ln) {
    obs::TraceSpan span("EP-lane", "dd", ln.rank);
    const index_t nl = ln.nloc;
    la::Matrix<T>& V = ln.cg.acquire(nl, 4);
    gather_rows(ln, b.data(), V.col(0));
    gather_rows(ln, x.data(), V.col(1));
    ln.steps[0] = EngineStepStats{};
    LaneCg pol{*this, ln, fault_lane, fault_iter};
    ln.pcg_rep = la::pcg(pol, ln.kdiag.data(), V.col(0), V.col(1), V.col(2), V.col(3),
                         ln.xb.acquire(nl, 1), ln.yb.acquire(nl, 1), tol, maxit);
    scatter_rows(ln, V.col(1), x.data());
  });
  // Every lane exits on the same bitwise-identical reduced residual; a
  // disagreement would mean the reduction plane is broken.
  const la::SolveReport rep = lanes_[0]->pcg_rep;
  for (const auto& lp : lanes_)
    if (lp->pcg_rep.iterations != rep.iterations || lp->pcg_rep.residual != rep.residual ||
        lp->pcg_rep.converged != rep.converged)
      throw std::logic_error("RankEngine::pcg: lanes left the solve at different iterations");
  return rep;
}

template <class T>
CommStats RankEngine<T>::comm_stats() const {
  CommStats total;
  for (const auto& ln : lanes_) total += ln->comm;
  return total;
}

template <class T>
void RankEngine<T>::clear_comm_stats() {
  for (auto& ln : lanes_) {
    ln->comm = CommStats{};
    // Keep the registry deltas exact across the reset.
    ln->comm_pub = CommStats{};
  }
}

template <class T>
void RankEngine<T>::debug_fault(int lane) {
  if (lane < 0 || lane >= nlanes())
    throw std::invalid_argument("RankEngine::debug_fault: bad lane");
  // A minimal halo round: every lane but `lane` posts to and receives from
  // each peer once, in rank order.
  run_lanes("debug_fault", 1, 1, [&](Lane& ln) {
    if (ln.rank == lane) throw std::runtime_error("dd::RankEngine: injected lane fault");
    la::Matrix<T>& Yl = ln.yb.acquire_zeroed(ln.nloc, 1);
    for (Neighbor& nb : ln.nb) post_halo(ln, nb, Yl);
    for (Neighbor& nb : ln.nb) recv_halo(ln, nb, Yl);
  });
}

template <class T>
void RankEngine<T>::debug_fault_pcg(int lane, int iteration) {
  if (lane < 0 || lane >= nlanes() || iteration < 0)
    throw std::invalid_argument("RankEngine::debug_fault_pcg: bad lane or iteration");
  pcg_fault_lane_ = lane;
  pcg_fault_iter_ = iteration;
}

template class RankEngine<double>;
template class RankEngine<complex_t>;

}  // namespace dftfe::dd
