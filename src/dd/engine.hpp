#pragma once

// Threaded multi-rank brick execution engine — the paper's asynchronous
// compute/communication overlap (Sec. 5.4.2–5.4.3) executed for real instead
// of simulated, and the threaded implementation of the dd::ExecBackend seam
// (dd/backend.hpp): ks/ drives a RankEngine through that interface with no
// wrapper in between. Each rank of a cell-aligned BrickPartition (an
// nx x ny x nz lane grid; a 1 x 1 x N grid is exactly the historical z-slab
// layout) becomes a std::thread "lane" that owns one brick of the operator.
// The partition hands a lane only its cells, and the lane works on the
// engine's one DofHandler:
//
//   * its rows are the sorted global dofs of its cells, one row per dof;
//   * two fe::CellStiffness operators over that DofHandler, each cell's dofs
//     mapped to lane rows: the interface cells (those with a shared dof),
//     applied before the halo posts, and the interior cells, applied after.
//     Both read the lane's scaled block and add straight into its result
//     rows with the cell-level kernels of fe/cell_ops.hpp;
//   * lane-local slices of the global mass / potential / boundary-mask nodal
//     fields (a lane holds only some cells of a shared dof, so its own
//     assembly would be wrong there);
//   * persistent per-lane workspace blocks (la::WorkMatrix), so the steady
//     state of the recurrence allocates nothing after lane startup.
//
// Lanes exchange exactly the dofs they share. build_lanes sorts every lane's
// row of every global dof by (dof, lane); a dof held by more than one lane
// is shared, and each ordered pair of its lanes is one packet value, read
// from the sender's row and added into the receiver's at the same packet
// offset on both ends. The lanes a lane shares dofs with are its peers, kept
// in rank order, with one double-buffered HaloChannel mailbox
// (dd/mailbox.hpp) per (sender, receiver) pair of distinct lanes. The same
// list gives each lane's interface cells and shell rows (the shared ones),
// and the owned rows. The packets carry the *partial sums* of the kinetic
// apply in the exact FP64/FP32/BF16 wire format of dd/exchange.hpp.
// post_halo and recv_halo are one pack and one unpack loop over that
// header's WireCodec, and every lane counts its traffic in one CommStats
// ledger (a line per format). Because cells are partitioned disjointly,
// summing every holding lane's partial assembles each shared dof exactly: a
// dof held by L lanes adds L - 1 received partials on each of them. A
// one-lane engine shares nothing and applies the serial operator. Both
// execution modes run the same arithmetic in the same peer order (rank
// ascending, posts and receives alike) — only the position of the receive
// differs:
//
//   sync  : boundary compute -> post halos -> WAIT -> interior compute
//           -> epilogue                             (exposed wire time)
//   async : boundary compute -> post halos -> interior compute
//           -> interior epilogue -> WAIT -> interface epilogue
//                                                   (wire time hidden)
//
// so sync and async produce bitwise-identical results and their wall-clock
// difference is exactly the measured overlap win (bench_scf_scaling;
// dd/pipeline.hpp's simulate_sync/simulate_overlap now serve as analytic
// bounds on these measured times). The epilogue of a Hamiltonian step is
// fe::ks_nodal_rows, the per-element kernel ks::Hamiltonian runs, called
// once per (column, row range); a filter job runs la::chebyshev_filter, the
// serial backend's recurrence, over the lane's fused step.
//
// Configuration is the backend's: a RankEngine takes the dd::BackendOptions
// (lanes, grid, halo protocol, wire, interconnect model, drift budget) plus
// the operator its lanes apply and the k-point.
//
// Numerics: with the FP64 wire, a dof held by 2 lanes combines as a + b on
// one side and b + a on the other (IEEE addition is commutative), so its
// ghost stays bitwise consistent across lanes; with more lanes holding the
// dof each accumulates the same partials in a different association order,
// so ghosts may differ at the last ulp. The owner's value is canonical: the
// highest-rank lane holding a dof owns it. The engine matches the
// undecomposed reference apply to FP-association order (~1e-15). With the
// FP32 wire each lane holding the dof adds the *other* lanes' demoted
// partials to its own full-precision one, reproducing the asymmetric
// interface rounding of a real distributed run.
//
// Gram reductions (CholGS/RR) combine the per-lane partial Gram blocks with
// a stride-doubling *tree* allreduce (dd::tree_reduce) — log2-depth
// pairwise sums over the lane grid, the association order
// CommModel::allreduce_time charges for — instead of a flat all-to-lane-0
// sum. With more than one lane on a lossy halo wire, a mixed overlap's
// off-diagonal tiles travel the FP32 gram wire, drift budget-checked on the
// lane like a halo value's.
//
// The EP-step Poisson solve runs lane-resident (pcg, bare-stiffness engines
// only): ONE job runs the whole Jacobi-preconditioned CG, so the lanes never
// park between iterations. Each lane gathers its slices of b and x once and
// runs la::pcg, the serial solve's CG, over its local rows with the LaneCg
// policy: the stiffness apply is the same lane_fused_step (halo exchange and
// sync/async schedules unchanged) with the Dirichlet rows masked by the
// lane's bmask slice, and dot products are partial sums over owned rows,
// combined by the in-job lane allreduce of dd/allreduce.hpp — a generation
// barrier over per-lane slots, double-buffered by parity, whose last
// arrival sums the slots through the same tree_reduce as the Gram-tree.
// Every lane therefore holds bitwise-identical alpha, beta and ||r||, takes
// the same exit branch, and cannot strand its peers in a barrier. (r.z, r.r)
// are fused into one reduction, so an iteration costs two barrier rounds
// ("PCG-reduce" spans) plus one halo round; the job ends with each lane
// scattering its owned rows of x. A failing lane poisons the barrier along
// with its mailboxes, so the failure cascades through both planes.
//
// Every stage is its input checks plus one run_lanes call, the one path to
// the lanes: it sizes the wire and the step storage, hands each lane the
// stage's body as a LaneJob (a borrowed pointer and a function-pointer
// trampoline, so a job allocates nothing), checks each lane's wire drift
// against the budget, collects the step stats and publishes the metrics.
//
// Threading contract: lanes pin their OpenMP team to one thread (the GEMM
// kernels' inner `parallel for` would otherwise oversubscribe), so
// lane-level concurrency replaces OpenMP scaling when the engine is active.
// Pick nlanes ≈ physical cores for throughput; the public entry points
// (the ExecBackend stages, pcg, set_mode) must all be called from the one
// thread that owns the engine. A lane failure poisons its mailboxes so every lane (and the
// submitter) unblocks; the first exception is rethrown on the driver thread
// and the engine resets to a usable state.

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/defs.hpp"
#include "base/flops.hpp"
#include "base/timer.hpp"
#include "dd/allreduce.hpp"
#include "dd/backend.hpp"
#include "dd/exchange.hpp"
#include "dd/mailbox.hpp"
#include "dd/partition.hpp"
#include "dd/schedule.hpp"
#include "fe/cell_ops.hpp"
#include "fe/dofs.hpp"
#include "la/iterative.hpp"
#include "la/matrix.hpp"
#include "la/mixed.hpp"
#include "la/workspace.hpp"
#include "obs/trace.hpp"

namespace dftfe::dd {

/// What an engine's lanes apply: the Hamiltonian (the kinetic operator,
/// 1/2 Laplacian, with the mass/potential/boundary epilogue) or the bare
/// Poisson stiffness (the Laplacian), the operator of the pcg job.
enum class Operator { hamiltonian, stiffness };

/// Per-recurrence-step timing, reduced over lanes (max): `compute` excludes
/// halo waits, `wait` is the exposed receive time, `modeled` the interconnect
/// model's transfer time for the step's packets.
struct EngineStepStats {
  double compute = 0.0;
  double wait = 0.0;
  double modeled = 0.0;
};

template <class T>
class RankEngine final : public ExecBackend<T> {
 public:
  /// Lanes, grid, halo protocol, wire, interconnect model and drift budget
  /// come from `opt` (its `kind` is not read). Any grid other than {0, 0, 0}
  /// goes to BrickPartition::cell_aligned as given, otherwise `nlanes` to
  /// BrickPartition::factorize; both reject invalid input.
  RankEngine(const fe::DofHandler& dofh, const BackendOptions& opt,
             Operator op = Operator::hamiltonian,
             std::array<double, 3> kpoint = {0.0, 0.0, 0.0});
  ~RankEngine() override;
  RankEngine(const RankEngine&) = delete;
  RankEngine& operator=(const RankEngine&) = delete;

  const char* name() const override { return "threaded"; }
  int nlanes() const override { return static_cast<int>(lanes_.size()); }
  EngineMode mode() const { return opt_.mode; }
  /// Switch sync/async between jobs (driver thread only).
  void set_mode(EngineMode m) { opt_.mode = m; }

  /// Refresh the lane-local effective-potential slices (no-op on a
  /// bare-stiffness engine, which has no potential).
  void set_potential(const std::vector<double>& v_eff) override;

  /// Y = op(X) across all lanes (op = scaled Hamiltonian or bare stiffness,
  /// per the constructor's Operator). Blocks until every lane finished its
  /// brick.
  void apply(const la::Matrix<T>& X, la::Matrix<T>& Y) override;

  /// Run la::chebyshev_filter on columns [col0, col0+ncols) of X, in place:
  /// each lane executes the full recurrence on its brick, exchanging
  /// interface partial sums through the mailboxes each step. Lanes drift up
  /// to one exchange apart (double buffering) — the cross-block pipelining
  /// the simulator only modeled.
  void filter_block(la::Matrix<T>& X, index_t col0, index_t ncols, int degree, double a,
                    double b, double a0) override;

  /// Hermitian overlap S = A^H B distributed over lanes: each lane evaluates
  /// the upper block triangle of its owned rows (the brick-local partial
  /// Gram matrix, FP32 off-diagonal when `mixed`), the driver combines the
  /// partials with a stride-doubling tree — the deterministic log2-depth
  /// allreduce of a real distributed run — and applies the Hermitian
  /// completion once.
  void overlap(const la::Matrix<T>& A, const la::Matrix<T>& B, la::Matrix<T>& S,
               index_t mp_block, bool mixed) override;

  /// rho[i] += weight * sum_j occ[j] |X(i,j)|^2 / mass[i], distributed over
  /// lanes: each lane accumulates exactly the rows of the global density
  /// vector its brick owns (disjoint ranges — no reduction needed beyond the
  /// shared-memory gather), reproducing the serial DC row arithmetic bitwise.
  void accumulate_density(const la::Matrix<T>& X, const std::vector<double>& occ,
                          double weight, std::vector<double>& rho) override;

  /// Jacobi-preconditioned CG for K x = b on a bare-stiffness engine, as one
  /// lane-resident job (see the header comment): la::pcg with
  /// z = r / laplacian_diagonal and the Dirichlet rows held fixed, i.e.
  /// fe::PoissonSolver::serial_cg up to the association order of the dot
  /// products. x is the initial guess and is overwritten; b must vanish on
  /// the Dirichlet rows.
  la::SolveReport pcg(const std::vector<T>& b, std::vector<T>& x, double tol, int maxit);

  /// The comm ledger summed over all lanes since construction /
  /// clear_comm_stats(): per-format lines plus the logical message count.
  /// Call between jobs.
  CommStats comm_stats() const;
  void clear_comm_stats();

  /// Per-step timings of the most recent job (max over lanes).
  const std::vector<EngineStepStats>& last_step_stats() const { return step_stats_; }

  /// Test hook: run a minimal halo round in which `lane` throws instead of
  /// posting — exercises failure cascade + engine reset. Rethrows the lane's
  /// exception on the calling thread; the engine stays usable afterwards.
  void debug_fault(int lane);

  /// Test hook: make `lane` throw at CG iteration `iteration` of the next
  /// pcg() — a fault in the middle of a lane-resident solve, with peers
  /// blocked in halo receives or the reduction barrier.
  void debug_fault_pcg(int lane, int iteration);

 private:
  /// A maximal row range that is contiguous on both of its sides (lane row /
  /// packet / global indices advance in lockstep). Built cold in engine.cpp;
  /// the hot path only walks the lists.
  struct Run {
    index_t dst = 0;
    index_t src = 0;
    index_t len = 0;
  };
  /// One peer: the lane's mailbox to it and the peer's mailbox back. Both
  /// packets carry the `count` dofs the two lanes share, in dof order, so
  /// one run list serves both directions.
  struct Neighbor {
    HaloChannel<T>* send = nullptr;
    HaloChannel<T>* recv = nullptr;
    index_t count = 0;                 // packet values per column
    std::vector<Run> runs;             // dst: packet offset, src: the lane's row of it
  };
  /// One brick rank. During a job only its own thread touches it, running
  /// the job's body; the engine's owning thread reads it between jobs.
  struct Lane {
    int rank = 0;                      // brick rank (= lane index, trace dim)
    index_t nloc = 0;                  // local rows: one per dof of the lane's cells
    index_t nown = 0;                  // owned rows
    std::vector<index_t> gmap;         // local row -> global dof, ascending
    std::vector<Run> gather_runs;      // dst: lane-local row, src: global row
    std::vector<Run> owned_runs;       // dst: global row, src: lane-local row
    std::vector<double> ims, veff, bmask;  // slices of the global nodal fields
    std::vector<double> kdiag;         // Laplacian diagonal slice (bare stiffness only)
    std::unique_ptr<fe::CellStiffness<T>> iface_op, inner_op;  // interface cells, the rest
    std::vector<Neighbor> nb;          // peers in rank order
    // Epilogue row ranges: interior rows hold no shared dof (safe before the
    // async receives); shell rows are epilogued after every receive.
    std::vector<std::pair<index_t, index_t>> interior_rows, shell_rows;
    la::WorkMatrix<T> sl, xb, yb, zb;  // scaled input + recurrence blocks
    la::WorkMatrix<T> ga, gb;          // gathered owned rows (brick gram)
    la::WorkMatrix<T> gram;            // brick-local partial Gram block (N x N)
    la::WorkMatrix<T> cg;              // pcg vectors b, x, r, z (p, Ap live in xb, yb)
    la::SolveReport pcg_rep;           // this lane's view of the last pcg job
    std::vector<EngineStepStats> steps;  // this job's per-step timings
    CommStats comm;
    // This job's demotion drift on the halo and gram wires, per format:
    // checked against the drift budget when the job ends, then folded into
    // `comm`. The ledger is cumulative, so a check on its deltas would carry
    // one job's NaN into every later job.
    std::array<WireLine, kWires> job_drift{};
    // Snapshot of comm at the last publish_job_metrics call, so the
    // registry counters receive exact per-job deltas.
    CommStats comm_pub;
    // Per-lane registry keys, built once in build_lanes so publishing a
    // job's metrics builds no strings.
    std::string metric_bytes, metric_messages, metric_wait, metric_highwater;
    std::thread th;
  };

  /// One job as the lanes see it: the stage's body, borrowed from the
  /// stage's stack frame for the length of the job, and a plain trampoline
  /// that runs it on one lane. `name` labels the job in the submit-guard and
  /// drift-budget messages; a null `run` stops the lanes.
  struct LaneJob {
    const char* name = nullptr;
    const void* body = nullptr;
    void (*run)(const void* body, Lane& ln) = nullptr;
  };

  // --- cold control plane (engine.cpp) ---------------------------------
  void build_lanes(const std::array<double, 3>& kpoint);
  void start_lanes();
  void lane_main(int r);
  /// Run `body(lane)` on every lane as one job (see the header comment);
  /// `wire_cols` 0 leaves the wire as it is.
  template <class Body>
  void run_lanes(const char* name, index_t wire_cols, int nsteps, const Body& body);
  void submit(const LaneJob& job);
  /// Push this job's comm/memory deltas into MetricsRegistry::global() under
  /// the RunReport ledger vocabulary (driver thread, after the job synced).
  void publish_job_metrics(int nsteps);
  void close_lane_channels(Lane& ln);

  std::int64_t wire_bytes(index_t count, index_t ncols) const {
    return halo_packet_bytes<T>(static_cast<std::int64_t>(count) * ncols, opt_.wire);
  }

  // --- hot data plane (runs on lane threads; allocation-free once warm) --

  /// Pack this lane's partial at the rows it shares with peer `nb` through
  /// the wire codec and publish it, stamped with the modeled transfer time.
  /// A lossy codec's drift accumulates value by value, into the lane's
  /// per-job line the drift budget checks.
  void post_halo(Lane& ln, Neighbor& nb, const la::Matrix<T>& Yl) {
    Timer tp;
    const index_t B = Yl.cols(), C = nb.count;
    const std::int64_t bytes = wire_bytes(C, B);
    const int s = nb.send->begin_post();
    WireLine& line = ln.job_drift[static_cast<std::size_t>(opt_.wire)];
    with_codec<T>(opt_.wire, [&](auto codec) {
      using Codec = decltype(codec);
      constexpr index_t u = Codec::units;
      typename Codec::unit* w = nb.send->template buf<Codec::wire>(s);
      for (index_t j = 0; j < B; ++j) {
        const T* y = Yl.col(j);
        typename Codec::unit* wj = w + j * C * u;
        for (const Run& rn : nb.runs)
          for (index_t i = 0; i < rn.len; ++i) {
            const T x = y[rn.src + i];
            typename Codec::unit* wi = wj + (rn.dst + i) * u;
            Codec::store(x, wi);
            if constexpr (Codec::lossy) {
              line.drift_num += scalar_traits<T>::abs2(x - Codec::load(wi));
              line.drift_den += scalar_traits<T>::abs2(x);
            }
          }
      }
    });
    const double modeled = opt_.model.time(bytes, 1);
    auto ready = HaloChannel<T>::Clock::now();
    if (opt_.inject_wire_delay)
      ready += std::chrono::duration_cast<typename HaloChannel<T>::Clock::duration>(
          std::chrono::duration<double>(modeled));
    nb.send->finish_post(s, ready);
    ln.comm.add(opt_.wire, bytes);
    ln.comm.messages += 1;
    ln.comm.pack_seconds += tp.seconds();
  }

  /// Wait for peer `nb`'s partial at the rows it shares and accumulate it
  /// into Yl. Returns the exposed wait (block + residual wire time); unpack
  /// cost goes to pack_seconds.
  double recv_halo(Lane& ln, Neighbor& nb, la::Matrix<T>& Yl) {
    obs::TraceSpan span("CF-halo", "dd", ln.rank);
    Timer tw;
    const index_t B = Yl.cols(), C = nb.count;
    const int s = nb.recv->wait_packet();
    const double waited = tw.seconds();
    Timer tu;
    const Wire wire = nb.recv->wire();
    with_codec<T>(wire, [&](auto codec) {
      using Codec = decltype(codec);
      constexpr index_t u = Codec::units;
      const typename Codec::unit* w = nb.recv->template cbuf<Codec::wire>(s);
      for (index_t j = 0; j < B; ++j) {
        T* y = Yl.col(j);
        const typename Codec::unit* wj = w + j * C * u;
        for (const Run& rn : nb.runs)
          for (index_t i = 0; i < rn.len; ++i)
            y[rn.src + i] += Codec::load(wj + (rn.dst + i) * u);
      }
    });
    nb.recv->release(s);
    const std::int64_t bytes = wire_bytes(C, B);
    ln.comm.add(wire, bytes);
    ln.comm.messages += 1;
    ln.comm.modeled_seconds += opt_.model.time(bytes, 1);
    ln.comm.pack_seconds += tu.seconds();
    return waited;
  }

  /// The fused epilogue on rows [r0, r1): a Hamiltonian lane runs
  /// fe::ks_nodal_rows on each column (the arithmetic of
  /// ks::Hamiltonian::apply_fused, on the lane's field slices). The bare
  /// stiffness has none: filter_block rejects its engines.
  void epilogue_rows(Lane& ln, const la::Matrix<T>& Xl, la::Matrix<T>& Yl,
                     const la::Matrix<T>* Zl, double c, double scale, double zc,
                     index_t r0, index_t r1) {
    if (op_ != Operator::hamiltonian) return;
    for (index_t j = 0; j < Xl.cols(); ++j)
      fe::ks_nodal_rows<T>(fe::KsNodal::epilogue, ln.ims.data(), ln.veff.data(),
                           ln.bmask.data(), Xl.col(j), Yl.col(j),
                           Zl != nullptr ? Zl->col(j) : nullptr, c, scale, zc, r0, r1);
  }

  /// One fused operator step Yl = scale*(op Xl - c Xl) - zc Zl on the lane's
  /// brick, including the halo exchange of interface partial sums with every
  /// peer. Sync and async modes execute identical arithmetic in the same
  /// peer order; only the receive position differs (see the schedule in the
  /// header comment). Returns the step's timings.
  EngineStepStats lane_fused_step(Lane& ln, const la::Matrix<T>& Xl, la::Matrix<T>& Yl,
                                  const la::Matrix<T>* Zl, double c, double scale, double zc) {
    Timer tstep;
    double waited = 0.0;
    const double modeled0 = ln.comm.modeled_seconds;
    const EngineMode mode = opt_.mode;
    const index_t nloc = ln.nloc, B = Xl.cols();
    la::Matrix<T>& S = ln.sl.acquire(nloc, B);
    if (op_ == Operator::hamiltonian) {
      for (index_t j = 0; j < B; ++j)
        fe::ks_nodal_rows<T>(fe::KsNodal::prescale, ln.ims.data(), ln.veff.data(),
                             ln.bmask.data(), Xl.col(j), S.col(j), nullptr, 0.0, 1.0, 0.0, 0,
                             nloc);
    } else {
      for (index_t j = 0; j < B; ++j) std::copy(Xl.col(j), Xl.col(j) + nloc, S.col(j));
    }
    Yl.zero();
    // Interface cells first, so the halo partials leave as early as
    // possible... (interior cells never touch a shared row, so every posted
    // packet already carries this lane's full partial)
    ln.iface_op->apply_add(S, Yl);
    for (Neighbor& nb : ln.nb) post_halo(ln, nb, Yl);
    if (mode == EngineMode::sync)
      for (Neighbor& nb : ln.nb) waited += recv_halo(ln, nb, Yl);
    // ...then the interior cells compute while the wire is busy.
    ln.inner_op->apply_add(S, Yl);
    for (const auto& [r0, r1] : ln.interior_rows)
      epilogue_rows(ln, Xl, Yl, Zl, c, scale, zc, r0, r1);
    if (mode == EngineMode::async)
      for (Neighbor& nb : ln.nb) waited += recv_halo(ln, nb, Yl);
    for (const auto& [r0, r1] : ln.shell_rows)
      epilogue_rows(ln, Xl, Yl, Zl, c, scale, zc, r0, r1);
    return {tstep.seconds() - waited, waited, ln.comm.modeled_seconds - modeled0};
  }

  /// Copy the lane's local rows (owned + ghost) of one global column.
  static void gather_rows(const Lane& ln, const T* src, T* dst) {
    for (const Run& rn : ln.gather_runs)
      std::copy(src + rn.src, src + rn.src + rn.len, dst + rn.dst);
  }

  /// Write the lane's owned rows of one local column into the global one
  /// (lanes write disjoint row sets, so concurrent scatters need no
  /// synchronization).
  static void scatter_rows(const Lane& ln, const T* src, T* dst) {
    for (const Run& rn : ln.owned_runs)
      std::copy(src + rn.src, src + rn.src + rn.len, dst + rn.dst);
  }

  /// Copy the lane's local rows (owned + ghost) of columns
  /// [col0, col0+ncols) out of the global block.
  static void gather_block(const Lane& ln, const la::Matrix<T>& X, index_t col0,
                           index_t ncols, la::Matrix<T>& Xl) {
    for (index_t j = 0; j < ncols; ++j) gather_rows(ln, X.col(col0 + j), Xl.col(j));
  }

  /// Scatter the lane's owned rows back into the global block.
  static void scatter_owned(const Lane& ln, const la::Matrix<T>& Yl, la::Matrix<T>& Y,
                            index_t col0, index_t ncols) {
    for (index_t j = 0; j < ncols; ++j) scatter_rows(ln, Yl.col(j), Y.col(col0 + j));
  }

  /// la::chebyshev_filter on the lane's brick, each step one
  /// lane_fused_step (halo exchange included, step k timed into steps[k]).
  void lane_filter(Lane& ln, la::Matrix<T>& X, index_t col0, index_t ncols, int degree,
                   double a, double b, double a0) {
    obs::TraceSpan span("CF-lane", "dd", ln.rank);
    const index_t nloc = ln.nloc;
    la::Matrix<T>& Xb = ln.xb.acquire(nloc, ncols);
    la::Matrix<T>& Yb = ln.yb.acquire(nloc, ncols);
    la::Matrix<T>& Zb = ln.zb.acquire(nloc, ncols);
    gather_block(ln, X, col0, ncols, Xb);
    const la::Matrix<T>* R = la::chebyshev_filter(
        &Xb, &Yb, &Zb, degree, a, b, a0,
        [&](const la::Matrix<T>& In, la::Matrix<T>& Out, const la::Matrix<T>* Z, double c,
            double scale, double zc, int k) {
          ln.steps[static_cast<std::size_t>(k)] = lane_fused_step(ln, In, Out, Z, c, scale, zc);
        });
    scatter_owned(ln, *R, X, col0, ncols);
  }

  /// Brick-local partial Gram block: the upper block triangle of
  /// A_r^H B_r over this lane's owned rows, gathered into lane-local panels
  /// and written into the lane's persistent gram buffer. The FP32
  /// off-diagonal policy matches the undecomposed overlap, and on the FP32
  /// gram wire each off-diagonal entry round-trips through its codec. The
  /// modeled interconnect cost of the subsequent log2-depth tree allreduce
  /// is accounted per lane (stats only — the actual reduction is
  /// overlap()'s deterministic stride-doubling sum in shared memory).
  void lane_gram(Lane& ln, const la::Matrix<T>& A, const la::Matrix<T>& B, index_t mp_block,
                 bool mixed) {
    obs::TraceSpan span("Gram-lane", "dd", ln.rank);
    Timer tstep;
    const index_t N = A.cols();
    la::Matrix<T>& S = ln.gram.acquire_zeroed(N, N);
    la::Matrix<T>& GA = ln.ga.acquire(ln.nown, N);
    la::Matrix<T>& GB = ln.gb.acquire(ln.nown, N);
    for (index_t j = 0; j < N; ++j) {
      const T* a = A.col(j);
      const T* b2 = B.col(j);
      T* ga = GA.col(j);
      T* gb = GB.col(j);
      index_t p = 0;
      for (const Run& rn : ln.owned_runs) {
        std::copy(a + rn.dst, a + rn.dst + rn.len, ga + p);
        std::copy(b2 + rn.dst, b2 + rn.dst + rn.len, gb + p);
        p += rn.len;
      }
    }
    la::overlap_hermitian_partial(GA, GB, S, mp_block, mixed);
    // Allreduce payload: one logical message. With the mixed policy the
    // diagonal blocks travel in full precision and the off-diagonal triangle
    // in FP32 (two ledger lines), mirroring the paper's mixed-precision
    // CholGS/RR communication.
    std::int64_t elems64 = static_cast<std::int64_t>(N) * N, elems32 = 0;
    if (mixed) {
      using Fp32 = WireCodec<Wire::fp32, T>;
      const bool wire32 = opt_.wire != Wire::fp64 && lanes_.size() > 1;
      WireLine& line = ln.job_drift[static_cast<std::size_t>(Wire::fp32)];
      const index_t nb = std::max<index_t>(1, std::min(mp_block, N));
      std::int64_t diag = 0;
      for (index_t J = 0; J < N; J += nb) {
        const index_t nj = std::min(nb, N - J);
        diag += nj * nj;
        for (index_t j = J; wire32 && j < J + nj; ++j)
          for (index_t i = 0; i < J; ++i) {
            typename Fp32::unit u[Fp32::units];
            Fp32::store(S(i, j), u);
            const T rt = Fp32::load(u);
            line.drift_num += scalar_traits<T>::abs2(S(i, j) - rt);
            line.drift_den += scalar_traits<T>::abs2(S(i, j));
            S(i, j) = rt;
          }
      }
      elems32 = elems64 - diag;
      elems64 = diag;
    }
    const std::int64_t bytes64 = halo_packet_bytes<T>(elems64, Wire::fp64);
    const std::int64_t bytes32 = halo_packet_bytes<T>(elems32, Wire::fp32);
    ln.comm.add(Wire::fp64, bytes64);
    if (elems32 > 0) ln.comm.add(Wire::fp32, bytes32);
    ln.comm.messages += 1;
    const double modeled =
        opt_.model.allreduce_time(bytes64 + bytes32, static_cast<int>(lanes_.size()));
    ln.comm.modeled_seconds += modeled;
    ln.steps[0] = {tstep.seconds(), 0.0, modeled};
  }

  /// Real part of sum conj(a_i) b_i over this lane's owned rows — each
  /// global row counted by exactly one lane.
  static double owned_dot(const Lane& ln, const T* a, const T* b) {
    double s = 0.0;
    for (const Run& rn : ln.owned_runs)
      for (index_t i = rn.src; i < rn.src + rn.len; ++i)
        s += scalar_traits<T>::real(scalar_traits<T>::conj(a[i]) * b[i]);
    return s;
  }

  /// One reduction round of the lane-resident PCG: contribute `width`
  /// partials, receive the tree-summed totals (bitwise equal on every lane).
  /// The blocked time is the "PCG-reduce" span; the modeled interconnect
  /// cost of the allreduce is accounted like a Gram reduction.
  void lane_allreduce(Lane& ln, const double* in, double* out, int width) {
    obs::TraceSpan span("PCG-reduce", "dd", ln.rank);
    reduce_.allreduce(ln.rank, in, out, width);
    const std::int64_t bytes = width * static_cast<std::int64_t>(sizeof(double));
    const double modeled = opt_.model.allreduce_time(bytes, static_cast<int>(lanes_.size()));
    ln.comm.add(Wire::fp64, bytes);
    ln.comm.messages += 1;
    ln.comm.modeled_seconds += modeled;
    ln.steps[0].modeled += modeled;
  }

  /// la::pcg's lane policy: the stiffness on the lane's brick (halo
  /// exchange included) with the Dirichlet rows of input and output zeroed,
  /// dot products over owned rows, completed by lane_allreduce. Each apply's
  /// timings accumulate into steps[0]. Ghost rows run the same elementwise
  /// updates with the same alpha and beta, so they track their owners'
  /// values and the next apply sees a consistent p.
  struct LaneCg {
    RankEngine& eng;
    Lane& ln;
    int fault_lane, fault_iter;  // debug_fault_pcg arming of this job
    int iteration = -1;  // CG iteration of the next apply (-1: the initial residual)

    void apply(la::Matrix<T>& P, la::Matrix<T>& AP) {
      if (iteration == fault_iter && ln.rank == fault_lane)
        throw std::runtime_error("dd::RankEngine: injected lane fault in pcg");
      ++iteration;
      const double* bm = ln.bmask.data();
      T* p = P.data();
      T* ap = AP.data();
      for (index_t i = 0; i < ln.nloc; ++i)
        if (bm[i] != 0.0) p[i] = T{};
      const EngineStepStats st = eng.lane_fused_step(ln, P, AP, nullptr, 0.0, 1.0, 0.0);
      EngineStepStats& acc = ln.steps[0];
      acc.compute += st.compute;
      acc.wait += st.wait;
      acc.modeled += st.modeled;
      for (index_t i = 0; i < ln.nloc; ++i)
        if (bm[i] != 0.0) ap[i] = T{};
    }
    double dot(const T* a, const T* b) const { return owned_dot(ln, a, b); }
    void reduce(double* v, int width) { eng.lane_allreduce(ln, v, v, width); }
    index_t owned_rows() const { return ln.nown; }
  };

  const fe::DofHandler* dofh_;
  BackendOptions opt_;
  Operator op_;
  BrickPartition part_;
  std::vector<std::unique_ptr<HaloChannel<T>>> channels_;
  LaneAllreduce reduce_;  // in-job reduction plane of the pcg job
  std::vector<std::unique_ptr<Lane>> lanes_;
  int pcg_fault_lane_ = -1, pcg_fault_iter_ = -1;  // debug_fault_pcg arming
  std::vector<EngineStepStats> step_stats_;

  // Job broadcast protocol: submit publishes a LaneJob under mu_ and bumps
  // job_seq_; parked lanes copy it and run; the driver sleeps on cv_done_
  // until every lane checked in (lane writes to their Lane state are
  // published to the driver by that same mutex). job_active_ guards against
  // a second submit while a job is in flight: overwriting job_/done_count_
  // mid-job would silently deadlock the mailboxes, so it is a hard
  // diagnostic error instead (named after both jobs). The primitives come
  // from the dd/schedule.hpp seam — std types in production, cooperative
  // model-checked types under DFTFE_MODEL_CHECK — so the engine handoff is
  // explorable by the same checker that owns the mailbox schedules.
  sched::Mutex mu_;
  sched::CondVar cv_job_, cv_done_;
  LaneJob job_;
  std::uint64_t job_seq_ = 0;
  int done_count_ = 0;
  bool job_active_ = false;
  std::exception_ptr first_error_;
};

extern template class RankEngine<double>;
extern template class RankEngine<complex_t>;

}  // namespace dftfe::dd
