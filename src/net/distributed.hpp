#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/placement.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "net/metrics.hpp"
#include "net/transport.hpp"
#include "obs/recorder.hpp"

namespace dc::net {

struct DistributedOptions {
  /// Deadline for the end-of-UOW completion barrier (waiting for every
  /// peer's DONE). Exceeding it aborts the run with a transport-error
  /// outcome instead of hanging on a wedged or dead peer. Under fault
  /// tolerance it also bounds producer credit stalls and the end-of-work
  /// retention settlement, so a frozen (not dead) peer can delay a UOW at
  /// most this long before a structured failure.
  double barrier_timeout_s = 120.0;

  // ---- fault tolerance (active when RuntimeConfig::detection != kNone) ----
  /// Idle-link heartbeat cadence. Liveness piggybacks on every received
  /// frame (DATA / CREDIT / DONE all count); beacons fill the gaps.
  double heartbeat_interval_s = 0.05;
  /// Silence threshold before a peer is declared dead. A SIGKILLed peer is
  /// detected instantly via TCP close; this timeout catches frozen peers
  /// (SIGSTOP, wedged) whose sockets stay open.
  double peer_timeout_s = 2.0;
  /// Re-place filter copies off dead ranks (via core::replace_dead_hosts)
  /// at the next UOW boundary instead of running degraded without them.
  /// Off by default: the default path mirrors the simulator's fault model,
  /// where dead copy sets stay dead and every later UOW re-counts their
  /// failover at admission.
  bool replace_dead = false;
};

/// Structured outcome of one distributed unit of work. A UOW never hangs
/// and never crashes the process on peer misbehavior: every failure mode
/// (filter exception here, abort propagated from a peer, corrupt frame,
/// peer disconnect, barrier timeout) maps onto one of these.
enum class RunStatus {
  kComplete,        ///< clean completion, barrier passed on every rank
  kAborted,         ///< a filter callback threw (here or on a peer)
  kTransportError,  ///< wire violation, unexpected disconnect, or timeout
};

[[nodiscard]] const char* to_string(RunStatus s);

struct UowResult {
  RunStatus status = RunStatus::kComplete;
  double makespan = 0.0;  ///< wall seconds, local workers start -> barrier
  std::string error;      ///< empty when kComplete
  /// Fault-model classification of this UOW, using the simulator's exact
  /// discipline (core::Runtime::run_uow_outcome): per-UOW fault-counter
  /// deltas as observed by THIS rank, kDegraded when failovers perturbed
  /// the UOW, kPartialLoss when some filter lost every copy. The makespan
  /// field is wall time here (virtual time there); the logical fields —
  /// status, dead_filters, failovers — match the simulator bit for bit for
  /// the equivalent fault plan.
  core::UowOutcome outcome;

  [[nodiscard]] bool ok() const { return status == RunStatus::kComplete; }
};

/// The distributed execution engine: one OS process per simulated host,
/// exchanging stream buffers over the dc::net frame protocol. Rank r runs
/// the transparent copies placed on host r; filters are unmodified — the
/// paper's transparency carries all the way across real sockets.
///
/// The copies themselves run on exec::Engine, the one copy-set executor:
/// this class is its exec::Transport. The executor builds every UOW exactly
/// like an in-process run (same copy-set order, same per-copy RNG split
/// salts, same buffer-size negotiation), so for the same graph + placement +
/// seed a distributed run produces BIT-IDENTICAL merged output to the
/// in-process native engine and the simulator, with the same trace spans and
/// per-instance metrics. Only buffers, end-of-work markers, and dequeue
/// settlements addressed to another rank reach the wire:
///
///  - dispatch: the writer picks among ALL copy sets of the consumer, local
///    and remote; a remote target gets a DATA frame.
///  - flow control: a remote consumer's dequeue comes back as a CREDIT frame
///    (and, under DD, an ACK frame: the paper's demand signal on the wire).
///  - end of work: per producer copy and remote target set, an EOW frame.
///
/// What stays here is the wire side: the peer links and frame decode, the
/// early-frame stash for a peer one UOW ahead, the DONE barrier (with its
/// dead-rank mask), the heartbeat monitor, abort propagation, the per-UOW
/// outcome classification, and dead-rank re-placement. Receive threads never
/// block on channel pushes (the executor sizes channels to the credit bound),
/// so credit/abort frames always drain — the credit loop is deadlock-free by
/// construction. Aborts and wire errors propagate as ABORT frames so every
/// process terminates with a structured UowResult.
class DistributedEngine : private exec::Transport {
 public:
  /// `peers`: connected sockets indexed by rank (from connect_mesh); the
  /// slot at `rank` is ignored. Placement hosts must lie in [0, num_ranks).
  DistributedEngine(const core::Graph& graph, const core::Placement& placement,
                    core::RuntimeConfig config, int rank, int num_ranks,
                    std::vector<Socket> peers, DistributedOptions opts = {},
                    exec::HostInfo hosts = {});
  ~DistributedEngine() override;

  DistributedEngine(const DistributedEngine&) = delete;
  DistributedEngine& operator=(const DistributedEngine&) = delete;

  /// Runs one unit of work to completion (or structured failure) in
  /// lockstep with the peer ranks. Must be called the same number of times
  /// on every rank.
  UowResult run_uow();

  /// Flushes and closes every peer link. Called by the destructor; safe to
  /// call early (after the last run_uow) or twice.
  void shutdown();

  /// Cumulative metrics over this rank's local instances (producer-side
  /// stream ledger entries, consumer-side ack counts). Summing across ranks
  /// reproduces the in-process ledger exactly.
  [[nodiscard]] const core::Metrics& metrics() const { return core_.metrics(); }
  [[nodiscard]] const NetMetrics& net_metrics() const { return net_metrics_; }

  /// Cumulative fault counters of this rank's local view (its own failovers
  /// observed, its producers' retransmits / losses). Per-UOW deltas are in
  /// UowResult::outcome.
  [[nodiscard]] core::FaultMetrics fault_metrics() const {
    return core_.fault_metrics();
  }

  /// Attaches the process-fault harness's trigger cell (nullptr detaches;
  /// must outlive the engine). The engine reports UOW entry (at_uow) and
  /// remote DATA dispatch progress (kFrames / kBytes) through it, giving
  /// tests deterministic logical kill points. Attach before run_uow.
  void set_fault_cell(FaultCell* cell) { fault_cell_ = cell; }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int num_ranks() const { return num_ranks_; }
  [[nodiscard]] const core::RuntimeConfig& config() const {
    return core_.config();
  }

  /// Memory-governor counters for this rank (all zero when ungoverned,
  /// i.e. RuntimeConfig::memory_budget_bytes == 0). In governed mode the
  /// channel floor shrinks from producers x window to `window` per port —
  /// recv threads still never block, because elastic denial spills instead —
  /// while the wire credit protocol is unchanged.
  [[nodiscard]] core::GovernorStats governor_stats() const {
    return core_.governor_stats();
  }

  /// Attaches a cross-engine observability session (nullptr detaches; must
  /// outlive the engine). Worker threads record the executor's spans on
  /// "exec:" tracks; peer links record net.send / net.recv spans on
  /// "net:r<a>->r<b>" tracks; producers record credit.stall instants on
  /// "net:r<rank>" when a dispatch blocks waiting for a window slot.
  /// Attach BEFORE the first run_uow.
  void set_obs(obs::TraceSession* session);

 private:
  // ---- exec::Transport -----------------------------------------------------
  [[nodiscard]] int local_host() const override { return rank_; }
  [[nodiscard]] double settle_timeout_s() const override {
    return opts_.barrier_timeout_s;
  }
  void send_data(int host, const core::BufferRoute& route,
                 core::Buffer buf) override;
  void send_eow(int host, const core::BufferRoute& route) override;
  void send_settle(int host, const core::BufferRoute& route,
                   bool ack) override;
  void window_stalled(int stream, double seconds) override;
  void worker_failed(const std::string& reason, bool transport_error) override;

  /// The UOW the executor runs or builds next; read under state_mu_ off the
  /// main thread (run_uow advances it under the same lock).
  [[nodiscard]] std::uint32_t current_uow() const {
    return static_cast<std::uint32_t>(core_.uow_index());
  }
  void start_links();  ///< lazily on the first run_uow (after set_obs)
  /// Handles one validated frame from a peer (recv threads).
  void on_frame(int peer, const Frame& f);
  void on_wire_error(int peer, WireError err, const std::string& detail);
  /// Hands a DATA / EOW / CREDIT / ACK frame from `peer` to the executor.
  /// Caller holds state_mu_ and has checked the frame's uow matches.
  /// Returns nullptr on success, a static protocol-violation message
  /// otherwise (the caller escalates it to a transport error after
  /// releasing state_mu_).
  const char* deliver_locked(int peer, const Frame& f);
  /// Records the first failure, wakes every blocked thread, optionally
  /// broadcasts ABORT to the peers.
  void abort_run(RunStatus status, const std::string& reason, bool broadcast);
  /// Bounds each link's outbox at what the credit windows allow outstanding
  /// from this rank under the current placement.
  void bound_outboxes();

  // ---- fault tolerance -----------------------------------------------------
  [[nodiscard]] bool fault_tolerant() const {
    return core_.config().detection != core::FailureDetection::kNone;
  }
  /// The placement the current UOW runs under — the user's placement, or
  /// the re-placed one when replace_dead moved copies off dead ranks.
  [[nodiscard]] const core::Placement& pl() const {
    return use_effective_ ? effective_placement_ : placement_;
  }
  /// Declares `peer` dead (idempotent). If the peer had not yet passed the
  /// current UOW's DONE barrier, its copy sets fail over immediately
  /// (exec::Engine::fail_host), or, while the UOW is still being built, as
  /// run_uow publishes it. Otherwise the death only marks membership — the
  /// next UOW's admission re-counts the failover, exactly like the
  /// simulator.
  void on_peer_dead(int peer);
  /// Charges a rank that died outside any running UOW to hosts_failed,
  /// once; returns whether this call charged it. Caller holds state_mu_.
  bool charge_boundary_death_locked(int peer);
  /// Heartbeat-timeout watchdog loop (fault-tolerant runs only).
  void monitor_main();

  const core::Graph& graph_;
  const core::Placement& placement_;
  DistributedOptions opts_;
  int rank_;
  int num_ranks_;

  std::vector<Socket> peer_sockets_;  ///< until links start (first run_uow)

  // UOW state, guarded by state_mu_ where noted.
  std::mutex state_mu_;
  std::condition_variable state_cv_;
  bool built_ = false;       ///< core_ holds the structures of current_uow()
  bool running_ = false;     ///< between worker start and barrier exit
  bool poisoned_ = false;    ///< a previous UOW failed; engine unusable
  RunStatus status_ = RunStatus::kComplete;
  std::string error_;
  /// Early frames (with their sender) for a not-yet-built UOW.
  std::vector<std::pair<int, Frame>> pending_;
  std::map<std::uint32_t, int> done_counts_;  ///< uow -> DONEs received
  std::set<std::uint32_t> pending_aborts_;  ///< ABORTs for UOWs not yet begun
  /// Per peer: one past the last UOW that peer sent DONE for. A clean close
  /// from a peer that has DONE'd the current UOW is an orderly shutdown (it
  /// finished its run first), not a transport failure.
  std::vector<std::uint32_t> peer_done_next_;

  // ---- fault-tolerance state ----------------------------------------------
  /// Peers declared dead (index by rank; sticky for the engine's lifetime).
  /// Written under state_mu_; atomic so hot paths may read without it.
  std::vector<std::atomic<char>> rank_dead_;
  /// Last frame arrival per peer, steady-clock nanoseconds (monitor input).
  std::vector<std::atomic<std::int64_t>> last_heard_ns_;
  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;
  /// Ranks whose death has been charged to hosts_failed. Mid-UOW deaths are
  /// charged at detection (the simulator counts them in-UOW); boundary
  /// deaths are charged at the next admission, so a rank that exits cleanly
  /// after the final UOW is never counted. state_mu_.
  std::vector<char> hosts_counted_;
  /// Mid-UOW host failures observed during the CURRENT UOW — the outcome's
  /// "perturbed" input. Boundary deaths stay out, mirroring the simulator
  /// (whose on_host_failed is gated on in_uow_).
  std::atomic<std::uint64_t> hosts_failed_uow_{0};
  core::Placement effective_placement_;  ///< replace_dead rewrite
  bool use_effective_ = false;
  FaultCell* fault_cell_ = nullptr;

  NetMetrics net_metrics_;
  obs::TraceSession* obs_ = nullptr;
  obs::Track* net_track_ = nullptr;  ///< "net:r<rank>" (credit.stall)

  /// The copy-set executor. Declared after everything the transport
  /// callbacks read and before the links, so the links (whose receive
  /// threads call into it) go first on destruction.
  exec::Engine core_;
  std::vector<std::unique_ptr<PeerLink>> links_;  ///< by rank; null at self
  /// Heartbeat monitor (fault-tolerant runs); joined by shutdown().
  std::thread monitor_;
};

}  // namespace dc::net
