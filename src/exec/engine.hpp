#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "core/graph.hpp"
#include "core/mem_governor.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/runtime.hpp"
#include "core/wire.hpp"
#include "exec/transport.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"

namespace dc::obs {
class MetricsRegistry;
}

namespace dc::exec {

/// Optional description of the machine the native engine maps the Placement
/// onto. Host ids are the Placement's; only the class labels matter here
/// (for core::Metrics::buffers_in_by_class and FilterContext::host_class).
/// Hosts without an entry are labelled "native".
struct HostInfo {
  std::vector<std::string> host_classes;  ///< indexed by host id
};

/// The copy-set executor: instantiates a core::FilterGraph + Placement on
/// real OS threads — one worker thread per transparent copy, bounded MPMC
/// buffer queues per copy set, and the same writer policies (RR / WRR / DD)
/// as the simulator runtime, driven through the shared core::WriterState so
/// every engine runs one policy implementation.
///
/// Execution model per UOW: fresh Filter objects are created per copy
/// (init / process / finalize cycle, identical to the simulator). Source
/// copies loop step() and dispatch their outputs through per-target flow
/// control windows (RR/WRR cap in-flight buffers; DD caps unacknowledged
/// ones — a consumer acknowledges a buffer when it dequeues it, and ties
/// prefer co-located copies). Consumer copies of one (filter, host) pair
/// share the copy set's input queues, demand-balancing within the host.
/// End-of-work markers propagate per producer copy; every consumer copy runs
/// process_eow after all markers arrived and the shared queues drained.
///
/// Without a Transport every host is local: the engine runs the whole
/// placement in this process, channel capacity is `window`, and a governed
/// run lifts the writer window (the governor decides residency). With a
/// Transport only the transport's local_host() is instantiated — RNG splits
/// still run for every copy, so each local copy draws exactly the stream it
/// would draw in-process — and buffers, markers, and dequeue settlements for
/// other hosts go through it. Channels then hold producers x window (the
/// credit protocol's bound, so inbound pushes never block) and the window is
/// fixed. Fault tolerance (RuntimeConfig::detection != kNone) needs a
/// transport: producers retain dispatched buffers until the consumer takes
/// responsibility for them, and fail_host() reclaims and retransmits them.
///
/// Differences from the simulator: time is wall-clock, charge()/read_disk()
/// only account demand (nothing is retired on a virtual CPU or disk). Per-copy
/// RNG streams are seeded exactly like the simulator's, so for the same
/// graph, placement, and seed every engine feeds identical random sequences
/// to the filters.
class Engine {
 public:
  Engine(const core::Graph& graph, const core::Placement& placement,
         core::RuntimeConfig config = {}, HostInfo hosts = {},
         Transport* transport = nullptr);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs one unit of work to completion on real threads; returns the UOW
  /// wall-clock makespan in seconds. Exceptions raised by filter callbacks
  /// abort the UOW (all threads unwind and join) and rethrow here.
  double run_uow();

  /// Cumulative metrics of the local instances across all UOWs run so far.
  [[nodiscard]] const core::Metrics& metrics() const { return metrics_; }
  void reset_metrics();

  [[nodiscard]] const core::RuntimeConfig& config() const { return config_; }
  [[nodiscard]] int total_copies(int filter) const;
  [[nodiscard]] const std::string& host_class(int host) const;

  /// Memory-governor counters (all zero when the engine runs ungoverned,
  /// i.e. RuntimeConfig::memory_budget_bytes == 0). Cumulative across UOWs.
  [[nodiscard]] core::GovernorStats governor_stats() const;

  /// Attaches a cross-engine observability session (nullptr detaches). Each
  /// worker thread records onto its own "exec:<filter>#<copy>@h<host>" track:
  /// init / step / process / eow / finalize callback spans, one queue.wait
  /// span per channel pop, consume and DD-ack instants, and a policy.pick
  /// instant (chosen target + outstanding count) per dispatched buffer.
  /// Timestamps are wall seconds since the session epoch. The session must
  /// outlive every run_uow() call; detached (the default), each emit site
  /// costs one pointer null check.
  void set_obs(obs::TraceSession* session) { obs_ = session; }
  [[nodiscard]] obs::TraceSession* obs() const { return obs_; }

  // ---- transport owner API -------------------------------------------------
  // run_uow() is begin_uow + run_workers + end_uow. A transport owner runs
  // the phases itself (frames that arrived early are delivered between
  // begin_uow and run_workers; the completion barrier runs before end_uow)
  // and serializes every inbound call below with begin_uow / end_uow.

  /// Builds the current UOW's copy sets, instances, and channels, then fails
  /// over the copy sets of every host already passed to fail_host().
  void begin_uow();
  /// Starts one thread per local copy and joins them all.
  void run_workers();
  /// Records `makespan`, folds the instances' counters into metrics(), tears
  /// the UOW down, and advances the UOW index.
  void end_uow(double makespan);
  /// The UOW that runs (or is built) next; end_uow advances it. A UOW that
  /// was never begun is skipped with end_uow(0.0).
  [[nodiscard]] int uow_index() const { return uow_index_; }
  /// Aborts the current UOW: every blocked worker wakes and unwinds.
  void abort();
  /// Replaces the placement from the next begin_uow on (the caller keeps it
  /// alive); used to re-host the copies of dead hosts.
  void set_placement(const core::Placement& placement) {
    placement_ = &placement;
  }

  /// Inbound: a DATA buffer from `origin` for a local copy set. Returns
  /// nullptr, or a static protocol-violation message.
  const char* deliver(const core::BufferRoute& route, core::Buffer buf,
                      int origin);
  /// Inbound: producer `route.producer` finished the stream toward a local
  /// copy set.
  const char* eow(const core::BufferRoute& route);
  /// Inbound: a remote consumer dequeued (`ack` false: the credit) or
  /// acknowledged (`ack` true: DD) a buffer of a local producer.
  const char* settle(const core::BufferRoute& route, bool ack);
  /// Declares `host` dead from now on: its copy sets in the current UOW fail
  /// over (routing fences them, local producers retransmit what they
  /// retained, their end-of-work obligations settle), and every later
  /// begin_uow fails them over at admission.
  void fail_host(int host);

  /// Cumulative fault counters of the local view.
  [[nodiscard]] core::FaultMetrics fault_metrics() const;
  void count_fault(std::uint64_t core::FaultMetrics::*field,
                   std::uint64_t n = 1);
  /// Filters that lost every copy in the current UOW, in failover order.
  [[nodiscard]] std::vector<int> dead_filters() const;

  // Implementation types, public only so that helper structs in the
  // translation unit can reference them; not part of the stable API.
  struct Instance;
  struct CopySetRt;
  struct StreamRt;
  struct ContextImpl;
  struct Delivery;
  struct Writer;

 private:
  [[nodiscard]] bool fault_tolerant() const {
    return config_.detection != core::FailureDetection::kNone;
  }
  [[nodiscard]] bool is_local(int host) const {
    return transport_ == nullptr || host == local_host_;
  }
  /// A static protocol-violation message when `route` names no stream /
  /// target pair of the current UOW, else nullptr.
  [[nodiscard]] const char* route_error(const core::BufferRoute& route) const;
  void build_uow();
  void teardown_uow();
  void worker_main(Instance& inst);
  void consume_loop(Instance& inst, ContextImpl& ctx);
  void source_loop(Instance& inst, ContextImpl& ctx);
  void drain(Instance& inst);
  void dispatch(Instance& inst, int port, core::Buffer buf);
  void settle_dequeue(const Delivery& d, bool dd);
  /// Applies a dequeue credit and/or an acknowledgment to the producer's
  /// window and retention ledger.
  void release(const core::BufferRoute& route, bool credit, bool ack);
  /// Fails over one copy set of the current UOW.
  void fail_copyset(CopySetRt& cset);
  /// A worker's exception: rethrown from run_uow() without a transport,
  /// reported through Transport::worker_failed with one.
  void worker_failed(std::exception_ptr error);
  /// Reports a timed-out stall or settlement and unwinds the worker.
  [[noreturn]] void settle_timeout(const std::string& what);
  /// Lazily creates the instance's obs track; nullptr when no session is
  /// attached.
  obs::Track* obs_track(Instance& inst);

  const core::Graph& graph_;
  const core::Placement* placement_;
  core::RuntimeConfig config_;
  HostInfo hosts_;
  Transport* transport_;
  int local_host_ = -1;  ///< transport_->local_host(), when bound
  std::vector<std::size_t> buffer_bytes_;  ///< negotiated, per stream

  // Live only between build_uow() and teardown_uow().
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<std::unique_ptr<CopySetRt>> copysets_;
  std::vector<std::unique_ptr<StreamRt>> stream_rt_;
  std::vector<std::vector<Instance*>> local_by_filter_;  ///< [filter][global]
  std::atomic<bool> aborted_{false};
  int uow_index_ = 0;
  /// Non-null iff config_.memory_budget_bytes > 0; outlives every copy set.
  std::unique_ptr<core::MemoryGovernor> governor_;

  // Fault tolerance (detection != kNone).
  std::vector<char> host_dead_;        ///< sticky, by host
  std::vector<int> live_copies_;       ///< per filter, current UOW
  std::vector<int> dead_filters_uow_;  ///< filters that lost every copy
  /// Bumped from worker, receive, and monitor threads alike.
  mutable std::mutex faults_mu_;
  core::FaultMetrics faults_;

  std::mutex error_mu_;
  std::exception_ptr first_error_;

  core::Metrics metrics_;
  sim::Rng base_rng_;
  obs::TraceSession* obs_ = nullptr;
};

/// Publishes a native-engine Metrics snapshot into the unified registry under
/// dotted `<prefix>.` names — core::publish's ledger keys plus the
/// wall-clock-only counters queue_wait_time and io_wait_time (no fault keys).
void publish(const core::Metrics& m, obs::MetricsRegistry& reg,
             const std::string& prefix = "exec");

}  // namespace dc::exec
