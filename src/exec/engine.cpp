#include "exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <filesystem>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/arena.hpp"
#include "core/filter.hpp"
#include "core/writer_state.hpp"
#include "exec/queue.hpp"
#include "io/spill.hpp"
#include "obs/metrics.hpp"

namespace dc::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Effective writer window in single-process governed mode: the channel's
/// governor decides memory residency, so the per-target dispatch window must
/// not be the bottleneck — a producer runs ahead as far as the budget (and
/// then the spill file) lets it. Half of INT_MAX keeps the WriterState
/// arithmetic comfortably clear of overflow.
constexpr int kElasticWindow = std::numeric_limits<int>::max() / 2;

struct PendingOut {
  int port;
  core::Buffer buf;
};

/// Per-stream counters private to one worker thread; summed into the shared
/// core::Metrics after the UOW's threads joined (the joins provide the
/// happens-before, so no atomics are needed anywhere in the hot path).
struct StreamDelta {
  std::uint64_t buffers = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t message_bytes = 0;
};

}  // namespace

/// A buffer queued for a local copy set. `route` is its engine-agnostic
/// identity (stream, producer copy, target set, UOW); `origin` is the host
/// of the producer the dequeue settles — directly when local, through the
/// transport otherwise.
struct Engine::Delivery {
  core::Buffer buf;
  core::BufferRoute route;
  int origin = -1;
};

/// All transparent copies of one (filter, host) placement entry. The copies
/// share the bounded input channel, demand-balancing within the host exactly
/// like the simulator's copy sets share their queues. Every placement entry
/// gets one (so stream target indices mean the same set on every host); only
/// local sets get copies and a live channel.
struct Engine::CopySetRt {
  int filter = -1;
  int host = -1;
  int copies_n = 0;      ///< total copies in this set (local or not)
  int first_global = 0;  ///< global index of the set's first copy
  std::vector<Instance*> copies;  ///< local sets only
  /// Overflow store for the governed regime (null when ungoverned or
  /// remote). Declared before the channel so the channel — whose spill hooks
  /// hold a raw pointer to it — is destroyed first.
  std::unique_ptr<io::SpillFile> spill;
  PortChannel<Delivery> channel;

  // Fault tolerance (unused when detection == kNone).
  /// Failed over: routing fences the set, late credits for it are stale.
  /// Atomic so dispatch's dead-target predicate can read it under only the
  /// producer's wmu.
  std::atomic<bool> down{false};
  /// Local consumer sets only: per input stream, which producer copies have
  /// settled their end-of-work marker (marker arrival OR failover) — the
  /// exactly-once guard between the two.
  std::vector<std::vector<char>> eow_seen;  ///< [stream][producer]
};

/// Runtime view of one logical stream: the consumer copy sets it fans out to.
struct Engine::StreamRt {
  const core::StreamSpec* spec = nullptr;
  int id = -1;
  core::Policy policy = core::Policy::kRoundRobin;  ///< effective
  std::vector<CopySetRt*> targets;
  std::vector<int> wrr_order;  ///< target indices, one entry per consumer copy
};

/// Writer-side state of one producer copy for one output port: the shared
/// flow-control / policy state machine plus the stream binding. Synchronized
/// by the owning Instance's writer mutex (one mutex guards all of a copy's
/// writers: the owner thread dispatches, consumer and receive threads release
/// windows).
struct Engine::Writer : core::WriterState {
  StreamRt* stream = nullptr;
  /// Per target: dispatched buffers not yet the consumer's responsibility
  /// (released by the dequeue credit under RR/WRR, by the ack under DD;
  /// reclaimed wholesale at failover). Payload storage is shared, so
  /// retention costs an envelope, not a data copy. Empty when fault
  /// tolerance is off.
  std::vector<std::deque<core::Buffer>> retained;
};

/// One local transparent copy of a filter for the current UOW, bound to one
/// worker thread. Everything except `writers` and `retry` (guarded by wmu)
/// and the copy set channel is touched only by the owning thread.
struct Engine::Instance {
  Engine* eng = nullptr;
  int filter = -1;
  int index = -1;         ///< global index among the filter's copies
  int copy_in_host = -1;  ///< index within the copy set
  CopySetRt* cset = nullptr;
  std::unique_ptr<core::Filter> user;
  std::vector<Writer> writers;  ///< per output port

  std::mutex wmu;               ///< guards every writer's WriterState
  std::condition_variable wcv;  ///< signalled when a window slot frees

  bool in_init = false;
  std::deque<PendingOut> pending;  ///< writes deferred until the callback ends
  /// Buffers reclaimed from a failed-over target, queued for retransmission
  /// ahead of fresh output (oldest first, the simulator's requeue order).
  std::deque<PendingOut> retry;

  core::InstanceMetrics m;
  std::vector<StreamDelta> stream_local;  ///< per stream, owner thread only
  sim::Rng rng;
  std::unique_ptr<ContextImpl> ctx;
  obs::Track* otrack = nullptr;  ///< lazily bound by Engine::obs_track
};

/// FilterContext implementation bound to one Instance. Mirrors the
/// simulator's context so filters run unmodified; charge() / read_disk() only
/// account demand here — real time is whatever the hardware takes.
struct Engine::ContextImpl final : core::FilterContext {
  Instance* inst = nullptr;
  Clock::time_point epoch;

  [[nodiscard]] int instance_index() const override { return inst->index; }
  [[nodiscard]] int num_instances() const override {
    return inst->eng->total_copies(inst->filter);
  }
  [[nodiscard]] int copy_in_host() const override { return inst->copy_in_host; }
  [[nodiscard]] int copies_on_host() const override {
    return static_cast<int>(inst->cset->copies.size());
  }
  [[nodiscard]] int host() const override { return inst->cset->host; }
  [[nodiscard]] const std::string& host_class() const override {
    return inst->eng->host_class(inst->cset->host);
  }
  [[nodiscard]] int uow_index() const override { return inst->eng->uow_index_; }
  [[nodiscard]] sim::SimTime now() const override {
    return seconds_since(epoch);  // wall seconds since the UOW started
  }
  [[nodiscard]] sim::Rng& rng() override { return inst->rng; }

  void charge(double ops) override {
    if (ops < 0.0) throw std::invalid_argument("charge: negative ops");
    inst->m.work_ops += ops;
  }

  void read_disk(int local_disk, std::uint64_t bytes) override {
    if (!inst->eng->graph_.filter(inst->filter).is_source) {
      throw std::logic_error("read_disk is only available to source filters");
    }
    if (local_disk < 0) {
      throw std::out_of_range("read_disk: no such local disk");
    }
    inst->m.disk_bytes += bytes;
  }

  void note_io_wait(double seconds) override {
    inst->m.io_wait_time += seconds;
  }

  void write(int port, core::Buffer buf) override {
    if (inst->in_init) {
      throw std::logic_error("write() is not allowed in init()");
    }
    if (port < 0 || port >= num_output_ports()) {
      throw std::out_of_range("write: bad output port");
    }
    inst->pending.push_back(PendingOut{port, std::move(buf)});
  }

  [[nodiscard]] core::Buffer make_buffer(int port) const override {
    // Arena-backed: stream buffers recycle pooled slots instead of paying an
    // allocation per buffer, and a remote DATA frame sends this very storage.
    return core::BufferArena::global().make(buffer_bytes(port));
  }

  [[nodiscard]] int num_input_ports() const override {
    return inst->eng->graph_.filter(inst->filter).num_input_ports;
  }
  [[nodiscard]] int num_output_ports() const override {
    return inst->eng->graph_.filter(inst->filter).num_output_ports;
  }
  [[nodiscard]] std::size_t buffer_bytes(int out_port) const override {
    if (out_port < 0 || out_port >= num_output_ports()) {
      throw std::out_of_range("buffer_bytes: bad output port");
    }
    const int stream =
        inst->writers[static_cast<std::size_t>(out_port)].stream->id;
    return inst->eng->buffer_bytes_[static_cast<std::size_t>(stream)];
  }
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Engine::Engine(const core::Graph& graph, const core::Placement& placement,
               core::RuntimeConfig config, HostInfo hosts,
               Transport* transport)
    : graph_(graph),
      placement_(&placement),
      config_(std::move(config)),
      hosts_(std::move(hosts)),
      transport_(transport),
      base_rng_(config_.rng_seed) {
  graph_.validate();
  core::validate(config_);
  if (fault_tolerant() && transport_ == nullptr) {
    throw std::invalid_argument(
        "exec::Engine: fault injection needs a transport (or the "
        "simulator); RuntimeConfig::detection must be kNone");
  }
  // Negotiate buffer sizes exactly like the simulator: prefer the default,
  // clamped to [min, max]. Identical sizes are a precondition for
  // bit-comparable outputs between the engines.
  buffer_bytes_.resize(static_cast<std::size_t>(graph_.num_streams()));
  for (int s = 0; s < graph_.num_streams(); ++s) {
    const auto& spec = graph_.stream(s);
    buffer_bytes_[static_cast<std::size_t>(s)] = std::clamp(
        config_.default_buffer_bytes, spec.min_buffer_bytes, spec.max_buffer_bytes);
  }
  // Placement sanity.
  for (int f = 0; f < graph_.num_filters(); ++f) {
    if (placement_->entries(f).empty()) {
      throw std::invalid_argument("exec::Engine: filter '" +
                                  graph_.filter(f).name + "' has no placement");
    }
    if (!graph_.filter(f).is_source && graph_.in_streams(f).empty()) {
      throw std::invalid_argument("exec::Engine: non-source filter '" +
                                  graph_.filter(f).name + "' has no inputs");
    }
  }
  // Stream metrics slots.
  metrics_.streams.resize(static_cast<std::size_t>(graph_.num_streams()));
  for (int s = 0; s < graph_.num_streams(); ++s) {
    metrics_.streams[static_cast<std::size_t>(s)].name = graph_.stream(s).name;
  }
  if (config_.memory_budget_bytes > 0) {
    core::GovernorConfig gc;
    gc.budget_bytes = config_.memory_budget_bytes;
    gc.spill_dir = config_.spill_dir;
    governor_ = std::make_unique<core::MemoryGovernor>(gc);
    // Budget-derived arena retention (restored when the governor dies).
    governor_->govern(core::BufferArena::global());
  }
}

Engine::~Engine() = default;

core::GovernorStats Engine::governor_stats() const {
  return governor_ ? governor_->stats() : core::GovernorStats{};
}

int Engine::total_copies(int filter) const {
  return placement_->total_copies(filter);
}

const std::string& Engine::host_class(int host) const {
  static const std::string kNative = "native";
  if (host >= 0 &&
      static_cast<std::size_t>(host) < hosts_.host_classes.size()) {
    return hosts_.host_classes[static_cast<std::size_t>(host)];
  }
  return kNative;
}

obs::Track* Engine::obs_track(Instance& inst) {
  if (obs_ == nullptr) return nullptr;
  if (inst.otrack == nullptr) {
    inst.otrack = &obs_->track("exec:" + graph_.filter(inst.filter).name +
                               "#" + std::to_string(inst.index) + "@h" +
                               std::to_string(inst.cset->host));
  }
  return inst.otrack;
}

void Engine::reset_metrics() {
  metrics_.instances.clear();
  metrics_.acks_total = 0;
  metrics_.ack_bytes_total = 0;
  metrics_.makespan = 0.0;
  for (auto& s : metrics_.streams) {
    s.buffers = 0;
    s.payload_bytes = 0;
    s.message_bytes = 0;
  }
}

core::FaultMetrics Engine::fault_metrics() const {
  std::lock_guard<std::mutex> lk(faults_mu_);
  return faults_;
}

void Engine::count_fault(std::uint64_t core::FaultMetrics::*field,
                         std::uint64_t n) {
  std::lock_guard<std::mutex> lk(faults_mu_);
  faults_.*field += n;
}

std::vector<int> Engine::dead_filters() const { return dead_filters_uow_; }

// ---------------------------------------------------------------------------
// UOW setup / teardown
// ---------------------------------------------------------------------------

void Engine::build_uow() {
  const core::Placement& pl = *placement_;
  // Copy sets: one per placement entry, in the global creation order every
  // engine shares — a stream's target index must mean the same copy set on
  // every host (and inside every BufferRoute). The instance order and RNG
  // split salts below replicate the simulator exactly, so every engine hands
  // filters the same random streams.
  std::vector<std::vector<CopySetRt*>> csets_by_filter(
      static_cast<std::size_t>(graph_.num_filters()));
  for (int f = 0; f < graph_.num_filters(); ++f) {
    const int in_ports = graph_.filter(f).num_input_ports;
    // In-process, a channel holds `window` per port (the seed semantics).
    // Across a transport it must absorb everything the credit windows allow
    // outstanding without ever blocking a receive thread: up to `window`
    // un-dequeued buffers per producer copy, so producers x window. A
    // governed channel never blocks (it spills), so `window` is its floor.
    std::size_t capacity = static_cast<std::size_t>(config_.window);
    if (transport_ != nullptr && governor_ == nullptr) {
      std::size_t max_producers = 1;
      for (int s : graph_.in_streams(f)) {
        max_producers = std::max(
            max_producers, static_cast<std::size_t>(
                               pl.total_copies(graph_.stream(s).from_filter)));
      }
      capacity *= max_producers;
    }
    int first_global = 0;
    for (const auto& e : pl.entries(f)) {
      auto cset = std::make_unique<CopySetRt>();
      cset->filter = f;
      cset->host = e.host;
      cset->copies_n = e.copies;
      cset->first_global = first_global;
      first_global += e.copies;
      if (is_local(e.host)) {
        cset->channel.init(in_ports, capacity, &aborted_);
      }
      if (is_local(e.host) && governor_ != nullptr && in_ports > 0) {
        // Governed regime: `window` becomes the per-port floor and the
        // channel spills overflow into this copy set's scratch file. The
        // slot size registered as the floor entitlement is the largest
        // negotiated buffer among the filter's input streams.
        std::size_t slot_bytes = 1;
        for (int s : graph_.in_streams(f)) {
          slot_bytes = std::max(slot_bytes,
                                buffer_bytes_[static_cast<std::size_t>(s)]);
        }
        cset->spill = std::make_unique<io::SpillFile>(
            std::filesystem::path(config_.spill_dir));
        io::SpillFile* file = cset->spill.get();
        SpillOps<Delivery> ops;
        ops.size = [](const Delivery& d) {
          return std::max<std::size_t>(d.buf.capacity(), 1);
        };
        ops.evict = [file](Delivery& d) {
          const std::uint64_t token = file->append(d.buf.bytes());
          // Keep routing metadata in a storage-less shell; the payload now
          // lives only in the spill file.
          core::Buffer shell = core::Buffer::adopt(nullptr, d.buf.capacity());
          shell.set_route_key(d.buf.route_key());
          d.buf = std::move(shell);
          return token;
        };
        ops.restore = [file](Delivery& d, std::uint64_t token) {
          auto slot = core::BufferArena::global().lease(d.buf.capacity());
          file->read(token, *slot);  // CRC32C-verified
          core::Buffer full = core::Buffer::adopt(std::move(slot),
                                                  d.buf.capacity());
          full.set_route_key(d.buf.route_key());
          d.buf = std::move(full);
        };
        cset->channel.bind_governor(governor_.get(), slot_bytes,
                                    std::move(ops));
      }
      csets_by_filter[static_cast<std::size_t>(f)].push_back(cset.get());
      copysets_.push_back(std::move(cset));
    }
  }

  // Stream runtime: target copy sets and the WRR expansion.
  for (int s = 0; s < graph_.num_streams(); ++s) {
    auto rt = std::make_unique<StreamRt>();
    rt->spec = &graph_.stream(s);
    rt->id = s;
    rt->policy = core::effective_policy(config_.policy, *rt->spec);
    const int consumer = rt->spec->to_filter;
    const auto& consumer_entries = pl.entries(consumer);
    const auto& consumer_sets = csets_by_filter[static_cast<std::size_t>(consumer)];
    for (std::size_t i = 0; i < consumer_sets.size(); ++i) {
      rt->targets.push_back(consumer_sets[i]);
      for (int c = 0; c < consumer_entries[i].copies; ++c) {
        rt->wrr_order.push_back(static_cast<int>(i));
      }
    }
    stream_rt_.push_back(std::move(rt));
  }

  // Instances. The RNG is split for EVERY copy in the global order — also
  // the remote ones this process never constructs — so each local instance
  // draws the exact stream it would get in-process (split() mutates
  // base_rng_).
  local_by_filter_.assign(static_cast<std::size_t>(graph_.num_filters()), {});
  for (int f = 0; f < graph_.num_filters(); ++f) {
    const auto& entries = pl.entries(f);
    const auto& sets = csets_by_filter[static_cast<std::size_t>(f)];
    const auto outs = graph_.out_streams(f);
    local_by_filter_[static_cast<std::size_t>(f)].assign(
        static_cast<std::size_t>(pl.total_copies(f)), nullptr);
    int global = 0;
    for (std::size_t p = 0; p < entries.size(); ++p) {
      for (int c = 0; c < entries[p].copies; ++c) {
        const int index = global++;
        sim::Rng rng = base_rng_.split(
            static_cast<std::uint64_t>(f) * 1000003ULL +
            static_cast<std::uint64_t>(index) * 257ULL +
            static_cast<std::uint64_t>(uow_index_));
        if (!is_local(entries[p].host)) continue;
        auto inst = std::make_unique<Instance>();
        inst->eng = this;
        inst->filter = f;
        inst->index = index;
        inst->copy_in_host = c;
        inst->cset = sets[p];
        inst->user = graph_.filter(f).factory();
        if (!inst->user) {
          throw std::runtime_error("exec::Engine: factory for '" +
                                   graph_.filter(f).name + "' returned null");
        }
        if (graph_.filter(f).is_source &&
            dynamic_cast<core::SourceFilter*>(inst->user.get()) == nullptr) {
          throw std::runtime_error("exec::Engine: source filter '" +
                                   graph_.filter(f).name +
                                   "' does not derive from SourceFilter");
        }
        for (int out : outs) {
          Writer w;
          w.stream = stream_rt_[static_cast<std::size_t>(out)].get();
          w.reset(w.stream->targets.size());
          if (fault_tolerant()) w.retained.resize(w.stream->targets.size());
          inst->writers.push_back(std::move(w));
        }
        inst->m.filter = f;
        inst->m.instance = index;
        inst->m.host = entries[p].host;
        inst->m.host_class = host_class(entries[p].host);
        inst->stream_local.resize(
            static_cast<std::size_t>(graph_.num_streams()));
        inst->rng = rng;
        inst->ctx = std::make_unique<ContextImpl>();
        inst->ctx->inst = inst.get();
        sets[p]->copies.push_back(inst.get());
        local_by_filter_[static_cast<std::size_t>(f)]
                        [static_cast<std::size_t>(index)] = inst.get();
        instances_.push_back(std::move(inst));
      }
    }
  }

  // EOW bookkeeping for local consumer sets: one marker per producer copy of
  // the stream, whichever host that producer runs on.
  for (int s = 0; s < graph_.num_streams(); ++s) {
    const auto& spec = graph_.stream(s);
    const int producers = pl.total_copies(spec.from_filter);
    for (CopySetRt* t : stream_rt_[static_cast<std::size_t>(s)]->targets) {
      if (!is_local(t->host)) continue;
      t->channel.expect_eow(spec.to_port, producers);
      if (fault_tolerant()) {
        t->eow_seen.resize(static_cast<std::size_t>(graph_.num_streams()));
        t->eow_seen[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(producers), 0);
      }
    }
  }
}

void Engine::teardown_uow() {
  for (auto& inst : instances_) {
    metrics_.instances.push_back(inst->m);
    metrics_.acks_total += inst->m.acks_sent;
    metrics_.ack_bytes_total += inst->m.acks_sent * config_.ack_bytes;
    for (std::size_t s = 0; s < inst->stream_local.size(); ++s) {
      const StreamDelta& d = inst->stream_local[s];
      auto& sm = metrics_.streams[s];
      sm.buffers += d.buffers;
      sm.payload_bytes += d.payload_bytes;
      sm.message_bytes += d.message_bytes;
    }
  }
  instances_.clear();
  copysets_.clear();
  stream_rt_.clear();
  local_by_filter_.clear();
}

void Engine::begin_uow() {
  if (transport_ != nullptr) local_host_ = transport_->local_host();
  aborted_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  build_uow();
  if (!fault_tolerant()) return;
  // Survivor census, recomputed every UOW exactly like the simulator: copy
  // sets on hosts that died before this UOW began never join — they fail
  // over at admission, in global creation order, so routing excludes them
  // from the first buffer on.
  live_copies_.assign(static_cast<std::size_t>(graph_.num_filters()), 0);
  for (int f = 0; f < graph_.num_filters(); ++f) {
    live_copies_[static_cast<std::size_t>(f)] = placement_->total_copies(f);
  }
  dead_filters_uow_.clear();
  for (auto& cs : copysets_) {
    const auto h = static_cast<std::size_t>(cs->host);
    if (h < host_dead_.size() && host_dead_[h] != 0) {
      cs->down.store(true, std::memory_order_relaxed);
      fail_copyset(*cs);
    }
  }
}

void Engine::end_uow(double makespan) {
  metrics_.makespan = makespan;
  teardown_uow();
  ++uow_index_;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

double Engine::run_uow() {
  begin_uow();
  const auto t0 = Clock::now();
  run_workers();
  const double makespan = seconds_since(t0);
  end_uow(makespan);
  if (first_error_) std::rethrow_exception(first_error_);
  return makespan;
}

void Engine::run_workers() {
  const auto t0 = Clock::now();
  for (auto& inst : instances_) inst->ctx->epoch = t0;
  std::vector<std::thread> threads;
  threads.reserve(instances_.size());
  for (auto& inst : instances_) {
    Instance* p = inst.get();
    threads.emplace_back([this, p] {
      try {
        worker_main(*p);
      } catch (const Aborted&) {
        // Another worker (or the transport) failed the UOW; unwound cleanly.
      } catch (...) {
        worker_failed(std::current_exception());
      }
    });
  }
  for (auto& t : threads) t.join();
}

void Engine::worker_failed(std::exception_ptr error) {
  if (transport_ == nullptr) {
    {
      std::lock_guard<std::mutex> lk(error_mu_);
      if (!first_error_) first_error_ = error;
    }
    abort();
    return;
  }
  std::string what = "unknown exception";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  transport_->worker_failed("filter error: " + what, /*transport_error=*/false);
}

void Engine::settle_timeout(const std::string& what) {
  transport_->worker_failed(what + " exceeded " +
                                std::to_string(transport_->settle_timeout_s()) +
                                "s",
                            /*transport_error=*/true);
  throw Aborted{};
}

void Engine::abort() {
  aborted_.store(true, std::memory_order_relaxed);
  // Wake everything under the respective mutexes so no blocked thread misses
  // the flag between its predicate check and its wait.
  for (auto& cs : copysets_) cs->channel.notify_abort();
  for (auto& inst : instances_) {
    std::lock_guard<std::mutex> lk(inst->wmu);
    inst->wcv.notify_all();
  }
}

void Engine::worker_main(Instance& inst) {
  ContextImpl& ctx = *inst.ctx;
  obs::Track* tk = obs_track(inst);

  inst.in_init = true;
  auto t0 = Clock::now();
  {
    obs::ScopedSpan span(obs_, tk, "init");
    inst.user->init(ctx);
  }
  inst.m.busy_time += seconds_since(t0);
  inst.in_init = false;

  if (graph_.filter(inst.filter).is_source) {
    source_loop(inst, ctx);
  } else {
    consume_loop(inst, ctx);
  }

  t0 = Clock::now();
  {
    obs::ScopedSpan span(obs_, tk, "eow");
    inst.user->process_eow(ctx);
  }
  inst.m.busy_time += seconds_since(t0);
  drain(inst);

  if (fault_tolerant()) {
    // Retention settlement: every retained buffer must be released (its
    // consumer took responsibility) or reclaimed and retransmitted (its
    // consumer died) before this producer declares EOW — otherwise a death
    // after our EOW would strand data no one will resend. Deadlock-free:
    // consumers drain independently of our EOW, so the credits this wait
    // needs are never gated on it.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               transport_->settle_timeout_s()));
    for (;;) {
      drain(inst);  // flushes buffers reclaimed from a dead target
      std::unique_lock<std::mutex> lk(inst.wmu);
      const auto settled = [&] {
        if (!inst.retry.empty()) return false;
        for (const auto& w : inst.writers) {
          for (const auto& ret : w.retained) {
            if (!ret.empty()) return false;
          }
        }
        return true;
      };
      if (settled()) break;
      const bool woke = inst.wcv.wait_until(lk, deadline, [&] {
        return aborted_.load(std::memory_order_relaxed) ||
               !inst.retry.empty() || settled();
      });
      if (aborted_.load(std::memory_order_relaxed)) throw Aborted{};
      if (!woke) {
        lk.unlock();
        settle_timeout("retention settlement");
      }
    }
  }

  // Like the simulator, finalize() runs after the last drain; anything it
  // writes is not dispatched in any engine.
  t0 = Clock::now();
  {
    obs::ScopedSpan span(obs_, tk, "finalize");
    inst.user->finalize(ctx);
  }
  inst.m.busy_time += seconds_since(t0);

  // End-of-work markers to every consumer copy set, after all data buffers:
  // the channel mutex serializes a local marker behind this copy's pushes,
  // and a remote one travels the same per-peer FIFO as its DATA frames.
  for (auto& w : inst.writers) {
    const int in_port = w.stream->spec->to_port;
    for (std::size_t ti = 0; ti < w.stream->targets.size(); ++ti) {
      CopySetRt* t = w.stream->targets[ti];
      if (is_local(t->host)) {
        t->channel.producer_eow(in_port);
      } else {
        transport_->send_eow(
            t->host, core::BufferRoute{w.stream->id, inst.index,
                                       static_cast<std::int32_t>(ti),
                                       static_cast<std::uint32_t>(uow_index_)});
      }
    }
  }
}

void Engine::source_loop(Instance& inst, ContextImpl& ctx) {
  auto* src = static_cast<core::SourceFilter*>(inst.user.get());
  obs::Track* tk = obs_track(inst);
  bool more = true;
  while (more) {
    const auto t0 = Clock::now();
    {
      obs::ScopedSpan span(obs_, tk, "step");
      more = src->step(ctx);
    }
    inst.m.busy_time += seconds_since(t0);
    drain(inst);
  }
}

void Engine::consume_loop(Instance& inst, ContextImpl& ctx) {
  PortChannel<Delivery>& channel = inst.cset->channel;
  obs::Track* tk = obs_track(inst);
  const bool tracing = tk != nullptr && obs_->enabled();
  for (;;) {
    Delivery d;
    int port = -1;
    double waited = 0.0;
    // One queue.wait span per pop, emitted even for instant pops so the
    // span COUNT is deterministic (goldens compare counts and order, never
    // durations).
    if (tracing) tk->begin(obs_->now(), "queue.wait");
    const auto pop = channel.pop(d, port, waited);
    if (tracing) tk->end(obs_->now(), "queue.wait");
    inst.m.queue_wait_time += waited;
    // kEow is sticky (every pop after drain reports it); treating it as
    // terminal here is what keeps the per-copy process_eow single-shot.
    if (pop == PortChannel<Delivery>::Pop::kEow) return;
    inst.m.buffers_in++;
    inst.m.bytes_in += d.buf.size();
    if (tracing) {
      tk->instant(obs_->now(), "consume",
                  static_cast<std::int64_t>(d.buf.size()), port);
    }

    // Receiver-side dequeue frees the producer's flow-control slot; under DD
    // it also acknowledges (in-process the ack is a direct state update, the
    // counters match the simulator, which models it as a message).
    const bool dd =
        stream_rt_[static_cast<std::size_t>(d.route.stream)]->policy ==
        core::Policy::kDemandDriven;
    settle_dequeue(d, dd);
    if (dd) {
      inst.m.acks_sent++;
      if (tracing) {
        tk->instant(obs_->now(), "dd.ack",
                    static_cast<std::int64_t>(config_.ack_bytes),
                    d.route.target);
      }
    }

    const auto t0 = Clock::now();
    {
      obs::ScopedSpan span(obs_, tk, "process", port);
      inst.user->process_buffer(ctx, port, d.buf);
    }
    inst.m.busy_time += seconds_since(t0);
    drain(inst);
  }
}

void Engine::settle_dequeue(const Delivery& d, bool dd) {
  if (is_local(d.origin)) {
    release(d.route, /*credit=*/true, /*ack=*/dd);
  } else {
    transport_->send_settle(d.origin, d.route, dd);
  }
}

void Engine::release(const core::BufferRoute& route, bool credit, bool ack) {
  const StreamRt& srt = *stream_rt_[static_cast<std::size_t>(route.stream)];
  Instance& p = *local_by_filter_[static_cast<std::size_t>(
      srt.spec->from_filter)][static_cast<std::size_t>(route.producer)];
  const auto t = static_cast<std::size_t>(route.target);
  const bool ft = fault_tolerant();
  // A failed-over target's counters were zeroed and its retention reclaimed:
  // a late credit has nothing to settle, and a late ack marks a payload that
  // was both processed there and retransmitted elsewhere.
  const bool down = ft && srt.targets[t]->down.load(std::memory_order_relaxed);
  bool dup = false;
  {
    std::lock_guard<std::mutex> lk(p.wmu);
    Writer& w = p.writers[static_cast<std::size_t>(srt.spec->from_port)];
    if (credit && !down) {
      w.on_dequeue(route.target);
      // RR/WRR: the dequeue is where the consumer takes responsibility.
      if (ft && srt.policy != core::Policy::kDemandDriven &&
          !w.retained[t].empty()) {
        w.retained[t].pop_front();
      }
    }
    if (ack) {
      if (ft && (down || w.retained[t].empty())) {
        dup = true;
      } else {
        w.on_ack(route.target);
        if (ft) w.retained[t].pop_front();  // DD: the ack is the release
      }
    }
  }
  p.wcv.notify_all();
  if (dup) count_fault(&core::FaultMetrics::buffers_duplicated);
}

void Engine::drain(Instance& inst) {
  if (fault_tolerant()) {
    // Reclaimed buffers first (oldest-first, ahead of new output): the retry
    // queue is refilled by fail_copyset when a target dies, possibly while
    // we are dispatching — loop until it stays empty.
    for (;;) {
      PendingOut out;
      {
        std::lock_guard<std::mutex> lk(inst.wmu);
        if (inst.retry.empty()) break;
        out = std::move(inst.retry.front());
        inst.retry.pop_front();
      }
      dispatch(inst, out.port, std::move(out.buf));
    }
  }
  while (!inst.pending.empty()) {
    PendingOut out = std::move(inst.pending.front());
    inst.pending.pop_front();
    dispatch(inst, out.port, std::move(out.buf));
  }
}

void Engine::dispatch(Instance& inst, int port, core::Buffer buf) {
  Writer& w = inst.writers[static_cast<std::size_t>(port)];
  obs::Track* tk = obs_track(inst);
  const bool ft = fault_tolerant();
  const core::Policy policy = w.stream->policy;
  const int key = buf.route_key();
  const auto& targets = w.stream->targets;
  const auto local = [&](int t) {
    return targets[static_cast<std::size_t>(t)]->host == inst.cset->host;
  };
  const auto dead = [&](int t) {
    return ft &&
           targets[static_cast<std::size_t>(t)]->down.load(
               std::memory_order_relaxed);
  };
  const auto all_dead = [&] {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (!dead(static_cast<int>(t))) return false;
    }
    return true;
  };

  // In-process governed mode lifts the per-target dispatch window: memory
  // residency is the governor's call (spill absorbs overflow), so a fixed
  // window would just reintroduce the stall this regime removes. Across a
  // transport the window is the credit protocol's bound and stays fixed.
  const int win = governor_ != nullptr && transport_ == nullptr
                      ? kElasticWindow
                      : config_.window;
  int target = -1;
  bool dropped = false;
  {
    std::unique_lock<std::mutex> lk(inst.wmu);
    target = w.pick(policy, win, w.stream->wrr_order, dead, local, key);
    if (target < 0 && !(ft && all_dead())) {
      // Stalled on the windows; re-evaluate after every release (a local
      // dequeue, a remote credit, or a dead target's reclamation). pick()
      // mutates rr_next only on success, so retrying it is safe.
      const auto t0 = Clock::now();
      const auto ready = [&] {
        if (aborted_.load(std::memory_order_relaxed)) return true;
        if (ft && all_dead()) return true;
        target = w.pick(policy, win, w.stream->wrr_order, dead, local, key);
        return target >= 0;
      };
      bool timed_out = false;
      if (ft) {
        // A stall can also mean the consumer died mid-window and detection
        // is pending — bound it so a detector failure cannot wedge us.
        timed_out = !inst.wcv.wait_until(
            lk,
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         transport_->settle_timeout_s())),
            ready);
      } else {
        inst.wcv.wait(lk, ready);
      }
      const double stalled = seconds_since(t0);
      inst.m.stall_time += stalled;
      if (tk != nullptr && obs_->enabled()) {
        // Window stall: timing-dependent, excluded from golden traces.
        tk->begin(obs_->seconds(t0), "stall");
        tk->end(obs_->now(), "stall");
      }
      if (transport_ != nullptr) transport_->window_stalled(w.stream->id, stalled);
      if (aborted_.load(std::memory_order_relaxed)) throw Aborted{};
      if (timed_out) {
        lk.unlock();
        settle_timeout("credit stall");
      }
    }
    if (target < 0) {
      // Every consumer copy set is dead: nowhere to deliver (the
      // simulator's all-targets-dead path).
      dropped = true;
    } else {
      w.on_dispatch(target);
      // Retain until released or reclaimed: core::Buffer is a shared
      // envelope, so this is a refcount, not a copy of the payload.
      if (ft) w.retained[static_cast<std::size_t>(target)].push_back(buf);
      if (tk != nullptr && obs_->enabled()) {
        // Routing decision: chosen target plus the policy's outstanding count
        // for it (unacked under DD, in-flight under RR/WRR) after dispatch.
        const auto& counts = policy == core::Policy::kDemandDriven
                                 ? w.unacked
                                 : w.in_flight;
        tk->instant(obs_->now(), "policy.pick", target,
                    counts[static_cast<std::size_t>(target)]);
      }
    }
  }
  if (dropped) {
    count_fault(&core::FaultMetrics::buffers_lost);
    return;
  }

  StreamDelta& sd = inst.stream_local[static_cast<std::size_t>(w.stream->id)];
  sd.buffers++;
  sd.payload_bytes += buf.size();
  sd.message_bytes += buf.size() + config_.header_bytes;
  inst.m.buffers_out++;
  inst.m.bytes_out += buf.size();

  CopySetRt* cset = targets[static_cast<std::size_t>(target)];
  const core::BufferRoute route{w.stream->id, inst.index, target,
                                static_cast<std::uint32_t>(uow_index_)};
  if (!is_local(cset->host)) {
    transport_->send_data(cset->host, route, std::move(buf));
    return;
  }
  // Blocking bounded push: capacity backpressure beyond the writer windows.
  const double pushed = cset->channel.push(
      w.stream->spec->to_port, Delivery{std::move(buf), route, inst.cset->host});
  inst.m.stall_time += pushed;
  if (pushed > 0.0 && tk != nullptr && obs_->enabled()) {
    // Channel backpressure: timing-dependent, excluded from golden traces.
    tk->instant(obs_->now(), "push.wait",
                static_cast<std::int64_t>(pushed * 1e6));
  }
}

// ---------------------------------------------------------------------------
// Inbound (transport receive threads) and failover
// ---------------------------------------------------------------------------

const char* Engine::route_error(const core::BufferRoute& route) const {
  if (route.stream < 0 || route.stream >= graph_.num_streams()) {
    return "frame with bad stream id";
  }
  const StreamRt& srt = *stream_rt_[static_cast<std::size_t>(route.stream)];
  if (route.target < 0 ||
      route.target >= static_cast<int>(srt.targets.size())) {
    return "frame with bad target index";
  }
  return nullptr;
}

const char* Engine::deliver(const core::BufferRoute& route, core::Buffer buf,
                            int origin) {
  if (const char* err = route_error(route)) return err;
  const StreamRt& srt = *stream_rt_[static_cast<std::size_t>(route.stream)];
  CopySetRt* t = srt.targets[static_cast<std::size_t>(route.target)];
  if (!is_local(t->host)) return "DATA addressed to a remote copy set";
  try {
    // Never blocks: the capacity covers the credit windows (see build_uow),
    // and a governed channel spills instead.
    t->channel.push(srt.spec->to_port, Delivery{std::move(buf), route, origin});
  } catch (const Aborted&) {
    // UOW aborted under us; the buffer is moot.
  }
  return nullptr;
}

const char* Engine::eow(const core::BufferRoute& route) {
  if (const char* err = route_error(route)) return err;
  const StreamRt& srt = *stream_rt_[static_cast<std::size_t>(route.stream)];
  CopySetRt* t = srt.targets[static_cast<std::size_t>(route.target)];
  if (!is_local(t->host)) return "EOW addressed to a remote copy set";
  if (fault_tolerant()) {
    // Exactly-once against the failover settlement: a failover may already
    // have settled this producer's marker (or the marker raced the death).
    auto& seen = t->eow_seen[static_cast<std::size_t>(route.stream)];
    if (route.producer < 0 ||
        route.producer >= static_cast<int>(seen.size())) {
      return "EOW with a bad producer index";
    }
    if (seen[static_cast<std::size_t>(route.producer)] != 0) return nullptr;
    seen[static_cast<std::size_t>(route.producer)] = 1;
  }
  t->channel.producer_eow(srt.spec->to_port);
  return nullptr;
}

const char* Engine::settle(const core::BufferRoute& route, bool ack) {
  if (const char* err = route_error(route)) return err;
  const auto& by_global = local_by_filter_[static_cast<std::size_t>(
      stream_rt_[static_cast<std::size_t>(route.stream)]->spec->from_filter)];
  if (route.producer < 0 ||
      route.producer >= static_cast<int>(by_global.size()) ||
      by_global[static_cast<std::size_t>(route.producer)] == nullptr) {
    return "credit/ack for a producer not on this rank";
  }
  release(route, /*credit=*/!ack, ack);
  return nullptr;
}

void Engine::fail_host(int host) {
  if (!fault_tolerant() || host < 0) return;
  const auto h = static_cast<std::size_t>(host);
  if (host_dead_.size() <= h) host_dead_.resize(h + 1, 0);
  host_dead_[h] = 1;
  for (auto& cs : copysets_) {
    if (cs->host != host || cs->down.load(std::memory_order_relaxed)) continue;
    cs->down.store(true, std::memory_order_relaxed);
    fail_copyset(*cs);
  }
}

void Engine::fail_copyset(CopySetRt& cset) {
  count_fault(&core::FaultMetrics::failovers);
  // Survivor census. A filter whose every copy is gone turns the UOW into
  // partial loss; list order matches the simulator's (copy sets in global
  // creation order, filter appended when its last copy dies).
  int& live = live_copies_[static_cast<std::size_t>(cset.filter)];
  live -= cset.copies_n;
  if (live <= 0) dead_filters_uow_.push_back(cset.filter);

  // Settle the dead copies' end-of-work obligations toward local consumer
  // sets: each was owed one marker per producer copy that has not already
  // delivered it (eow_seen makes marker vs. settlement exactly-once).
  for (int s : graph_.out_streams(cset.filter)) {
    const StreamRt& srt = *stream_rt_[static_cast<std::size_t>(s)];
    for (CopySetRt* t : srt.targets) {
      if (!is_local(t->host)) continue;
      auto& seen = t->eow_seen[static_cast<std::size_t>(s)];
      for (int g = cset.first_global; g < cset.first_global + cset.copies_n;
           ++g) {
        if (seen[static_cast<std::size_t>(g)] != 0) continue;
        seen[static_cast<std::size_t>(g)] = 1;
        t->channel.producer_eow(srt.spec->to_port);
      }
    }
  }

  // Reclaim from every local producer that was feeding the dead set: buffers
  // sent but never dequeued are lost copies; everything retained is requeued
  // for retransmission (oldest first, ahead of fresh output), so the payload
  // still reaches a live consumer at least once.
  for (auto& inst : instances_) {
    for (std::size_t p = 0; p < inst->writers.size(); ++p) {
      Writer& w = inst->writers[p];
      const auto& targets = w.stream->targets;
      for (std::size_t t = 0; t < targets.size(); ++t) {
        if (targets[t] != &cset) continue;
        std::uint64_t lost = 0;
        std::uint64_t rexmit = 0;
        {
          std::lock_guard<std::mutex> wlk(inst->wmu);
          lost = static_cast<std::uint64_t>(w.in_flight[t]);
          auto& ret = w.retained[t];
          rexmit = ret.size();
          for (auto it = ret.rbegin(); it != ret.rend(); ++it) {
            inst->retry.push_front(
                PendingOut{static_cast<int>(p), std::move(*it)});
          }
          ret.clear();
          w.in_flight[t] = 0;
          w.unacked[t] = 0;
          inst->wcv.notify_all();  // unblocks window stalls on the dead set
        }
        if (lost + rexmit > 0) {
          std::lock_guard<std::mutex> flk(faults_mu_);
          faults_.buffers_lost += lost;
          faults_.retransmits += rexmit;
        }
      }
    }
  }
}

void publish(const core::Metrics& m, obs::MetricsRegistry& reg,
             const std::string& prefix) {
  core::publish_ledger(m, reg, prefix);
  double queue_wait = 0.0, io_wait = 0.0;
  for (const auto& i : m.instances) {
    queue_wait += i.queue_wait_time;
    io_wait += i.io_wait_time;
  }
  reg.set(prefix + ".queue_wait_time", queue_wait);
  reg.set(prefix + ".io_wait_time", io_wait);
}

}  // namespace dc::exec
