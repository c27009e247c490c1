#include "net/distributed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/autoplace.hpp"

namespace dc::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kComplete:
      return "complete";
    case RunStatus::kAborted:
      return "aborted";
    case RunStatus::kTransportError:
      return "transport-error";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

DistributedEngine::DistributedEngine(const core::Graph& graph,
                                     const core::Placement& placement,
                                     core::RuntimeConfig config, int rank,
                                     int num_ranks, std::vector<Socket> peers,
                                     DistributedOptions opts, exec::HostInfo hosts)
    : graph_(graph),
      placement_(placement),
      opts_(opts),
      rank_(rank),
      num_ranks_(num_ranks),
      peer_sockets_(std::move(peers)),
      peer_done_next_(static_cast<std::size_t>(num_ranks), 0),
      rank_dead_(static_cast<std::size_t>(num_ranks)),
      last_heard_ns_(static_cast<std::size_t>(num_ranks)),
      hosts_counted_(static_cast<std::size_t>(num_ranks), 0),
      core_(graph, placement, std::move(config), std::move(hosts), this) {
  if (num_ranks_ <= 0 || rank_ < 0 || rank_ >= num_ranks_) {
    throw std::invalid_argument("net::DistributedEngine: bad rank/num_ranks");
  }
  if (fault_tolerant() && num_ranks_ > 64) {
    throw std::invalid_argument(
        "net::DistributedEngine: fault tolerance supports at most 64 ranks "
        "(the DONE frame's dead-rank bitmask is 64 bits)");
  }
  if (num_ranks_ > 1 &&
      peer_sockets_.size() != static_cast<std::size_t>(num_ranks_)) {
    throw std::invalid_argument(
        "net::DistributedEngine: peers must be indexed by rank");
  }
  for (int r = 0; r < num_ranks_; ++r) {
    if (r != rank_ && num_ranks_ > 1 &&
        !peer_sockets_[static_cast<std::size_t>(r)].valid()) {
      throw std::invalid_argument("net::DistributedEngine: missing peer " +
                                  std::to_string(r));
    }
  }
  for (int f = 0; f < graph_.num_filters(); ++f) {
    for (const auto& e : placement_.entries(f)) {
      if (e.host < 0 || e.host >= num_ranks_) {
        throw std::invalid_argument(
            "net::DistributedEngine: filter '" + graph_.filter(f).name +
            "' placed on host " + std::to_string(e.host) + " but only " +
            std::to_string(num_ranks_) + " rank(s) exist");
      }
    }
  }
}

DistributedEngine::~DistributedEngine() { shutdown(); }

void DistributedEngine::set_obs(obs::TraceSession* session) {
  obs_ = session;
  core_.set_obs(session);
  net_track_ =
      session != nullptr ? &session->track("net:r" + std::to_string(rank_))
                         : nullptr;
}

void DistributedEngine::start_links() {
  // Two phases: construct EVERY link before starting ANY pump thread. A
  // started link's recv thread may immediately call abort_run, which walks
  // links_ to broadcast — that walk must never race a later assignment.
  links_.resize(static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    if (r == rank_) continue;
    links_[static_cast<std::size_t>(r)] = std::make_unique<PeerLink>(
        rank_, r, std::move(peer_sockets_[static_cast<std::size_t>(r)]),
        &net_metrics_, obs_);
  }
  peer_sockets_.clear();
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < num_ranks_; ++r) {
    auto& l = links_[static_cast<std::size_t>(r)];
    if (!l) continue;
    last_heard_ns_[static_cast<std::size_t>(r)].store(
        t0, std::memory_order_relaxed);
    if (fault_tolerant()) l->enable_heartbeat(opts_.heartbeat_interval_s);
    l->start(
        [this](int peer, const Frame& f) { on_frame(peer, f); },
        [this](int peer, WireError err, const std::string& detail) {
          on_wire_error(peer, err, detail);
        });
  }
  if (fault_tolerant() && num_ranks_ > 1) {
    monitor_ = std::thread([this] { monitor_main(); });
  }
}

void DistributedEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lk(monitor_mu_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  for (auto& l : links_) {
    if (l) l->stop(/*flush=*/true);
  }
}

void DistributedEngine::monitor_main() {
  // Poll at half the beacon cadence; every received frame refreshes
  // last_heard, so a peer is suspected only after peer_timeout_s of total
  // silence — which a live peer never shows once beacons are armed.
  const auto poll = std::chrono::duration<double>(
      std::max(0.005, opts_.heartbeat_interval_s * 0.5));
  const auto timeout_ns =
      static_cast<std::int64_t>(opts_.peer_timeout_s * 1e9);
  std::unique_lock<std::mutex> lk(monitor_mu_);
  for (;;) {
    if (monitor_cv_.wait_for(lk, poll, [this] { return monitor_stop_; })) {
      return;
    }
    const std::int64_t now = now_ns();
    for (int r = 0; r < num_ranks_; ++r) {
      if (r == rank_ ||
          rank_dead_[static_cast<std::size_t>(r)].load(
              std::memory_order_relaxed) != 0) {
        continue;
      }
      if (now - last_heard_ns_[static_cast<std::size_t>(r)].load(
                    std::memory_order_relaxed) <=
          timeout_ns) {
        continue;
      }
      lk.unlock();
      on_peer_dead(r);
      lk.lock();
      if (monitor_stop_) return;
    }
  }
}

void DistributedEngine::bound_outboxes() {
  // Per local producer copy, `window` un-credited buffers per target copy
  // set — plus headroom so control frames (which bypass the bound anyway)
  // never contend. A wedged peer then back-pressures producers at the
  // outbox instead of growing it without bound.
  std::size_t data_bound = 0;
  for (int f = 0; f < graph_.num_filters(); ++f) {
    std::size_t local = 0;
    for (const auto& e : pl().entries(f)) {
      if (e.host == rank_) local += static_cast<std::size_t>(e.copies);
    }
    for (int s : graph_.out_streams(f)) {
      data_bound += local * pl().entries(graph_.stream(s).to_filter).size() *
                    static_cast<std::size_t>(core_.config().window);
    }
  }
  constexpr std::size_t kControlHeadroom = 64;
  for (auto& l : links_) {
    if (l) l->set_outbox_capacity(std::max<std::size_t>(1, data_bound) +
                                  kControlHeadroom);
  }
}

// ---------------------------------------------------------------------------
// exec::Transport (engine worker threads)
// ---------------------------------------------------------------------------

void DistributedEngine::send_data(int host, const core::BufferRoute& route,
                                  core::Buffer buf) {
  // Zero-copy: the frame shares the producer's buffer storage; the send
  // pump's scatter-gather write reads it in place.
  const std::uint64_t nbytes = buf.size();
  links_[static_cast<std::size_t>(host)]->send(
      make_frame(FrameType::kData, route, std::move(buf)));
  if (fault_cell_ != nullptr) {
    fault_cell_->advance(FaultTrigger::kFrames, 1);
    fault_cell_->advance(FaultTrigger::kBytes, nbytes);
  }
}

void DistributedEngine::send_eow(int host, const core::BufferRoute& route) {
  // Enqueued on the same per-peer FIFO as this copy's DATA frames, so
  // markers cannot overtake data on the wire.
  links_[static_cast<std::size_t>(host)]->send(
      make_frame(FrameType::kEow, route));
}

void DistributedEngine::send_settle(int host, const core::BufferRoute& route,
                                    bool ack) {
  PeerLink* link = links_[static_cast<std::size_t>(host)].get();
  if (link == nullptr) return;
  link->send(make_frame(FrameType::kCredit, route));
  if (ack) link->send(make_frame(FrameType::kAck, route));
}

void DistributedEngine::window_stalled(int stream, double seconds) {
  const auto us = static_cast<std::int64_t>(seconds * 1e6);
  net_metrics_.record_credit_stall(static_cast<std::uint64_t>(us));
  if (net_track_ != nullptr && obs_->enabled()) {
    net_track_->instant(obs_->now(), "credit.stall", stream, us);
  }
}

void DistributedEngine::worker_failed(const std::string& reason,
                                      bool transport_error) {
  abort_run(transport_error ? RunStatus::kTransportError : RunStatus::kAborted,
            reason, /*broadcast=*/true);
}

// ---------------------------------------------------------------------------
// Frame handling (peer-link recv threads)
// ---------------------------------------------------------------------------

void DistributedEngine::on_frame(int peer, const Frame& f) {
  if (fault_tolerant() && peer >= 0 && peer < num_ranks_) {
    // Liveness piggybacks on every frame; beacons only fill idle gaps.
    last_heard_ns_[static_cast<std::size_t>(peer)].store(
        now_ns(), std::memory_order_relaxed);
    if (rank_dead_[static_cast<std::size_t>(peer)].load(
            std::memory_order_relaxed) != 0) {
      // A declared-dead (possibly only frozen) peer spoke again. Its copy
      // sets are failed over and its windows reclaimed, so nothing here can
      // be settled — but a DD ack for a reclaimed buffer means the payload
      // was both processed there and retransmitted elsewhere: a potential
      // duplicate delivery, counted like the simulator's ack-races-failover.
      const int fs = static_cast<int>(f.header.route.stream);
      if (f.type() == FrameType::kAck && fs >= 0 &&
          fs < graph_.num_streams() &&
          core::effective_policy(core_.config().policy, graph_.stream(fs)) ==
              core::Policy::kDemandDriven) {
        core_.count_fault(&core::FaultMetrics::buffers_duplicated);
      }
      return;
    }
    if (f.type() == FrameType::kHeartbeat) return;
  }
  switch (f.type()) {
    case FrameType::kAbort: {
      // Aborts are per-UOW: one that refers to a UOW we already completed
      // must not leak into the next (the peer's failed UOW was our clean
      // one — both engines stay usable). One for a future UOW is honored
      // when that UOW starts.
      bool act = false;
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        const std::uint32_t uow = f.header.route.uow;
        const auto current = current_uow();
        if (uow > current) {
          pending_aborts_.insert(uow);
        } else if (uow == current) {
          act = true;
        }
      }
      if (act) {
        abort_run(RunStatus::kAborted,
                  "aborted by rank " + std::to_string(peer),
                  /*broadcast=*/false);
      }
      return;
    }
    case FrameType::kDone: {
      if (fault_tolerant() && f.payload.size() >= 8) {
        // The DONE carries the sender's dead-rank bitmask: membership
        // converges at the barrier even when detection was asymmetric
        // (e.g. only one rank's monitor timed a frozen peer out so far).
        std::uint64_t mask = 0;
        const auto mask_bytes = f.payload.bytes();
        for (int i = 0; i < 8; ++i) {
          mask |= static_cast<std::uint64_t>(
                      mask_bytes[static_cast<std::size_t>(i)])
                  << (8 * i);
        }
        for (int r = 0; r < num_ranks_ && r < 64; ++r) {
          if (r == rank_ || ((mask >> r) & 1U) == 0) continue;
          on_peer_dead(r);
        }
      }
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        done_counts_[f.header.route.uow]++;
        auto& next = peer_done_next_[static_cast<std::size_t>(peer)];
        next = std::max(next, f.header.route.uow + 1);
      }
      state_cv_.notify_all();
      return;
    }
    case FrameType::kHeartbeat:
      return;  // pure liveness; meaningful only under fault tolerance
    case FrameType::kData:
    case FrameType::kCredit:
    case FrameType::kAck:
    case FrameType::kEow: {
      const char* err = nullptr;
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        const std::uint32_t uow = f.header.route.uow;
        const auto current = current_uow();
        if (!built_ || uow != current) {
          // A fast peer can run at most one UOW ahead (the DONE barrier
          // separates consecutive units): stash the frame with its sender,
          // replayed when that UOW builds. Frames for a torn-down UOW (abort
          // races) park here harmlessly too. Anything further ahead violates
          // the protocol — escalate instead of buffering it without bound.
          if (uow > current + 1) {
            err = "frame for a UOW more than one ahead";
          } else if (uow >= current) {
            pending_.emplace_back(peer, f);
          }
        } else {
          err = deliver_locked(peer, f);
        }
      }
      if (err != nullptr) {
        abort_run(RunStatus::kTransportError,
                  std::string(err) + " (from rank " + std::to_string(peer) +
                      ")",
                  /*broadcast=*/true);
      }
      return;
    }
    default:
      abort_run(RunStatus::kTransportError,
                "unexpected frame type from rank " + std::to_string(peer),
                /*broadcast=*/true);
      return;
  }
}

const char* DistributedEngine::deliver_locked(int peer, const Frame& f) {
  const core::BufferRoute& route = f.header.route;
  switch (f.type()) {
    case FrameType::kData:
      // The frame's payload already sits in arena-leased storage (the recv
      // path read it there); the delivered buffer adopts it.
      return core_.deliver(route, f.payload, peer);
    case FrameType::kEow:
      return core_.eow(route);
    case FrameType::kCredit:
      return core_.settle(route, /*ack=*/false);
    case FrameType::kAck:
      return core_.settle(route, /*ack=*/true);
    default:
      return "unroutable frame type";
  }
}

void DistributedEngine::on_wire_error(int peer, WireError err,
                                      const std::string& detail) {
  if (fault_tolerant()) {
    // Under fault tolerance every wire failure — orderly close included —
    // is a membership event, not a transport error: the mesh is how this
    // engine observes peer death. A close from a peer that simply finished
    // first (post-final-UOW teardown) marks it dead harmlessly: lockstep
    // means no further UOW will need it, and its death is only charged to
    // the fault ledger if another UOW actually runs.
    on_peer_dead(peer);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (status_ != RunStatus::kComplete) return;  // already unwinding
    if (err == WireError::kClosed &&
        (!running_ ||
         peer_done_next_[static_cast<std::size_t>(peer)] >
             current_uow())) {
      // Orderly close: either we are between/after UOWs, or the peer has
      // already sent its DONE for the current UOW (its workers finished, so
      // every frame it will ever send has been received — TCP delivers the
      // close after them) and simply tore down before our barrier woke.
      return;
    }
  }
  abort_run(RunStatus::kTransportError, "wire error: " + detail,
            /*broadcast=*/true);
}

void DistributedEngine::on_peer_dead(int peer) {
  if (!fault_tolerant() || peer == rank_ || peer < 0 || peer >= num_ranks_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto& dead = rank_dead_[static_cast<std::size_t>(peer)];
    if (dead.load(std::memory_order_relaxed) != 0) return;  // idempotent
    dead.store(1, std::memory_order_relaxed);
    // Straddle rule: if the peer already sent DONE for the current UOW,
    // every frame it will ever send for it has been received (TCP delivers
    // the close after them) — this UOW is whole. Only membership changes;
    // the next UOW's admission books the failover, exactly like the
    // simulator failing a host between run_uow calls.
    const bool in_current =
        built_ && running_ &&
        peer_done_next_[static_cast<std::size_t>(peer)] <=
            current_uow();
    if (in_current) {
      hosts_counted_[static_cast<std::size_t>(peer)] = 1;
      core_.count_fault(&core::FaultMetrics::hosts_failed);
      hosts_failed_uow_.fetch_add(1, std::memory_order_relaxed);
      core_.fail_host(peer);
    }
  }
  state_cv_.notify_all();  // barrier predicate: dead peers need no DONE
}

bool DistributedEngine::charge_boundary_death_locked(int peer) {
  auto& counted = hosts_counted_[static_cast<std::size_t>(peer)];
  if (counted != 0) return false;
  // Charged to the cumulative ledger now that a UOW actually runs without
  // the rank. Kept out of hosts_failed_uow_: the simulator's on_host_failed
  // is gated on in_uow_, so boundary deaths perturb a UOW only through their
  // admission failovers.
  counted = 1;
  core_.count_fault(&core::FaultMetrics::hosts_failed);
  return true;
}

void DistributedEngine::abort_run(RunStatus status, const std::string& reason,
                                  bool broadcast) {
  bool first = false;
  std::uint32_t uow = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (status_ == RunStatus::kComplete) {
      status_ = status;
      error_ = reason;
      first = true;
    }
    // A transport error is permanent — the failed link's pump threads are
    // gone. Poison immediately so a later run_uow() can't reset the status
    // and stall on the dead link until the barrier timeout.
    if (status == RunStatus::kTransportError) poisoned_ = true;
    uow = current_uow();
    // Not yet built: run_uow aborts the executor once it publishes the UOW.
    if (built_) core_.abort();
  }
  state_cv_.notify_all();
  if (first && broadcast) {
    core::BufferRoute route;
    route.uow = uow;
    for (auto& l : links_) {
      if (l) l->send(make_frame(FrameType::kAbort, route));
    }
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

UowResult DistributedEngine::run_uow() {
  // Process-fault harness hook: a planned kill/freeze pinned to this UOW
  // index lands here, before any of this UOW's state exists.
  if (fault_cell_ != nullptr) fault_cell_->at_uow(core_.uow_index());

  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (poisoned_) {
      UowResult r;
      r.status = status_;
      r.error = error_.empty() ? "engine poisoned by earlier failure" : error_;
      return r;
    }
    status_ = RunStatus::kComplete;
    error_.clear();
    // Honor (and prune) aborts that arrived for UOWs we had not started.
    const auto current = current_uow();
    while (!pending_aborts_.empty() && *pending_aborts_.begin() < current) {
      pending_aborts_.erase(pending_aborts_.begin());
    }
    if (!pending_aborts_.empty() && *pending_aborts_.begin() == current) {
      // Every rank aborts this UOW (the originator broadcast it); skipping
      // the run keeps lockstep — nobody sends frames or DONE for it.
      pending_aborts_.erase(pending_aborts_.begin());
      UowResult r;
      r.status = status_ = RunStatus::kAborted;
      r.error = error_ = "aborted by a peer before start (UOW " +
                         std::to_string(current) + ")";
      core_.end_uow(0.0);  // nothing was built; only the index advances
      return r;
    }
  }
  if (links_.empty() && num_ranks_ > 1) start_links();

  // Fault-ledger snapshot: the outcome reports this UOW's deltas, with the
  // admission failovers inside the window (the simulator counts admission
  // failovers in the UOW they gate, too).
  const bool ft = fault_tolerant();
  core::FaultMetrics faults_before;
  if (ft) {
    faults_before = core_.fault_metrics();
    hosts_failed_uow_.store(0, std::memory_order_relaxed);
    std::vector<char> dead(static_cast<std::size_t>(num_ranks_), 0);
    bool any_dead = false;
    bool newly_dead = false;
    std::lock_guard<std::mutex> lk(state_mu_);
    for (int r = 0; r < num_ranks_; ++r) {
      if (rank_dead_[static_cast<std::size_t>(r)].load(
              std::memory_order_relaxed) == 0) {
        continue;
      }
      dead[static_cast<std::size_t>(r)] = 1;
      any_dead = true;
      if (charge_boundary_death_locked(r)) newly_dead = true;
      core_.fail_host(r);  // admission failover at begin_uow
    }
    if (opts_.replace_dead && any_dead && (newly_dead || !use_effective_)) {
      // Live re-placement: move copies off dead ranks (copy counts and
      // entry order preserved, so copy-indexed state stays deterministic).
      // Every rank computes this from the same inputs — the original
      // placement and the dead set the barrier converged on.
      std::uint64_t moved = 0;
      for (int f = 0; f < graph_.num_filters(); ++f) {
        for (const auto& e : pl().entries(f)) {
          if (dead[static_cast<std::size_t>(e.host)] != 0) ++moved;
        }
      }
      effective_placement_ = core::replace_dead_hosts(
          placement_, graph_.num_filters(), num_ranks_, dead);
      use_effective_ = true;
      core_.set_placement(effective_placement_);
      if (moved > 0) core_.count_fault(&core::FaultMetrics::failovers, moved);
    }
  }

  bound_outboxes();
  core_.begin_uow();
  const auto uow = current_uow();
  const char* replay_err = nullptr;
  int replay_peer = -1;
  {
    // Publish the structures, then replay frames that arrived early (a peer
    // that passed the previous barrier first may already be streaming). A
    // stashed frame is held to the same rules as a live one.
    std::lock_guard<std::mutex> lk(state_mu_);
    built_ = true;
    running_ = true;
    if (status_ != RunStatus::kComplete) core_.abort();
    if (ft) {
      // A rank that died after the admission census above but before the
      // structures were published was only marked dead (on_peer_dead does
      // not touch an unbuilt UOW). Fail it over now, before any worker
      // runs; fail_host skips copy sets already down at admission.
      for (int r = 0; r < num_ranks_; ++r) {
        if (rank_dead_[static_cast<std::size_t>(r)].load(
                std::memory_order_relaxed) == 0) {
          continue;
        }
        charge_boundary_death_locked(r);
        core_.fail_host(r);
      }
    }
    std::vector<std::pair<int, Frame>> replay;
    replay.swap(pending_);
    for (auto& [peer, f] : replay) {
      if (f.header.route.uow == uow) {
        const char* err = deliver_locked(peer, f);
        if (err != nullptr && replay_err == nullptr) {
          replay_err = err;
          replay_peer = peer;
        }
      } else if (f.header.route.uow > uow) {
        pending_.emplace_back(peer, std::move(f));
      }
    }
  }
  if (replay_err != nullptr) {
    abort_run(RunStatus::kTransportError,
              std::string(replay_err) + " (from rank " +
                  std::to_string(replay_peer) + ")",
              /*broadcast=*/true);
  }

  const auto t0 = Clock::now();
  core_.run_workers();

  // Completion barrier: announce our DONE, wait for every peer's. Peers'
  // CREDIT/ACK frames for our producers may still arrive during the wait
  // (their consumers can lag); the structures stay live until after it.
  bool failed = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    failed = status_ != RunStatus::kComplete;
  }
  if (!failed) {
    core::BufferRoute route;
    route.uow = uow;
    Frame done;
    if (ft) {
      // Piggyback this rank's view of the dead set on the DONE (64-bit LE
      // bitmask): peers that never saw the failed rank's close converge on
      // the same membership at the same barrier.
      std::uint64_t mask = 0;
      for (int r = 0; r < num_ranks_ && r < 64; ++r) {
        if (rank_dead_[static_cast<std::size_t>(r)].load(
                std::memory_order_relaxed) != 0) {
          mask |= (std::uint64_t{1} << r);
        }
      }
      std::vector<std::byte> payload(8);
      for (int i = 0; i < 8; ++i) {
        payload[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((mask >> (8 * i)) & 0xff);
      }
      done = make_frame(FrameType::kDone, route, std::move(payload));
    } else {
      done = make_frame(FrameType::kDone, route);
    }
    for (auto& l : links_) {
      if (l) l->send(done);
    }
    if (ft) {
      // Flush fence: once the DONE hits the kernel, TCP orders it ahead of
      // any later close — even a SIGKILL-induced FIN. That pins "died after
      // finishing UOW k" vs "died during UOW k" deterministically, which
      // the kill-at-UOW-entry fault tests rely on.
      for (auto& l : links_) {
        if (l) l->wait_flushed(opts_.barrier_timeout_s);
      }
    }
    bool timed_out = false;
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(opts_.barrier_timeout_s);
      timed_out = !state_cv_.wait_until(lk, deadline, [&] {
        if (status_ != RunStatus::kComplete) return true;
        if (!ft) return done_counts_[uow] >= num_ranks_ - 1;
        for (int r = 0; r < num_ranks_; ++r) {
          if (r == rank_) continue;
          if (peer_done_next_[static_cast<std::size_t>(r)] > uow) continue;
          if (rank_dead_[static_cast<std::size_t>(r)].load(
                  std::memory_order_relaxed) != 0) {
            continue;
          }
          return false;
        }
        return true;
      });
    }
    if (timed_out) {
      abort_run(RunStatus::kTransportError,
                "completion barrier timed out after " +
                    std::to_string(opts_.barrier_timeout_s) + "s",
                /*broadcast=*/true);
    }
  }

  const double makespan = seconds_since(t0);
  UowResult r;
  r.makespan = makespan;
  r.outcome.makespan = makespan;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    built_ = false;
    running_ = false;
    done_counts_.erase(uow);
    // The peer-link recv threads read the executor's UOW index under
    // state_mu_ (frame stashing, orderly-close classification); tear down
    // and advance it under the same lock.
    core_.end_uow(makespan);
    r.status = status_;
    r.error = error_;
    // Only transport-plane failures poison the engine: the mesh (or a
    // peer's runtime state) is unrecoverable. An app-level abort (filter
    // exception, explicit ABORT) ends this UOW in lockstep but leaves the
    // links healthy — the next UOW runs normally.
    if (r.status == RunStatus::kTransportError) poisoned_ = true;
  }

  if (ft && r.status != RunStatus::kTransportError) {
    const core::FaultMetrics after = core_.fault_metrics();
    r.outcome.failovers = after.failovers - faults_before.failovers;
    r.outcome.retransmits = after.retransmits - faults_before.retransmits;
    r.outcome.buffers_lost = after.buffers_lost - faults_before.buffers_lost;
    r.outcome.buffers_duplicated =
        after.buffers_duplicated - faults_before.buffers_duplicated;
    r.outcome.dead_filters = core_.dead_filters();
    const bool perturbed =
        r.outcome.failovers > 0 || r.outcome.retransmits > 0 ||
        r.outcome.buffers_lost > 0 ||
        hosts_failed_uow_.load(std::memory_order_relaxed) > 0;
    r.outcome.status = !r.outcome.dead_filters.empty()
                           ? core::UowStatus::kPartialLoss
                           : (perturbed ? core::UowStatus::kDegraded
                                        : core::UowStatus::kComplete);
  }
  return r;
}

}  // namespace dc::net
