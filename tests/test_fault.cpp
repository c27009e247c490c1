#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/runtime.hpp"
#include "obs/recorder.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace dc::core {
namespace {

// ---------------------------------------------------------------------------
// Payload-tracking pipeline: the source stamps every buffer with a sequence
// number and the workers record which stamps reached a live consumer, so
// tests can assert at-least-once delivery (no payload lost) across faults.
// ---------------------------------------------------------------------------

class StampedSource : public SourceFilter {
 public:
  explicit StampedSource(int count) : count_(count) {}
  bool step(FilterContext& ctx) override {
    if (i_ >= count_) return false;
    ctx.charge(1000.0);
    Buffer b = ctx.make_buffer(0);
    b.push(static_cast<std::uint32_t>(i_));
    ctx.write(0, b);
    ++i_;
    return i_ < count_;
  }

 private:
  int count_;
  int i_ = 0;
};

class RecordingWorker : public Filter {
 public:
  RecordingWorker(std::shared_ptr<std::set<std::uint32_t>> seen, double ops)
      : seen_(std::move(seen)), ops_(ops) {}
  void process_buffer(FilterContext& ctx, int, const Buffer& buf) override {
    ctx.charge(ops_);
    seen_->insert(buf.records<std::uint32_t>()[0]);
  }

 private:
  std::shared_ptr<std::set<std::uint32_t>> seen_;
  double ops_;
};

struct RunResult {
  UowOutcome outcome;
  FaultMetrics faults;
  std::set<std::uint32_t> seen;
};

/// host0: source. host1, host2: one worker copy each. Runs one UOW with the
/// given policy / detection mode, optionally arming a fault plan and poking
/// the topology before the run starts.
RunResult run_pipeline(
    Policy pol, FailureDetection det, int buffers, double worker_ops,
    const sim::FaultPlan* plan = nullptr,
    const std::function<void(sim::Topology&)>& poke = {},
    const std::function<void(RuntimeConfig&)>& tweak = {}) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 3);
  auto seen = std::make_shared<std::set<std::uint32_t>>();
  Graph g;
  const int src = g.add_source(
      "src", [=] { return std::make_unique<StampedSource>(buffers); });
  const int wrk = g.add_filter("work", [seen, worker_ops] {
    return std::make_unique<RecordingWorker>(seen, worker_ops);
  });
  g.connect(src, 0, wrk, 0);
  Placement p;
  p.place(src, 0).place(wrk, 1).place(wrk, 2);
  RuntimeConfig cfg;
  cfg.policy = pol;
  cfg.detection = det;
  if (tweak) tweak(cfg);
  Runtime rt(topo, g, p, cfg);
  if (plan) plan->arm(topo);
  if (poke) poke(topo);
  RunResult r;
  r.outcome = rt.run_uow_outcome();
  r.faults = rt.metrics().faults;
  r.seen = *seen;
  return r;
}

std::set<std::uint32_t> all_stamps(int buffers) {
  std::set<std::uint32_t> s;
  for (int i = 0; i < buffers; ++i) s.insert(static_cast<std::uint32_t>(i));
  return s;
}

constexpr int kBuffers = 80;
constexpr double kWorkerOps = 1e6;  // 2 ms per buffer on a plain node

/// Clean makespan of the pipeline under `det`, for placing mid-run faults.
sim::SimTime clean_makespan(Policy pol, FailureDetection det) {
  return run_pipeline(pol, det, kBuffers, kWorkerOps).outcome.makespan;
}

// ---------------------------------------------------------------------------
// Graceful degradation: the ISSUE's headline scenarios
// ---------------------------------------------------------------------------

TEST(FaultRuntime, CleanRunIsComplete) {
  const RunResult r = run_pipeline(Policy::kDemandDriven,
                                   FailureDetection::kMembership, kBuffers,
                                   kWorkerOps);
  EXPECT_EQ(r.outcome.status, UowStatus::kComplete);
  EXPECT_TRUE(r.outcome.data_complete());
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_EQ(r.faults.failovers, 0u);
  EXPECT_EQ(r.faults.retransmits, 0u);
  EXPECT_EQ(r.faults.buffers_lost, 0u);
}

TEST(FaultRuntime, DemandDrivenSurvivesKillingOneCopyMidUow) {
  const sim::SimTime mk =
      clean_makespan(Policy::kDemandDriven, FailureDetection::kMembership);
  sim::FaultPlan plan;
  plan.crash_host(0.4 * mk, 1);
  const RunResult r =
      run_pipeline(Policy::kDemandDriven, FailureDetection::kMembership,
                   kBuffers, kWorkerOps, &plan);
  // The UOW completes in degraded mode with zero lost payload: every stamp
  // reached a live consumer at least once.
  EXPECT_EQ(r.outcome.status, UowStatus::kDegraded);
  EXPECT_TRUE(r.outcome.data_complete());
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_EQ(r.faults.hosts_failed, 1u);
  EXPECT_GE(r.outcome.failovers, 1u);
  EXPECT_GE(r.outcome.retransmits, 1u);
  // Degradation costs time: one consumer is gone.
  EXPECT_GT(r.outcome.makespan, mk);
}

TEST(FaultRuntime, SameSeedAndPlanReplayBitIdentically) {
  const sim::SimTime mk =
      clean_makespan(Policy::kDemandDriven, FailureDetection::kMembership);
  sim::FaultPlan plan;
  plan.crash_host(0.4 * mk, 1);
  const RunResult a =
      run_pipeline(Policy::kDemandDriven, FailureDetection::kMembership,
                   kBuffers, kWorkerOps, &plan);
  const RunResult b =
      run_pipeline(Policy::kDemandDriven, FailureDetection::kMembership,
                   kBuffers, kWorkerOps, &plan);
  EXPECT_EQ(a.outcome.makespan, b.outcome.makespan);  // bit-identical
  EXPECT_EQ(a.outcome.status, b.outcome.status);
  EXPECT_EQ(a.outcome.failovers, b.outcome.failovers);
  EXPECT_EQ(a.outcome.retransmits, b.outcome.retransmits);
  EXPECT_EQ(a.outcome.buffers_lost, b.outcome.buffers_lost);
  EXPECT_EQ(a.outcome.buffers_duplicated, b.outcome.buffers_duplicated);
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.faults.recovery_latency_total, b.faults.recovery_latency_total);
}

TEST(FaultRuntime, KillingEveryCopyYieldsStructuredPartialLoss) {
  const sim::SimTime mk =
      clean_makespan(Policy::kDemandDriven, FailureDetection::kMembership);
  sim::FaultPlan plan;
  plan.crash_host(0.3 * mk, 1).crash_host(0.35 * mk, 2);
  // Must return (not hang, not crash) with a structured degraded outcome.
  const RunResult r =
      run_pipeline(Policy::kDemandDriven, FailureDetection::kMembership,
                   kBuffers, kWorkerOps, &plan);
  EXPECT_EQ(r.outcome.status, UowStatus::kPartialLoss);
  EXPECT_FALSE(r.outcome.data_complete());
  ASSERT_EQ(r.outcome.dead_filters.size(), 1u);
  EXPECT_EQ(r.outcome.dead_filters[0], 1);  // the worker filter
  EXPECT_GE(r.outcome.failovers, 2u);
  EXPECT_GT(r.outcome.buffers_lost, 0u);
  EXPECT_LT(r.seen.size(), static_cast<std::size_t>(kBuffers));
}

TEST(FaultRuntime, RoundRobinFailsOverWithMembership) {
  const sim::SimTime mk =
      clean_makespan(Policy::kRoundRobin, FailureDetection::kMembership);
  sim::FaultPlan plan;
  plan.crash_host(0.4 * mk, 2);
  const RunResult r =
      run_pipeline(Policy::kRoundRobin, FailureDetection::kMembership,
                   kBuffers, kWorkerOps, &plan);
  EXPECT_EQ(r.outcome.status, UowStatus::kDegraded);
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_GE(r.outcome.failovers, 1u);
}

TEST(FaultRuntime, WeightedRoundRobinFailsOverWithMembership) {
  const sim::SimTime mk = clean_makespan(Policy::kWeightedRoundRobin,
                                         FailureDetection::kMembership);
  sim::FaultPlan plan;
  plan.crash_host(0.4 * mk, 1);
  const RunResult r =
      run_pipeline(Policy::kWeightedRoundRobin, FailureDetection::kMembership,
                   kBuffers, kWorkerOps, &plan);
  EXPECT_EQ(r.outcome.status, UowStatus::kDegraded);
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_GE(r.outcome.failovers, 1u);
}

TEST(FaultRuntime, CrashWithoutDetectionDeadlocksStructurally) {
  // The seed behavior: no detection means a mid-UOW crash starves the event
  // queue. The runtime reports it as an error instead of hanging.
  const sim::SimTime mk =
      clean_makespan(Policy::kDemandDriven, FailureDetection::kNone);
  sim::FaultPlan plan;
  plan.crash_host(0.4 * mk, 1);
  EXPECT_THROW(run_pipeline(Policy::kDemandDriven, FailureDetection::kNone,
                            kBuffers, kWorkerOps, &plan),
               std::runtime_error);
}

TEST(FaultRuntime, PreFailedHostIsExcludedAtAdmission) {
  // Host 1 is already dead when the UOW starts: its copies never join, and
  // routing excludes the copy set from the first buffer on.
  const RunResult r = run_pipeline(
      Policy::kDemandDriven, FailureDetection::kMembership, kBuffers,
      kWorkerOps, nullptr, [](sim::Topology& t) { t.fail_host(1); });
  EXPECT_EQ(r.outcome.status, UowStatus::kDegraded);
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_GE(r.outcome.failovers, 1u);
  EXPECT_EQ(r.outcome.retransmits, 0u);  // nothing was ever sent to it
}

// ---------------------------------------------------------------------------
// End-to-end (ack-timeout) detection
// ---------------------------------------------------------------------------

void tighten_timeouts(RuntimeConfig& cfg) {
  cfg.ack_timeout = 0.004;
  cfg.ack_timeout_backoff = 2.0;
  cfg.ack_timeout_max = 0.02;
  cfg.ack_timeout_strikes = 2;
}

TEST(FaultRuntime, AckTimeoutFencesPartitionedConsumer) {
  const sim::SimTime mk = run_pipeline(Policy::kDemandDriven,
                                       FailureDetection::kAckTimeout, kBuffers,
                                       kWorkerOps, nullptr, {},
                                       tighten_timeouts)
                              .outcome.makespan;
  sim::FaultPlan plan;
  plan.partition_host(0.3 * mk, 1);  // unreachable but alive: no oracle helps
  const RunResult r =
      run_pipeline(Policy::kDemandDriven, FailureDetection::kAckTimeout,
                   kBuffers, kWorkerOps, &plan, {}, tighten_timeouts);
  EXPECT_EQ(r.outcome.status, UowStatus::kDegraded);
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_GE(r.outcome.failovers, 1u);
  EXPECT_GE(r.outcome.retransmits, 1u);
  // Detection took at least one full timeout of silence.
  EXPECT_GE(r.faults.recovery_latency_max, 0.004);
}

TEST(FaultRuntime, AckTimeoutSurvivesHostCrashWithoutMembershipRouting) {
  const sim::SimTime mk = run_pipeline(Policy::kDemandDriven,
                                       FailureDetection::kAckTimeout, kBuffers,
                                       kWorkerOps, nullptr, {},
                                       tighten_timeouts)
                              .outcome.makespan;
  sim::FaultPlan plan;
  plan.crash_host(0.4 * mk, 2);
  const RunResult r =
      run_pipeline(Policy::kDemandDriven, FailureDetection::kAckTimeout,
                   kBuffers, kWorkerOps, &plan, {}, tighten_timeouts);
  EXPECT_EQ(r.outcome.status, UowStatus::kDegraded);
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_GE(r.outcome.failovers, 1u);
}

TEST(FaultRuntime, AckTimeoutToleratesSlowButAliveConsumer) {
  // A consumer at 1/9 speed keeps acking, just slowly — the progress check
  // must not fence it (no false positives).
  const RunResult r = run_pipeline(
      Policy::kDemandDriven, FailureDetection::kAckTimeout, kBuffers,
      kWorkerOps, nullptr,
      [](sim::Topology& t) { t.host(1).cpu().set_background_jobs(8); });
  EXPECT_EQ(r.outcome.status, UowStatus::kComplete);
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_EQ(r.outcome.failovers, 0u);
  EXPECT_EQ(r.outcome.retransmits, 0u);
}

TEST(FaultRuntime, AckTimeoutRequiresDemandDriven) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 2);
  Graph g;
  const int src =
      g.add_source("src", [] { return std::make_unique<StampedSource>(1); });
  const int wrk = g.add_filter("work", [] {
    return std::make_unique<RecordingWorker>(
        std::make_shared<std::set<std::uint32_t>>(), 1.0);
  });
  g.connect(src, 0, wrk, 0);
  Placement p;
  p.place(src, 0).place(wrk, 1);
  RuntimeConfig cfg;
  cfg.policy = Policy::kRoundRobin;
  cfg.detection = FailureDetection::kAckTimeout;
  EXPECT_THROW(Runtime(topo, g, p, cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Performance faults perturb timing without losing data
// ---------------------------------------------------------------------------

TEST(FaultRuntime, BackgroundLoadStretchesMakespanWithoutLoss) {
  const sim::SimTime mk =
      clean_makespan(Policy::kRoundRobin, FailureDetection::kMembership);
  sim::FaultPlan plan;
  plan.background_load(0.2 * mk, 1, 8);  // host 1 drops to 1/9 speed
  const RunResult r =
      run_pipeline(Policy::kRoundRobin, FailureDetection::kMembership,
                   kBuffers, kWorkerOps, &plan);
  EXPECT_EQ(r.outcome.status, UowStatus::kComplete);  // slow is not dead
  EXPECT_EQ(r.seen, all_stamps(kBuffers));
  EXPECT_GT(r.outcome.makespan, mk);
}

// ---------------------------------------------------------------------------
// Sim-level fault-injection entry points
// ---------------------------------------------------------------------------

TEST(FaultSim, DiskSlowdownScalesServiceTime) {
  sim::Simulation s;
  sim::Disk d(s, 50e6, 8e-3);
  sim::SimTime t1 = -1.0, t2 = -1.0;
  d.read(50e6, [&] { t1 = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(t1, 8e-3 + 1.0);
  d.set_slowdown(4.0);
  EXPECT_DOUBLE_EQ(d.slowdown(), 4.0);
  d.read(50e6, [&] { t2 = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(t2 - t1, 4.0 * (8e-3 + 1.0));
  EXPECT_THROW(d.set_slowdown(0.0), std::invalid_argument);
}

TEST(FaultSim, DiskStallDelaysNewRequests) {
  sim::Simulation s;
  sim::Disk d(s, 50e6, 0.0);
  d.stall(0.5);
  EXPECT_EQ(d.stalls(), 1u);
  sim::SimTime t = -1.0;
  d.read(50e6, [&] { t = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(t, 0.5 + 1.0);
}

TEST(FaultSim, LinkDegradeScalesBandwidth) {
  sim::Simulation s;
  sim::Link l(s, 100e6, 0.0);
  const auto a = l.reserve(100e6, 0.0);
  EXPECT_DOUBLE_EQ(a.end - a.start, 1.0);
  l.set_degrade_factor(0.25);
  const auto b = l.reserve(100e6, a.end);
  EXPECT_DOUBLE_EQ(b.end - b.start, 4.0);
  EXPECT_THROW(l.set_degrade_factor(0.0), std::invalid_argument);
  EXPECT_THROW(l.set_degrade_factor(1.5), std::invalid_argument);
}

TEST(FaultSim, NetworkDropsTrafficOfDeadAndPartitionedHosts) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 3);
  bool delivered = false;
  topo.fail_host(1);
  EXPECT_FALSE(topo.host(1).alive());
  topo.network().send(0, 1, 1000, [&] { delivered = true; });
  s.run();
  EXPECT_FALSE(delivered);
  EXPECT_GE(topo.network().messages_dropped(), 1u);

  // Partition host 2, then heal it: traffic resumes (unlike a crash).
  topo.partition_host(2, true);
  topo.network().send(0, 2, 1000, [&] { delivered = true; });
  s.run();
  EXPECT_FALSE(delivered);
  topo.partition_host(2, false);
  topo.network().send(0, 2, 1000, [&] { delivered = true; });
  s.run();
  EXPECT_TRUE(delivered);

  // Healing a crashed host has no effect.
  topo.partition_host(1, false);
  topo.network().send(0, 1, 1000, [&] { delivered = false; });
  s.run();
  EXPECT_TRUE(delivered);
}

TEST(FaultSim, MembershipListenersFireOnceAndCanBeRemoved) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 2);
  int failures = 0, partitions = 0;
  const auto fid = topo.add_host_failure_listener([&](int) { ++failures; });
  topo.add_partition_listener([&](int, bool p) { partitions += p ? 1 : 0; });
  topo.fail_host(0);
  topo.fail_host(0);  // idempotent
  EXPECT_EQ(failures, 1);
  topo.partition_host(1, true);
  EXPECT_EQ(partitions, 1);
  topo.remove_listener(fid);
  topo.fail_host(1);
  EXPECT_EQ(failures, 1);
}

TEST(FaultSim, FaultPlanSampleIsDeterministic) {
  sim::FaultModel model;
  model.horizon = 1.0;
  model.crashes = 2.0;
  model.disk_slowdowns = 3.0;
  model.link_degrades = 3.0;
  const sim::FaultPlan a = sim::FaultPlan::sample(model, 7, 8);
  const sim::FaultPlan b = sim::FaultPlan::sample(model, 7, 8);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].host, b.events()[i].host);
    EXPECT_EQ(a.events()[i].factor, b.events()[i].factor);
  }
  const sim::FaultPlan c = sim::FaultPlan::sample(model, 8, 8);
  bool differs = c.events().size() != a.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = c.events()[i].at != a.events()[i].at ||
              c.events()[i].host != a.events()[i].host;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSim, ArmedPlanEmitsFaultTraceRecords) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 2);
  obs::TraceSession session;
  obs::Track& faults = session.track("sim:faults");
  sim::FaultPlan plan;
  plan.crash_host(0.1, 0).slow_disk(0.2, 1, 0, 4.0, 0.1);
  plan.arm(topo, &faults);
  s.run();
  const std::vector<obs::Event> ev = faults.events();
  ASSERT_EQ(ev.size(), 3u);  // 2 faults, 1 heal
  EXPECT_STREQ(ev[0].name, "host-crash");
  EXPECT_EQ(ev[0].a0, 0);
  EXPECT_DOUBLE_EQ(ev[0].t, 0.1);
  EXPECT_STREQ(ev[1].name, "disk-slowdown");
  EXPECT_EQ(ev[1].a0, 1);
  EXPECT_EQ(ev[1].a1, 0);
  EXPECT_STREQ(ev[2].name, "heal");
  EXPECT_EQ(ev[2].a0, 1);
  EXPECT_EQ(ev[2].a1, static_cast<std::int64_t>(sim::FaultKind::kDiskSlowdown));
  EXPECT_DOUBLE_EQ(ev[2].t, 0.3);
  EXPECT_FALSE(topo.host(0).alive());
  EXPECT_DOUBLE_EQ(topo.host(1).disk(0).slowdown(), 1.0);  // reverted
}

TEST(FaultSim, ArmRejectsOutOfRangeHostWithoutSchedulingAny) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 2);
  sim::FaultPlan plan;
  plan.crash_host(0.1, 0).crash_host(0.2, 7);
  EXPECT_THROW(plan.arm(topo), std::invalid_argument);
  EXPECT_TRUE(s.idle());
  s.run();
  EXPECT_TRUE(topo.host(0).alive());  // the valid first event never armed
}

TEST(FaultSim, ArmRejectsOutOfRangeDiskWithoutSchedulingAny) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 2);
  sim::FaultPlan plan;
  plan.slow_disk(0.1, 0, /*disk=*/5, 2.0);
  EXPECT_THROW(plan.arm(topo), std::invalid_argument);
  EXPECT_TRUE(s.idle());
  sim::FaultPlan stall;
  stall.stall_disk(0.1, 1, /*disk=*/1, 0.5);
  EXPECT_THROW(stall.arm(topo), std::invalid_argument);
  EXPECT_TRUE(s.idle());
}

}  // namespace
}  // namespace dc::core
