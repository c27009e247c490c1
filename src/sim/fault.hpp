#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dc::obs {
class Track;
}  // namespace dc::obs

namespace dc::sim {

/// What goes wrong. Each kind maps onto one fault-injection entry point of
/// the resource models (Host / Disk / Link / Network / Cpu).
enum class FaultKind {
  kHostCrash,       ///< fail-stop: Topology::fail_host
  kDiskSlowdown,    ///< Disk::set_slowdown(factor), optionally reverted
  kDiskStall,       ///< Disk::stall(duration)
  kLinkDegrade,     ///< Nic tx+rx Link::set_degrade_factor, optionally reverted
  kPartition,       ///< Topology::partition_host(true), optionally healed
  kBackgroundLoad,  ///< Cpu::set_background_jobs(jobs) — a node turning slow
};

[[nodiscard]] std::string_view to_string(FaultKind k);

/// One scheduled fault. `duration == 0` means the fault is permanent;
/// otherwise a revert/heal event is scheduled `duration` seconds later.
struct FaultEvent {
  SimTime at = 0.0;
  FaultKind kind = FaultKind::kHostCrash;
  int host = -1;
  int disk = 0;          ///< kDiskSlowdown / kDiskStall: local disk index
  double factor = 1.0;   ///< slowdown (>1) or link degrade (0 < f <= 1)
  int jobs = 0;          ///< kBackgroundLoad
  SimTime duration = 0;  ///< transient faults; kDiskStall: the stall length
};

/// Parameters for sampling a random-but-reproducible fault schedule:
/// expected number of events of each kind over [0, horizon), spread
/// uniformly in time and across hosts by a seeded Rng.
struct FaultModel {
  SimTime horizon = 1.0;
  double crashes = 0.0;          ///< expected host crashes
  double disk_slowdowns = 0.0;   ///< expected transient disk slowdowns
  double link_degrades = 0.0;    ///< expected transient link degradations
  double slowdown_factor = 4.0;  ///< disk service-time multiplier when slow
  double degrade_factor = 0.25;  ///< link bandwidth fraction when degraded
  SimTime mean_duration = 0.2;   ///< transient fault length
};

/// A deterministic schedule of faults in virtual time. Build one with the
/// fluent helpers (or sample() for a seeded random schedule), then arm() it
/// on a Topology before running: every event is scheduled on the topology's
/// Simulation and applied at its virtual instant. The same plan armed on an
/// identical topology yields bit-identical perturbations, which is what
/// makes fault scenarios replayable in tests.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Fail-stop crash of `host` at time `at` (permanent).
  FaultPlan& crash_host(SimTime at, int host);

  /// Multiplies the service time of `host`'s `disk` by `factor` (> 1) at
  /// `at`; reverts to nominal after `duration` (0 = permanent).
  FaultPlan& slow_disk(SimTime at, int host, int disk, double factor,
                       SimTime duration = 0.0);

  /// The disk services nothing for `stall` seconds starting at `at`.
  FaultPlan& stall_disk(SimTime at, int host, int disk, SimTime stall);

  /// Degrades `host`'s NIC (both directions) to `factor` (0 < f <= 1) of
  /// line rate at `at`; restores after `duration` (0 = permanent).
  FaultPlan& degrade_link(SimTime at, int host, double factor,
                          SimTime duration = 0.0);

  /// Partitions `host` from the network at `at`; heals after `duration`
  /// (0 = the partition never heals).
  FaultPlan& partition_host(SimTime at, int host, SimTime duration = 0.0);

  /// Sets `jobs` equal-share background jobs on `host`'s CPU at `at` (the
  /// paper's mechanism for a node turning slow); `duration` restores 0 jobs.
  FaultPlan& background_load(SimTime at, int host, int jobs,
                             SimTime duration = 0.0);

  /// Samples a schedule from `model` under `seed`, targeting hosts
  /// [0, num_hosts). Same (model, seed, num_hosts) => same plan.
  [[nodiscard]] static FaultPlan sample(const FaultModel& model,
                                        std::uint64_t seed, int num_hosts);

  /// Schedules every event (and its revert, for transient faults) on
  /// `topo.sim()`. The whole plan is validated first (host in range; disk
  /// index in range for the disk kinds), so a bad plan throws
  /// std::invalid_argument having scheduled nothing. If `track` is non-null,
  /// each applied event records an instant named after its kind (args: host,
  /// disk) and each revert a `heal` instant (args: host, kind), stamped in
  /// virtual seconds. Events capture copies, so the plan need not outlive
  /// them; `topo` (and `track`) must.
  void arm(Topology& topo, obs::Track* track = nullptr) const;

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace dc::sim
