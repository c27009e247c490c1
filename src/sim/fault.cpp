#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/recorder.hpp"

namespace dc::sim {

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kHostCrash: return "host-crash";
    case FaultKind::kDiskSlowdown: return "disk-slowdown";
    case FaultKind::kDiskStall: return "disk-stall";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kBackgroundLoad: return "background-load";
  }
  return "?";
}

namespace {

void check_time(SimTime at) {
  if (at < 0.0) throw std::invalid_argument("FaultPlan: negative event time");
}

}  // namespace

FaultPlan& FaultPlan::crash_host(SimTime at, int host) {
  check_time(at);
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kHostCrash;
  e.host = host;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::slow_disk(SimTime at, int host, int disk, double factor,
                                SimTime duration) {
  check_time(at);
  if (factor < 1.0) throw std::invalid_argument("FaultPlan: slowdown factor < 1");
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kDiskSlowdown;
  e.host = host;
  e.disk = disk;
  e.factor = factor;
  e.duration = duration;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::stall_disk(SimTime at, int host, int disk, SimTime stall) {
  check_time(at);
  if (stall <= 0.0) throw std::invalid_argument("FaultPlan: stall must be positive");
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kDiskStall;
  e.host = host;
  e.disk = disk;
  e.duration = stall;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::degrade_link(SimTime at, int host, double factor,
                                   SimTime duration) {
  check_time(at);
  if (factor <= 0.0 || factor > 1.0) {
    throw std::invalid_argument("FaultPlan: degrade factor must be in (0, 1]");
  }
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkDegrade;
  e.host = host;
  e.factor = factor;
  e.duration = duration;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::partition_host(SimTime at, int host, SimTime duration) {
  check_time(at);
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kPartition;
  e.host = host;
  e.duration = duration;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::background_load(SimTime at, int host, int jobs,
                                      SimTime duration) {
  check_time(at);
  if (jobs < 0) throw std::invalid_argument("FaultPlan: negative background jobs");
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kBackgroundLoad;
  e.host = host;
  e.jobs = jobs;
  e.duration = duration;
  events_.push_back(e);
  return *this;
}

FaultPlan FaultPlan::sample(const FaultModel& model, std::uint64_t seed,
                            int num_hosts) {
  if (num_hosts <= 0) throw std::invalid_argument("FaultPlan::sample: no hosts");
  FaultPlan plan;
  Rng rng(seed);
  // Expected counts are rounded stochastically so fractional rates still
  // produce events on some seeds; times are uniform over the horizon.
  auto count = [&rng](double expected) {
    const double floor_part = std::floor(expected);
    int n = static_cast<int>(floor_part);
    if (rng.uniform() < expected - floor_part) ++n;
    return n;
  };
  const int crashes = count(model.crashes);
  for (int i = 0; i < crashes; ++i) {
    plan.crash_host(rng.uniform(0.0, model.horizon),
                    static_cast<int>(rng.below(static_cast<std::uint64_t>(num_hosts))));
  }
  const int slows = count(model.disk_slowdowns);
  for (int i = 0; i < slows; ++i) {
    plan.slow_disk(rng.uniform(0.0, model.horizon),
                   static_cast<int>(rng.below(static_cast<std::uint64_t>(num_hosts))),
                   0, model.slowdown_factor,
                   rng.uniform(0.5, 1.5) * model.mean_duration);
  }
  const int degrades = count(model.link_degrades);
  for (int i = 0; i < degrades; ++i) {
    plan.degrade_link(rng.uniform(0.0, model.horizon),
                      static_cast<int>(rng.below(static_cast<std::uint64_t>(num_hosts))),
                      model.degrade_factor,
                      rng.uniform(0.5, 1.5) * model.mean_duration);
  }
  return plan;
}

void FaultPlan::arm(Topology& topo, obs::Track* track) const {
  // Validate everything before scheduling anything: a plan that throws must
  // leave the simulation untouched, not half armed.
  for (const FaultEvent& e : events_) {
    if (e.host < 0 || e.host >= topo.size()) {
      throw std::invalid_argument("FaultPlan::arm: host out of range");
    }
    const bool disk_kind = e.kind == FaultKind::kDiskSlowdown ||
                           e.kind == FaultKind::kDiskStall;
    if (disk_kind && (e.disk < 0 || e.disk >= topo.host(e.host).num_disks())) {
      throw std::invalid_argument("FaultPlan::arm: disk out of range");
    }
  }

  // Sort by (time, insertion order) so equal-time events apply in the order
  // the plan listed them — the schedule stays deterministic either way, but
  // this keeps the applied order independent of builder-call interleaving.
  std::vector<FaultEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });

  Simulation& sim = topo.sim();
  for (const FaultEvent& e : sorted) {
    auto apply = [&topo, track, e] {
      if (track) {
        // to_string() views a literal, so data() is a static C string.
        track->instant(topo.sim().now(), to_string(e.kind).data(), e.host,
                       e.disk);
      }
      switch (e.kind) {
        case FaultKind::kHostCrash:
          topo.fail_host(e.host);
          break;
        case FaultKind::kDiskSlowdown:
          topo.host(e.host).disk(e.disk).set_slowdown(e.factor);
          break;
        case FaultKind::kDiskStall:
          topo.host(e.host).disk(e.disk).stall(e.duration);
          break;
        case FaultKind::kLinkDegrade:
          topo.host(e.host).nic().tx.set_degrade_factor(e.factor);
          topo.host(e.host).nic().rx.set_degrade_factor(e.factor);
          break;
        case FaultKind::kPartition:
          topo.partition_host(e.host, true);
          break;
        case FaultKind::kBackgroundLoad:
          topo.host(e.host).cpu().set_background_jobs(e.jobs);
          break;
      }
    };
    sim.at(e.at, std::move(apply));

    if (e.duration > 0.0 && e.kind != FaultKind::kDiskStall &&
        e.kind != FaultKind::kHostCrash) {
      auto revert = [&topo, track, e] {
        if (track) {
          track->instant(topo.sim().now(), "heal", e.host,
                         static_cast<std::int64_t>(e.kind));
        }
        switch (e.kind) {
          case FaultKind::kDiskSlowdown:
            topo.host(e.host).disk(e.disk).set_slowdown(1.0);
            break;
          case FaultKind::kLinkDegrade:
            topo.host(e.host).nic().tx.set_degrade_factor(1.0);
            topo.host(e.host).nic().rx.set_degrade_factor(1.0);
            break;
          case FaultKind::kPartition:
            topo.partition_host(e.host, false);
            break;
          case FaultKind::kBackgroundLoad:
            topo.host(e.host).cpu().set_background_jobs(0);
            break;
          default:
            break;
        }
      };
      sim.at(e.at + e.duration, std::move(revert));
    }
  }
}

}  // namespace dc::sim
