#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "golden_util.hpp"
#include "obs/recorder.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

// Golden-trace regression tests: a fixed two-copy pipeline's obs event
// stream — with and without a mid-run host crash — is compared line by line
// against a checked-in golden file. Every sim: track is merged by seq into
// one global order, one "<track> <kind> <name> <a0> <a1>" line per event.
// Times are stripped (the event *order* is the contract; makespans are
// covered elsewhere); args stay in because the simulator is deterministic.
// The faulted variant interleaves the sim:faults track.
//
// To regenerate after an intentional emit-site change:
//   DC_UPDATE_GOLDEN=1 build/tests/test_golden_trace

namespace dc {
namespace {

/// Every sim: track merged into one seq-ordered stream, one
/// "<track> <kind> <name> <a0> <a1>" line per event.
std::string merge_sim_tracks(const obs::TraceSession& session) {
  std::vector<std::pair<const obs::Track*, obs::Event>> merged;
  for (const obs::Track* tk : session.tracks()) {
    if (tk->label().rfind("sim:", 0) != 0) continue;
    for (const obs::Event& e : tk->events()) merged.emplace_back(tk, e);
  }
  std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    return a.second.seq < b.second.seq;
  });
  std::ostringstream out;
  for (const auto& [tk, e] : merged) {
    out << tk->label() << ' ' << to_string(e.kind) << ' ' << e.name << ' '
        << e.a0 << ' ' << e.a1 << '\n';
  }
  return out.str();
}

/// src(h0) -> work(h1, h2) -> sink(h0), demand-driven with membership
/// failure detection, 10 buffers; `with_crash` crashes h1 mid-run with the
/// plan armed on the shared sim:faults track. Returns the merged sim stream.
std::string run_traced(bool with_crash) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 3);
  core::Graph g;
  const int src = g.add_source(
      "src", [] { return std::make_unique<test::BatchSource>(10, 256); });
  const int wrk = g.add_filter(
      "work", [] { return std::make_unique<test::ForwardWorker>(); });
  const int snk =
      g.add_filter("sink", [] { return std::make_unique<test::CountSink>(); });
  g.connect(src, 0, wrk, 0);
  g.connect(wrk, 0, snk, 0);
  core::Placement p;
  p.place(src, 0).place(wrk, 1).place(wrk, 2).place(snk, 0);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  cfg.detection = core::FailureDetection::kMembership;
  core::Runtime rt(topo, g, p, cfg);
  obs::TraceSession session;
  rt.set_obs(&session);
  sim::FaultPlan plan;
  if (with_crash) {
    plan.crash_host(0.004, 1);
    plan.arm(topo, &session.track("sim:faults"));
  }
  rt.run_uow_outcome();
  EXPECT_EQ(session.dropped_events(), 0u);
  return merge_sim_tracks(session);
}

TEST(GoldenTrace, CleanPipelineMatchesGolden) {
  test::check_against_golden(run_traced(false), "pipeline_trace.txt");
}

TEST(GoldenTrace, FaultedPipelineMatchesGolden) {
  test::check_against_golden(run_traced(true), "pipeline_fault_trace.txt");
}

}  // namespace
}  // namespace dc
