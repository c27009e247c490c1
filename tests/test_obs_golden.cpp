#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "golden_util.hpp"
#include "io/chunk_store.hpp"
#include "io/format.hpp"
#include "io/reader.hpp"
#include "net/distributed.hpp"
#include "net/process.hpp"
#include "net/transport.hpp"
#include "obs/chrome.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"
#include "test_util.hpp"
#include "viz/app.hpp"

// Golden tests of the obs event stream on BOTH engines, plus structural
// validation of the Chrome trace-event export.
//
// The cross-engine goldens (obs_*_trace.txt) compare tags, kinds, and
// per-lane ordering — NEVER times and never args (windows and wait durations
// are timing-dependent on the native engine). Their normalized form is one
// section per track (sorted by label, which is stable:
// "sim:<filter>#<copy>@h<host>" / "exec:..."), each event as "<kind> <name>"
// in seq order. On the native engine the timing-dependent tags (stall,
// push.wait) are excluded; everything that remains — spans per callback, one
// queue.wait per pop, consume/ack/policy.pick instants — has a deterministic
// count and order for a single-copy pipeline.
//
// The simulator pipeline goldens (pipeline_*trace.txt) live in
// test_golden_trace; both share golden_util.hpp.
//
// To regenerate after an intentional emit-site change:
//   DC_UPDATE_GOLDEN=1 build/tests/test_obs_golden

#ifndef DC_TEST_DIR
#error "tests/CMakeLists.txt must define DC_TEST_DIR"
#endif

namespace dc {
namespace {

namespace fs = std::filesystem;

/// src -> work -> sink, ONE copy each (single-copy keeps the native event
/// stream deterministic: no cross-copy races in who consumes what).
void build_pipeline(core::Graph& g, core::Placement& p) {
  const int src =
      g.add_source("src", [] { return std::make_unique<test::BatchSource>(6); });
  const int wrk =
      g.add_filter("work", [] { return std::make_unique<test::ForwardWorker>(); });
  const int snk =
      g.add_filter("sink", [] { return std::make_unique<test::CountSink>(); });
  g.connect(src, 0, wrk, 0);
  g.connect(wrk, 0, snk, 0);
  p.place(src, 0).place(wrk, 1).place(snk, 2);
}

/// Normalizes a session: per-track sections in label order, "<kind> <name>"
/// lines in seq order, minus `excluded` tags; only tracks whose label starts
/// with `prefix`.
std::string normalize(const obs::TraceSession& session,
                      const std::set<std::string>& excluded = {},
                      const std::string& prefix = "") {
  std::ostringstream out;
  for (const obs::Track* tk : session.tracks()) {
    if (tk->label().rfind(prefix, 0) != 0) continue;
    out << "== " << tk->label() << '\n';
    for (const obs::Event& e : tk->events()) {
      if (excluded.count(e.name) != 0) continue;
      out << to_string(e.kind) << ' ' << e.name << '\n';
    }
  }
  return out.str();
}

TEST(ObsGolden, SimulatorEventStreamMatchesGolden) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 3);
  core::Graph g;
  core::Placement p;
  build_pipeline(g, p);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  core::Runtime rt(topo, g, p, cfg);
  obs::TraceSession session;
  rt.set_obs(&session);
  rt.run_uow();
  // The simulator's stream is fully deterministic — nothing excluded.
  test::check_against_golden(normalize(session), "obs_sim_trace.txt");
}

TEST(ObsGolden, NativeEventStreamMatchesGolden) {
  core::Graph g;
  core::Placement p;
  build_pipeline(g, p);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  exec::Engine eng(g, p, cfg, {});
  obs::TraceSession session;
  eng.set_obs(&session);
  eng.run_uow();
  // stall and push.wait fire only when a thread actually blocked — real
  // scheduling, so their counts vary run to run. Everything else is exact.
  test::check_against_golden(normalize(session, {"stall", "push.wait"}),
                       "obs_native_trace.txt");
}

// Trace parity: the same pipeline on 3 processes, one filter per rank. The
// distributed workers run the native executor, so the union of the ranks'
// exec: tracks must be exactly the native golden — the same spans, instants,
// and order, with only the timing-dependent tags excluded. The parent forks
// the ranks, so it stays single-threaded (each engine above joined its
// threads before returning).
TEST(ObsGolden, DistributedRanksReproduceNativeGolden) {
  const fs::path dir = fs::temp_directory_path() / "dc_obs_rank_traces";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto statuses = net::run_local_ranks(
      3,
      [&dir](net::RankEnv& env) {
        std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
        env.listener.close();
        core::Graph g;
        core::Placement p;
        build_pipeline(g, p);
        core::RuntimeConfig cfg;
        cfg.policy = core::Policy::kDemandDriven;
        obs::TraceSession session;
        {
          net::DistributedEngine eng(g, p, cfg, env.rank, env.num_ranks,
                                     std::move(peers));
          eng.set_obs(&session);
          if (!eng.run_uow().ok()) return 2;
        }
        std::ofstream out(dir / ("rank" + std::to_string(env.rank) + ".txt"));
        out << normalize(session, {"stall", "push.wait"}, "exec:");
        return out.good() ? 0 : 3;
      },
      net::LaunchOptions{/*timeout_s=*/60.0});
  for (std::size_t r = 0; r < statuses.size(); ++r) {
    ASSERT_TRUE(statuses[r].ok())
        << "rank " << r << " exit " << statuses[r].exit_code << ": "
        << statuses[r].stderr_output;
  }

  // Union of the ranks' sections, in label order like one session's.
  std::map<std::string, std::string> sections;
  for (int r = 0; r < 3; ++r) {
    std::ifstream in(dir / ("rank" + std::to_string(r) + ".txt"));
    std::string line;
    std::string* body = nullptr;
    while (std::getline(in, line)) {
      if (line.rfind("== ", 0) == 0) {
        body = &sections[line];
        continue;
      }
      ASSERT_NE(body, nullptr) << "event outside a track section";
      *body += line + '\n';
    }
  }
  fs::remove_all(dir);
  std::string merged;
  for (const auto& [label, body] : sections) merged += label + '\n' + body;

  std::ifstream golden(std::string(DC_TEST_DIR) + "/golden/obs_native_trace.txt");
  ASSERT_TRUE(golden.good());
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(merged, expected.str());
}

TEST(ObsGolden, SimulatorStreamIsReproducible) {
  // Two identical runs produce byte-identical normalized streams including
  // the timing-dependent tags — the simulator is deterministic end to end.
  std::vector<std::string> streams;
  for (int i = 0; i < 2; ++i) {
    sim::Simulation s;
    sim::Topology topo(s);
    test::add_plain_nodes(topo, 3);
    core::Graph g;
    core::Placement p;
    build_pipeline(g, p);
    core::RuntimeConfig cfg;
    cfg.policy = core::Policy::kDemandDriven;
    core::Runtime rt(topo, g, p, cfg);
    obs::TraceSession session;
    rt.set_obs(&session);
    rt.run_uow();
    streams.push_back(normalize(session));
  }
  EXPECT_EQ(streams[0], streams[1]);
}

// ---- Chrome trace export --------------------------------------------------

/// Lane names (thread_name metadata values) in a parsed Chrome trace.
std::set<std::string> lane_names(const obs::json::Value& root) {
  std::set<std::string> names;
  const obs::json::Value* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) return names;
  for (const auto& e : events->array) {
    const obs::json::Value* ph = e.find("ph");
    if (ph == nullptr || ph->str != "M") continue;
    const obs::json::Value* args = e.find("args");
    if (args == nullptr) continue;
    const obs::json::Value* name = args->find("name");
    if (name != nullptr) names.insert(name->str);
  }
  return names;
}

/// Count of events with phase `ph` whose name is `name` ("" = any).
int count_events(const obs::json::Value& root, const std::string& ph,
                 const std::string& name = "") {
  int n = 0;
  const obs::json::Value* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) return 0;
  for (const auto& e : events->array) {
    const obs::json::Value* p = e.find("ph");
    if (p == nullptr || p->str != ph) continue;
    if (!name.empty()) {
      const obs::json::Value* nm = e.find("name");
      if (nm == nullptr || nm->str != name) continue;
    }
    ++n;
  }
  return n;
}

TEST(ObsChromeTrace, OutOfCoreNativeRenderProducesValidTrace) {
  // The ISSUE's acceptance scenario: ONE TraceSession captures an
  // out-of-core native render — engine worker lanes, disk-scheduler lanes,
  // and policy decisions — and exports structurally valid Chrome JSON.
  test::TestDataset ds = test::make_dataset(24, 3, 16);
  ds.store->place_uniform({data::FileLocation{0, 0}, data::FileLocation{0, 1}});
  const fs::path root = fs::temp_directory_path() / "dc_obs_chrome_test";
  fs::remove_all(root);
  io::materialize_plume_dataset(root, *ds.store, *ds.field,
                                /*base_timestep=*/0, /*num_timesteps=*/1);
  io::ChunkStore disk_store(root);

  obs::TraceSession session;
  io::ReaderOptions ropts;
  ropts.trace = &session;
  io::ChunkReader reader(disk_store, ropts);

  viz::IsoAppSpec spec;
  spec.workload = test::make_workload(ds, 64, 64);
  spec.workload.reader = &reader;
  spec.config = viz::PipelineConfig::kRE_Ra_M;
  spec.hsr = viz::HsrAlgorithm::kActivePixel;
  spec.data_hosts = viz::one_each({0});
  spec.raster_hosts = {{1, 2}};
  spec.merge_host = 2;
  spec.trace = &session;

  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  const viz::NativeRenderRun run = viz::run_iso_app_native(spec, cfg, 1);
  ASSERT_EQ(run.sink->digests.size(), 1u);
  fs::remove_all(root);

  std::ostringstream os;
  obs::write_chrome_trace(session, os);

  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(os.str(), v, &err)) << err;
  ASSERT_TRUE(v.is_object());

  // Engine-thread lanes AND disk-scheduler lanes name themselves.
  const std::set<std::string> lanes = lane_names(v);
  EXPECT_GE(lanes.size(), 5u);  // RE, Ra x2, M, io lanes
  int exec_lanes = 0, io_lanes = 0;
  for (const std::string& l : lanes) {
    if (l.rfind("exec:", 0) == 0) ++exec_lanes;
    if (l.rfind("io:", 0) == 0) ++io_lanes;
  }
  EXPECT_GE(exec_lanes, 4);
  EXPECT_GE(io_lanes, 2);  // io:reader + at least one io:disk lane

  // Spans balance, and the load-bearing event families are all present.
  EXPECT_GT(count_events(v, "B"), 0);
  EXPECT_EQ(count_events(v, "B"), count_events(v, "E"));
  EXPECT_GT(count_events(v, "B", "process"), 0);
  EXPECT_GT(count_events(v, "B", "io.read"), 0);       // disk-scheduler spans
  EXPECT_GT(count_events(v, "i", "policy.pick"), 0);   // routing decisions
  // Every ChunkReader::read emits exactly one of hit / miss / join; which
  // one depends on prefetch timing, so only the sum is deterministic.
  EXPECT_GT(count_events(v, "i", "cache.hit") +
                count_events(v, "i", "cache.miss") +
                count_events(v, "i", "read.join"),
            0);

  // Drop accounting is part of the export contract.
  const obs::json::Value* other = v.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other->find("dropped_events"), nullptr);
}

TEST(ObsChromeTrace, SimulatorRunExportsVirtualTimeTrace) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, 3);
  core::Graph g;
  core::Placement p;
  build_pipeline(g, p);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  core::Runtime rt(topo, g, p, cfg);
  obs::TraceSession session;
  rt.set_obs(&session);
  const double makespan = rt.run_uow();

  std::ostringstream os;
  obs::write_chrome_trace(session, os);
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(os.str(), v, &err)) << err;

  // Timestamps are virtual seconds * 1e6: all within the run's makespan.
  const obs::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  int timed = 0;
  for (const auto& e : events->array) {
    const obs::json::Value* ph = e.find("ph");
    if (ph == nullptr || ph->str == "M") continue;
    const obs::json::Value* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->num, 0.0);
    EXPECT_LE(ts->num, makespan * 1e6 + 1.0);
    ++timed;
  }
  EXPECT_GT(timed, 0);
  for (const std::string& lane : lane_names(v)) {
    EXPECT_EQ(lane.rfind("sim:", 0), 0u) << lane;
  }
}

TEST(ObsChromeTrace, FileWriterReportsFailure) {
  obs::TraceSession session;
  session.track("t").instant(0.0, "e");
  EXPECT_FALSE(obs::write_chrome_trace(session, "/nonexistent-dir/x/t.json"));
  const fs::path ok = fs::temp_directory_path() / "dc_obs_trace_ok.json";
  EXPECT_TRUE(obs::write_chrome_trace(session, ok.string()));
  fs::remove(ok);
}

}  // namespace
}  // namespace dc
