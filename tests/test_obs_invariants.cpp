#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "io/chunk_store.hpp"
#include "io/format.hpp"
#include "io/reader.hpp"
#include "obs/recorder.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

// Metrics-conservation property tests over randomized shapes and >= 20
// seeds: the byte ledgers of BOTH engines must balance (producer bytes_out
// == downstream bytes_in == StreamMetrics::payload_bytes), demand-driven
// acks must match deliveries exactly, and the io cache counters must obey
// hits + misses == reads and insertions - evictions == resident_blocks.
// Faulted simulator runs check the degraded form: every delivered buffer is
// acked, every dispatched buffer is delivered or counted lost.

namespace dc {
namespace {

namespace fs = std::filesystem;

class StampedSource : public core::SourceFilter {
 public:
  StampedSource(int count, int payload) : count_(count), payload_(payload) {}
  bool step(core::FilterContext& ctx) override {
    if (i_ >= count_) return false;
    ctx.charge(1000.0);
    core::Buffer b = ctx.make_buffer(0);
    for (int k = 0; k < payload_; ++k) b.push(static_cast<std::uint32_t>(i_));
    ctx.write(0, b);
    ++i_;
    return i_ < count_;
  }

 private:
  int count_;
  int payload_;
  int i_ = 0;
};

class Worker : public core::Filter {
 public:
  explicit Worker(double ops) : ops_(ops) {}
  void process_buffer(core::FilterContext& ctx, int, const core::Buffer&) override {
    ctx.charge(ops_);
  }

 private:
  double ops_;
};

struct Shape {
  int buffers = 0;
  int payload = 0;  ///< uint32 records per buffer
  double worker_ops = 0.0;
  std::vector<int> copies;  ///< worker copies on hosts 1..n
};

Shape make_shape(std::uint64_t seed) {
  sim::Rng rng(seed * 6271 + 31);
  Shape s;
  const int consumer_hosts = 2 + static_cast<int>(rng.below(3));
  for (int h = 0; h < consumer_hosts; ++h) {
    s.copies.push_back(1 + static_cast<int>(rng.below(3)));
  }
  s.buffers = 30 + static_cast<int>(rng.below(71));
  s.payload = 16 + static_cast<int>(rng.below(241));
  s.worker_ops = 1e5 * (1.0 + 9.0 * rng.uniform());
  return s;
}

struct Tally {
  std::uint64_t produced_buffers = 0, produced_bytes = 0;
  std::uint64_t consumed_buffers = 0, consumed_bytes = 0;
  std::uint64_t acks_sent = 0;
};

template <typename Metrics>
Tally tally(const Metrics& m, int src_filter, int wrk_filter) {
  Tally t;
  for (const auto& im : m.instances) {
    if (im.filter == src_filter) {
      t.produced_buffers += im.buffers_out;
      t.produced_bytes += im.bytes_out;
    }
    if (im.filter == wrk_filter) {
      t.consumed_buffers += im.buffers_in;
      t.consumed_bytes += im.bytes_in;
      t.acks_sent += im.acks_sent;
    }
  }
  return t;
}

void build_graph(const Shape& s, core::Graph& g, core::Placement& p) {
  const int buffers = s.buffers;
  const int payload = s.payload;
  const double ops = s.worker_ops;
  const int src = g.add_source(
      "src", [=] { return std::make_unique<StampedSource>(buffers, payload); });
  const int wrk =
      g.add_filter("work", [=] { return std::make_unique<Worker>(ops); });
  g.connect(src, 0, wrk, 0);
  p.place(src, 0);
  for (std::size_t h = 0; h < s.copies.size(); ++h) {
    p.place(wrk, static_cast<int>(h) + 1, s.copies[h]);
  }
}

constexpr std::uint64_t kSeeds = 20;
const core::Policy kPolicies[] = {core::Policy::kRoundRobin,
                                  core::Policy::kWeightedRoundRobin,
                                  core::Policy::kDemandDriven};

TEST(ObsInvariants, SimulatorByteLedgerBalances) {
  for (const core::Policy pol : kPolicies) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      SCOPED_TRACE(std::string(to_string(pol)) + " seed=" +
                   std::to_string(seed));
      const Shape s = make_shape(seed);
      sim::Simulation sim;
      sim::Topology topo(sim);
      test::add_plain_nodes(topo, 1 + static_cast<int>(s.copies.size()));
      core::Graph g;
      core::Placement p;
      build_graph(s, g, p);
      core::RuntimeConfig cfg;
      cfg.policy = pol;
      cfg.rng_seed = seed;
      core::Runtime rt(topo, g, p, cfg);
      rt.run_uow();
      const core::Metrics m = rt.metrics();
      const Tally t = tally(m, 0, 1);

      EXPECT_EQ(t.produced_buffers, static_cast<std::uint64_t>(s.buffers));
      EXPECT_EQ(t.consumed_buffers, t.produced_buffers);
      EXPECT_EQ(t.consumed_bytes, t.produced_bytes);
      ASSERT_FALSE(m.streams.empty());
      EXPECT_EQ(m.streams[0].buffers, t.produced_buffers);
      EXPECT_EQ(m.streams[0].payload_bytes, t.produced_bytes);
      EXPECT_GE(m.streams[0].message_bytes, m.streams[0].payload_bytes);
      if (pol == core::Policy::kDemandDriven) {
        EXPECT_EQ(m.acks_total, t.consumed_buffers);
        EXPECT_EQ(t.acks_sent, m.acks_total);
      } else {
        EXPECT_EQ(m.acks_total, 0u);
      }
    }
  }
}

TEST(ObsInvariants, NativeEngineByteLedgerBalances) {
  for (const core::Policy pol : kPolicies) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      SCOPED_TRACE(std::string(to_string(pol)) + " seed=" +
                   std::to_string(seed));
      const Shape s = make_shape(seed);
      core::Graph g;
      core::Placement p;
      build_graph(s, g, p);
      core::RuntimeConfig cfg;
      cfg.policy = pol;
      cfg.rng_seed = seed;
      exec::Engine eng(g, p, cfg, {});
      eng.run_uow();
      const core::Metrics m = eng.metrics();
      const Tally t = tally(m, 0, 1);

      EXPECT_EQ(t.produced_buffers, static_cast<std::uint64_t>(s.buffers));
      EXPECT_EQ(t.consumed_buffers, t.produced_buffers);
      EXPECT_EQ(t.consumed_bytes, t.produced_bytes);
      ASSERT_FALSE(m.streams.empty());
      EXPECT_EQ(m.streams[0].buffers, t.produced_buffers);
      EXPECT_EQ(m.streams[0].payload_bytes, t.produced_bytes);
      if (pol == core::Policy::kDemandDriven) {
        EXPECT_EQ(m.acks_total, t.consumed_buffers);
        EXPECT_EQ(t.acks_sent, m.acks_total);
      } else {
        EXPECT_EQ(m.acks_total, 0u);
      }
    }
  }
}

TEST(ObsInvariants, EnginesAgreeOnTheLedger) {
  // The two engines run the same shapes: their byte ledgers (counted in
  // totally different code paths — virtual messages vs real queues) must be
  // IDENTICAL, buffer for buffer and byte for byte.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Shape s = make_shape(seed);
    core::RuntimeConfig cfg;
    cfg.policy = core::Policy::kDemandDriven;
    cfg.rng_seed = seed;

    sim::Simulation sim;
    sim::Topology topo(sim);
    test::add_plain_nodes(topo, 1 + static_cast<int>(s.copies.size()));
    core::Graph g1;
    core::Placement p1;
    build_graph(s, g1, p1);
    core::Runtime rt(topo, g1, p1, cfg);
    rt.run_uow();

    core::Graph g2;
    core::Placement p2;
    build_graph(s, g2, p2);
    exec::Engine eng(g2, p2, cfg, {});
    eng.run_uow();

    const core::Metrics ms = rt.metrics();
    const core::Metrics mn = eng.metrics();
    ASSERT_EQ(ms.streams.size(), mn.streams.size());
    EXPECT_EQ(ms.streams[0].buffers, mn.streams[0].buffers);
    EXPECT_EQ(ms.streams[0].payload_bytes, mn.streams[0].payload_bytes);
    EXPECT_EQ(ms.acks_total, mn.acks_total);
  }
}

core::UowOutcome run_faulted(const Shape& s, core::Policy pol,
                             std::uint64_t seed, const sim::FaultPlan* plan,
                             core::Metrics& out,
                             obs::TraceSession* session = nullptr) {
  sim::Simulation sim;
  sim::Topology topo(sim);
  test::add_plain_nodes(topo, 1 + static_cast<int>(s.copies.size()));
  core::Graph g;
  core::Placement p;
  build_graph(s, g, p);
  core::RuntimeConfig cfg;
  cfg.policy = pol;
  cfg.detection = core::FailureDetection::kMembership;
  cfg.rng_seed = seed;
  core::Runtime rt(topo, g, p, cfg);
  rt.set_obs(session);
  if (plan) {
    plan->arm(topo, session ? &session->track("sim:faults") : nullptr);
  }
  const core::UowOutcome outcome = rt.run_uow_outcome();
  out = rt.metrics();
  return outcome;
}

TEST(ObsInvariants, FaultedRunsConserveOrCountEveryBuffer) {
  // One consumer host crashes mid-UOW. The clean equalities relax to exact
  // accounting: the fault ledger published through metrics() must equal the
  // UowOutcome deltas, nothing vanishes untallied (deliveries plus counted
  // losses cover every dispatch), and DD never acks more than it delivered.
  for (const core::Policy pol : kPolicies) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      SCOPED_TRACE(std::string(to_string(pol)) + " seed=" +
                   std::to_string(seed));
      const Shape s = make_shape(seed);
      core::Metrics clean;
      const core::UowOutcome base = run_faulted(s, pol, seed, nullptr, clean);
      ASSERT_EQ(base.status, core::UowStatus::kComplete);

      sim::FaultPlan plan;
      plan.crash_host(0.5 * base.makespan, 1);
      core::Metrics m;
      obs::TraceSession session;
      const core::UowOutcome outcome =
          run_faulted(s, pol, seed, &plan, m, &session);
      const Tally t = tally(m, 0, 1);

      EXPECT_EQ(outcome.status, core::UowStatus::kDegraded);
      EXPECT_GE(outcome.failovers, 1u);
      // The registry-visible fault counters and the per-UOW outcome are two
      // views of one ledger; a single-UOW run must make them identical.
      EXPECT_EQ(m.faults.failovers, outcome.failovers);
      EXPECT_EQ(m.faults.retransmits, outcome.retransmits);
      EXPECT_EQ(m.faults.buffers_lost, outcome.buffers_lost);
      EXPECT_EQ(m.faults.buffers_duplicated, outcome.buffers_duplicated);
      // Every dispatched buffer is either delivered somewhere (possibly the
      // dead host, pre-crash) or counted lost; nothing is invented beyond
      // the duplicates the dup-ack path admits.
      EXPECT_GE(t.consumed_buffers + m.faults.buffers_lost,
                t.produced_buffers);
      EXPECT_LE(t.consumed_buffers,
                t.produced_buffers + m.faults.buffers_duplicated);
      if (pol == core::Policy::kDemandDriven) {
        // Acks received never exceed acks sent, which never exceed
        // deliveries.
        EXPECT_LE(m.acks_total, t.acks_sent);
        EXPECT_LE(t.acks_sent, t.consumed_buffers);
      }
      // The trace tells the same story as the ledger: one failover instant
      // per failover, retransmit counts summing to the retransmits, one
      // dup.ack per duplicate, and the injected crash itself.
      ASSERT_EQ(session.dropped_events(), 0u);
      std::uint64_t failovers = 0, retransmits = 0, dup_acks = 0, crashes = 0;
      for (const obs::Event& e : session.ordered_events()) {
        const std::string_view name = e.name;
        if (name == "failover") ++failovers;
        if (name == "retransmit") retransmits += static_cast<std::uint64_t>(e.a0);
        if (name == "dup.ack") ++dup_acks;
        if (name == "host-crash") ++crashes;
      }
      EXPECT_EQ(failovers, m.faults.failovers);
      EXPECT_EQ(retransmits, m.faults.retransmits);
      EXPECT_EQ(dup_acks, m.faults.buffers_duplicated);
      EXPECT_GE(crashes, 1u);
    }
  }
}

TEST(ObsInvariants, IoCacheCountersBalance) {
  // One materialized store, >= 20 randomized reader configurations: cache
  // size, readahead depth, and a seeded mix of sequential / strided / random
  // access. After every run: hits + misses == read lookups, and
  // insertions - evictions == resident_blocks.
  test::TestDataset ds = test::make_dataset(24, 3, 8);
  ds.store->place_uniform({data::FileLocation{0, 0}, data::FileLocation{0, 1}});
  const fs::path root = fs::temp_directory_path() / "dc_obs_inv_io";
  fs::remove_all(root);
  io::materialize_plume_dataset(root, *ds.store, *ds.field,
                                /*base_timestep=*/0, /*num_timesteps=*/2);
  io::ChunkStore store(root);
  const int num_chunks = ds.layout.num_chunks();

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Rng rng(seed * 104729 + 7);
    io::ReaderOptions opts;
    // Small caches force evictions; large ones exercise the all-resident path.
    opts.cache_bytes = (1u << 15) + rng.below(1u << 20);
    io::ChunkReader reader(store, opts);

    const int depth = static_cast<int>(rng.below(4));
    const int reads = 40 + static_cast<int>(rng.below(40));
    std::uint64_t prefetch_calls = 0;
    for (int i = 0; i < reads; ++i) {
      const int timestep = static_cast<int>(rng.below(2));
      int chunk;
      switch (rng.below(3)) {
        case 0: chunk = i % num_chunks; break;                          // seq
        case 1: chunk = (i * 5) % num_chunks; break;                    // stride
        default: chunk = static_cast<int>(rng.below(
                     static_cast<std::uint64_t>(num_chunks)));          // random
      }
      for (int d = 1; d <= depth; ++d) {
        reader.prefetch((chunk + d) % num_chunks, timestep);
        ++prefetch_calls;
      }
      const auto data = reader.read(chunk, timestep);
      ASSERT_NE(data, nullptr);
    }

    const io::CacheMetrics c = reader.metrics().cache;
    EXPECT_EQ(c.hits + c.misses, static_cast<std::uint64_t>(reads));
    EXPECT_EQ(reader.metrics().read_calls, static_cast<std::uint64_t>(reads));
    ASSERT_GE(c.insertions, c.evictions);
    EXPECT_EQ(c.insertions - c.evictions, c.resident_blocks);
    // Every hint on an existing chunk resolves to exactly one of
    // issued / dropped; a readahead hit is a demand read a prefetch covered
    // (cached or joined in flight), so it is bounded by the reads.
    EXPECT_EQ(c.prefetch_issued + c.prefetch_dropped, prefetch_calls);
    EXPECT_LE(c.readahead_hits, static_cast<std::uint64_t>(reads));
  }
  fs::remove_all(root);
}

TEST(ObsInvariants, IoCacheDropCountsEvictions) {
  test::TestDataset ds = test::make_dataset(24, 2, 4);
  ds.store->place_uniform({data::FileLocation{0, 0}});
  const fs::path root = fs::temp_directory_path() / "dc_obs_inv_io_clear";
  fs::remove_all(root);
  io::materialize_plume_dataset(root, *ds.store, *ds.field, 0, 1);
  io::ChunkStore store(root);
  io::ChunkReader reader(store, {});
  for (int c = 0; c < ds.layout.num_chunks(); ++c) {
    ASSERT_NE(reader.read(c, 0), nullptr);
  }
  io::CacheMetrics m = reader.metrics().cache;
  EXPECT_GT(m.resident_blocks, 0u);
  EXPECT_EQ(m.insertions - m.evictions, m.resident_blocks);
  reader.drop_cache();
  m = reader.metrics().cache;
  // drop_cache() counted every dropped block as an eviction: still exact.
  EXPECT_EQ(m.resident_blocks, 0u);
  EXPECT_EQ(m.insertions, m.evictions);
  fs::remove_all(root);
}

}  // namespace
}  // namespace dc
