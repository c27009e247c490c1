#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/buffer.hpp"
#include "core/filter.hpp"
#include "core/graph.hpp"
#include "core/placement.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "exec/watchdog.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

// BufferArena unit + property tests: conservation (every leased slot is
// returned exactly once, no matter how many Buffer handles shared it),
// pooling (returned slots are reused, retention is bounded), and the
// zero-copy contract (a payload that flows producer → frame → socket books
// zero payload copies).

namespace dc {
namespace {

using core::ArenaStats;
using core::Buffer;
using core::BufferArena;

TEST(Arena, LeaseReturnConservation) {
  BufferArena arena;
  {
    auto a = arena.lease(100);
    auto b = arena.lease(5000);
    auto c = arena.lease(0);
    EXPECT_EQ(arena.stats().slots_leased, 3u);
    EXPECT_EQ(arena.stats().outstanding(), 3u);
  }
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.slots_leased, 3u);
  EXPECT_EQ(s.slots_returned, 3u);
  EXPECT_EQ(s.outstanding(), 0u);
}

TEST(Arena, SharedHandlesReturnTheSlotExactlyOnce) {
  // Many Buffer copies of one slot == one lease and, when the last handle
  // dies, one return. A double release is structurally impossible: the
  // return IS the shared_ptr deleter.
  BufferArena arena;
  {
    Buffer b = arena.make(256);
    std::vector<Buffer> copies(10, b);       // refcount 11, still one slot
    EXPECT_EQ(arena.stats().slots_leased, 1u);
    EXPECT_EQ(arena.stats().slots_returned, 0u);
  }
  EXPECT_EQ(arena.stats().slots_returned, 1u);
}

TEST(Arena, ReturnedSlotsAreReused) {
  BufferArena arena;
  const std::byte* first = nullptr;
  {
    auto s = arena.lease(1024);
    s->resize(1024);
    first = s->data();
  }
  // Same size class: the freelist must hand the identical storage back.
  auto s2 = arena.lease(1024);
  s2->resize(1024);
  EXPECT_EQ(s2->data(), first);
  const ArenaStats st = arena.stats();
  EXPECT_EQ(st.pool_misses, 1u);
  EXPECT_EQ(st.pool_hits, 1u);
}

TEST(Arena, ReusedSlotsComeBackEmpty) {
  BufferArena arena;
  {
    auto s = arena.lease(64);
    s->resize(64);
    std::memset(s->data(), 0xAB, 64);
  }
  auto s2 = arena.lease(64);
  EXPECT_TRUE(s2->empty());           // deleter clears before refiling
  EXPECT_GE(s2->capacity(), 64u);     // but keeps the allocation
}

TEST(Arena, ReturnsOutliveTheArenaHandle) {
  // The deleter captures the pool by shared_ptr: dropping a Buffer after
  // the arena object is gone must not crash or leak.
  std::shared_ptr<std::vector<std::byte>> slot;
  {
    BufferArena arena;
    slot = arena.lease(128);
  }
  slot.reset();  // must be safe even though `arena` is destroyed
}

TEST(Arena, MakeWrapsLeasedSlotAsEmptyBuffer) {
  BufferArena arena;
  Buffer b = arena.make(512);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_GE(b.capacity(), 512u);
  std::vector<std::byte> data(512, std::byte{0x5A});
  EXPECT_TRUE(b.append(data));
  EXPECT_FALSE(b.append(data));  // capacity enforced like a plain Buffer
}

TEST(Arena, AdoptKeepsBytesAndStorageIdentity) {
  BufferArena arena;
  auto slot = arena.lease(64);
  slot->resize(48);
  std::memset(slot->data(), 0x77, 48);
  const std::byte* raw = slot->data();
  Buffer b = Buffer::adopt(slot, 64);
  EXPECT_EQ(b.size(), 48u);
  EXPECT_EQ(b.bytes().data(), raw);  // adopted, not copied
  EXPECT_EQ(b.capacity(), 64u);
}

TEST(Arena, SlotCapacityRoundsToTheRetainedClass) {
  // Tiny requests share the minimum class; everything else rounds up to
  // the next power of two — and an exact power of two is its own class.
  EXPECT_EQ(BufferArena::slot_capacity(1), BufferArena::slot_capacity(0));
  EXPECT_EQ(BufferArena::slot_capacity(200u << 10), 256u << 10);
  EXPECT_EQ(BufferArena::slot_capacity(1u << 20), 1u << 20);
  EXPECT_EQ(BufferArena::slot_capacity((1u << 20) + 1), 2u << 20);
  // A lease of n bytes really lands in that class: capacity covers it.
  BufferArena arena;
  auto slot = arena.lease(300);
  slot->resize(BufferArena::slot_capacity(300));
  EXPECT_GE(slot->capacity(), 300u);
}

TEST(Arena, NotePayloadCopyBooksTheCounters) {
  BufferArena arena;
  EXPECT_EQ(arena.stats().payload_copies, 0u);
  arena.note_payload_copy(4096);
  arena.note_payload_copy(100);
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.payload_copies, 2u);
  EXPECT_EQ(s.payload_copy_bytes, 4196u);
}

TEST(Arena, ConcurrentLeaseReturnIsConserved) {
  exec::Watchdog dog(std::chrono::seconds(120), "ConcurrentLeaseReturnIsConserved");
  BufferArena arena;
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&arena, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      std::vector<std::shared_ptr<std::vector<std::byte>>> held;
      for (int i = 0; i < kRounds; ++i) {
        held.push_back(arena.lease(1 + rng() % 8192));
        if (held.size() > 16 || (rng() & 1)) {
          held.erase(held.begin() + static_cast<long>(rng() % held.size()));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.slots_leased, static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(s.slots_returned, s.slots_leased);
  EXPECT_EQ(s.outstanding(), 0u);
}

// ---------------------------------------------------------------------------
// The zero-copy contract, end to end over a real socket: a payload leased
// from the global arena, wrapped as a frame, and pumped through a PeerLink
// books ZERO payload copies — only refcounts move until the NIC. This is
// the micro version of the copy-counter assertion every distributed rank
// enforces at exit (viz exit code 6).
// ---------------------------------------------------------------------------

TEST(Arena, DataPathBooksNoPayloadCopies) {
  exec::Watchdog dog(std::chrono::seconds(60), "DataPathBooksNoPayloadCopies");
  auto& arena = BufferArena::global();
  const ArenaStats before = arena.stats();

  net::Socket listener = net::listen_loopback(0, 4);
  net::Socket a = net::connect_loopback(net::local_port(listener), 10.0);
  net::Socket b = net::accept_one(listener, 10.0);

  net::NetMetrics metrics;
  std::atomic<int> got{0};
  std::mutex mu;
  std::condition_variable cv;
  net::PeerLink sender(0, 1, std::move(a), &metrics, nullptr);
  net::PeerLink receiver(1, 0, std::move(b), &metrics, nullptr);
  sender.start([](int, const net::Frame&) {},
               [](int, net::WireError, const std::string&) {});
  receiver.start(
      [&](int, const net::Frame& f) {
        EXPECT_EQ(f.payload.size(), 4096u);
        got.fetch_add(1);
        std::lock_guard<std::mutex> lk(mu);
        cv.notify_all();
      },
      [](int, net::WireError, const std::string&) {});

  for (int i = 0; i < 32; ++i) {
    Buffer payload = arena.make(4096);
    std::vector<std::byte> data(4096, static_cast<std::byte>(i));
    ASSERT_TRUE(payload.append(data));
    core::BufferRoute route;
    route.uow = static_cast<std::uint32_t>(i);
    sender.send(net::make_frame(net::FrameType::kData, route,
                                std::move(payload)));
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(30),
                            [&] { return got.load() == 32; }));
  }
  sender.stop(/*flush=*/true);
  receiver.stop(/*flush=*/false);

  const ArenaStats after = arena.stats();
  // The hot path moved 32 × 4 KiB through a real socket without a single
  // deliberate payload materialization.
  EXPECT_EQ(after.payload_copies, before.payload_copies);
  // And conservation holds once every frame handle is gone.
  EXPECT_EQ(after.outstanding(), 0u);
}

// ---------------------------------------------------------------------------
// Conservation as a property of the native engine: every buffer any filter
// copy leased during a UOW is back in the pool once the engine is gone —
// across seeds, across all three writer policies, and across an abort that
// unwinds mid-UOW with buffers still sitting in channels.
// ---------------------------------------------------------------------------

class RecordSource : public core::SourceFilter {
 public:
  explicit RecordSource(int steps) : steps_(steps) {}
  bool step(core::FilterContext& ctx) override {
    Buffer b = ctx.make_buffer(0);
    b.push(static_cast<std::uint64_t>(i_));
    ctx.write(0, b);
    return ++i_ < steps_;
  }

 private:
  int steps_;
  int i_ = 0;
};

/// Forwards each input record in a fresh buffer (exercises make_buffer on a
/// non-source filter and keeps buffers moving through two channel hops).
class Relay : public core::Filter {
 public:
  void process_buffer(core::FilterContext& ctx, int,
                      const core::Buffer& in) override {
    Buffer out = ctx.make_buffer(0);
    out.push(in.records<std::uint64_t>()[0]);
    ctx.write(0, out);
  }
};

class Sink : public core::Filter {
 public:
  void process_buffer(core::FilterContext&, int, const core::Buffer&) override {}
};

/// Throws once `limit` buffers were seen by this copy.
class ThrowAfter : public core::Filter {
 public:
  explicit ThrowAfter(int limit) : limit_(limit) {}
  void process_buffer(core::FilterContext&, int, const core::Buffer&) override {
    if (++seen_ >= limit_) throw std::runtime_error("injected abort");
  }

 private:
  int limit_;
  int seen_ = 0;
};

core::Graph relay_graph(int steps, bool throwing) {
  core::Graph g;
  const int src = g.add_source(
      "src", [steps] { return std::make_unique<RecordSource>(steps); });
  const int relay = g.add_filter("relay", [] { return std::make_unique<Relay>(); });
  const int sink = g.add_filter("sink", [throwing]() -> std::unique_ptr<core::Filter> {
    if (throwing) return std::make_unique<ThrowAfter>(5);
    return std::make_unique<Sink>();
  });
  g.connect(src, 0, relay, 0);
  g.connect(relay, 0, sink, 0);
  return g;
}

TEST(ArenaConservation, NativeEngineTwentySeedsThreePolicies) {
  exec::Watchdog dog(std::chrono::seconds(240),
                     "NativeEngineTwentySeedsThreePolicies");
  auto& arena = BufferArena::global();
  for (core::Policy pol : {core::Policy::kRoundRobin,
                           core::Policy::kWeightedRoundRobin,
                           core::Policy::kDemandDriven}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const ArenaStats before = arena.stats();
      {
        core::Graph g = relay_graph(/*steps=*/100, /*throwing=*/false);
        core::Placement p;
        p.place(0, 0, 1).place(1, 0, 2).place(2, 1, 2);
        core::RuntimeConfig cfg;
        cfg.policy = pol;
        cfg.rng_seed = seed;
        exec::Engine eng(g, p, cfg);
        eng.run_uow();
      }
      const ArenaStats after = arena.stats();
      EXPECT_GT(after.slots_leased, before.slots_leased)
          << "run leased nothing — make_buffer is off the arena?";
      EXPECT_EQ(after.outstanding(), 0u)
          << "policy " << static_cast<int>(pol) << " seed " << seed;
    }
  }
}

TEST(ArenaConservation, AbortMidUowLeaksNothing) {
  exec::Watchdog dog(std::chrono::seconds(120), "AbortMidUowLeaksNothing");
  auto& arena = BufferArena::global();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ArenaStats before = arena.stats();
    {
      core::Graph g = relay_graph(/*steps=*/500, /*throwing=*/true);
      core::Placement p;
      p.place(0, 0, 1).place(1, 0, 2).place(2, 1, 1);
      core::RuntimeConfig cfg;
      cfg.policy = core::Policy::kDemandDriven;
      cfg.rng_seed = seed;
      exec::Engine eng(g, p, cfg);
      // The abort unwinds with buffers in flight in both channel hops; the
      // engine drains and joins, and every slot must still come home.
      EXPECT_THROW(eng.run_uow(), std::runtime_error) << "seed " << seed;
    }
    const ArenaStats after = arena.stats();
    EXPECT_GT(after.slots_leased, before.slots_leased)
        << "seed " << seed << ": aborted before leasing anything";
    EXPECT_EQ(after.outstanding(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dc
