#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>

#include "comp/filters.hpp"
#include "core/arena.hpp"
#include "data/decluster.hpp"
#include "exec/engine.hpp"
#include "io/chunk_store.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "viz/distributed.hpp"
#include "viz/marching_cubes.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using dc::core::Filter;
using dc::core::FilterContext;

namespace {

constexpr int kFiles = 64;
constexpr int kRanks = 2;
/// Triangles per timestep the iso value is tuned to. Over the plume fields
/// of seeds 1..6 at 128^3, the count crosses this value between iso 0.6 and
/// 1.0, where it rises monotonically with the iso value.
constexpr double kTargetTrianglesPerTs = 180000.0;
constexpr float kIsoLo = 0.5f;
constexpr float kIsoHi = 1.1f;
constexpr int kIsoSteps = 8;

const WorkloadDef kWorkloads[] = {
    // name, engine, grid, chunks, timesteps, image, cache_ts, latency_us,
    // cycles/pass
    {"render_warm_native", EngineKind::kNative, 128, 8, 4, 512, 0.0, 0, 8},
    // scan reads 4^3 chunks of 32^3 cells with 3 ms of emulated latency each:
    // 16 reads per disk per UOW put 48 ms of device time on every disk, above
    // the compute. Few long sleeps keep the tail on the device time; many
    // short ones make it follow the host's wake-up delays.
    {"scan_slowdisk_native", EngineKind::kNative, 128, 4, 4, 512, 0.5, 3000, 4},
    {"render_dist_tiled_spill", EngineKind::kDistributed, 128, 8, 6, 1024, 0.0, 0, 0},
};

using Samples = std::vector<std::vector<std::vector<float>>>;  // [ts][chunk]

std::uint64_t count_triangles(const dc::data::ChunkLayout& layout,
                              const Samples& samples, float iso) {
  std::uint64_t total = 0;
  std::vector<dc::viz::Triangle> tris;
  for (const auto& ts : samples) {
    for (int c = 0; c < layout.num_chunks(); ++c) {
      const dc::data::CellBox b = layout.chunk_box(c);
      tris.clear();
      total += dc::viz::marching_cubes(ts[static_cast<std::size_t>(c)].data(),
                                       b.hi[0] - b.lo[0], b.hi[1] - b.lo[1],
                                       b.hi[2] - b.lo[2], static_cast<float>(b.lo[0]),
                                       static_cast<float>(b.lo[1]),
                                       static_cast<float>(b.lo[2]), iso, tris)
                   .triangles;
    }
  }
  return total;
}

dc::core::RuntimeConfig runtime_config(const WorkloadDef& def) {
  dc::core::RuntimeConfig cfg;  // demand-driven, window 4
  // At the governor's floor reservation: every queue keeps its `window`
  // floor, and anything beyond it spills through io::SpillFile.
  if (def.engine == EngineKind::kDistributed) cfg.memory_budget_bytes = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// Rank-side probe. The rank processes are forked by viz::run_iso_app_
// distributed and report only engine ledgers back, so the io, compositor,
// arena and memory counters of each rank are written by a thin wrapper
// around the rank's tile-owner and gather filters after its last UOW.
// ---------------------------------------------------------------------------

struct RankIo {
  std::unique_ptr<dc::io::ChunkStore> store;
  std::unique_ptr<dc::io::ChunkReader> reader;
};

RankIo& rank_io() {
  static RankIo io;  // one per rank process: rank_app runs after fork
  return io;
}

class ProbedFilter final : public Filter {
 public:
  ProbedFilter(std::unique_ptr<Filter> inner, std::function<void(int)> report,
               int last_uow)
      : inner_(std::move(inner)), report_(std::move(report)), last_uow_(last_uow) {}
  void init(FilterContext& ctx) override { inner_->init(ctx); }
  void process_buffer(FilterContext& ctx, int port,
                      const dc::core::Buffer& buf) override {
    inner_->process_buffer(ctx, port, buf);
  }
  void process_eow(FilterContext& ctx) override {
    inner_->process_eow(ctx);
    if (ctx.uow_index() == last_uow_) report_(ctx.host());
  }
  void finalize(FilterContext& ctx) override { inner_->finalize(ctx); }

 private:
  std::unique_ptr<Filter> inner_;
  std::function<void(int)> report_;
  int last_uow_;
};

/// Copy of `g` whose filters `probed` are wrapped in ProbedFilter.
dc::core::Graph with_probes(const dc::core::Graph& g, const std::vector<int>& probed,
                            const std::function<void(int)>& report, int last_uow) {
  dc::core::Graph out;
  for (int f = 0; f < g.num_filters(); ++f) {
    const dc::core::FilterSpec& spec = g.filter(f);
    dc::core::FilterFactory factory = spec.factory;
    if (std::find(probed.begin(), probed.end(), f) != probed.end()) {
      factory = [inner = spec.factory, report, last_uow] {
        return std::make_unique<ProbedFilter>(inner(), report, last_uow);
      };
    }
    out.add_filter(spec.name, std::move(factory), spec.is_source);
  }
  for (int s = 0; s < g.num_streams(); ++s) {
    const dc::core::StreamSpec& st = g.stream(s);
    const int id = out.connect(st.from_filter, st.from_port, st.to_filter, st.to_port,
                               st.min_buffer_bytes, st.max_buffer_bytes);
    out.stream(id).policy = st.policy;
  }
  return out;
}

fs::path probe_file(const fs::path& dir, int rank) {
  return dir / ("rank" + std::to_string(rank) + ".probe");
}

void write_probe(const fs::path& dir, int rank, const dc::io::ChunkReader& reader,
                 const dc::comp::CompStats& comp) {
  static std::mutex mu;  // TM and G of rank 0 may finish concurrently
  std::lock_guard<std::mutex> lk(mu);
  const IoCounters io = IoCounters::from(reader.metrics());
  const fs::path tmp = probe_file(dir, rank).string() + ".tmp";
  {
    std::ofstream f(tmp);
    f.precision(17);
    for (int i = 0; i < IoCounters::kNumFields; ++i) {
      f << IoCounters::kNames[i] << ' ' << io.v[static_cast<std::size_t>(i)] << '\n';
    }
    f << "tiles_partial " << comp.tiles_partial.load() << "\npayload_copies "
      << dc::core::BufferArena::global().stats().payload_copies << "\npeak_rss_mb "
      << peak_rss_mb() << "\n";
  }
  fs::rename(tmp, probe_file(dir, rank));
}

std::map<std::string, double> read_probe(const fs::path& path) {
  std::map<std::string, double> kv;
  std::ifstream f(path);
  std::string key;
  double value = 0.0;
  while (f >> key >> value) kv[key] = value;
  return kv;
}

dc::viz::IsoApp rank_app(const dc::viz::IsoAppSpec& spec,
                         const dc::io::ReaderOptions& ropts, const fs::path& root,
                         const fs::path& probe_dir, int last_uow) {
  reset_peak_rss();  // the rank's own peak, not the parent's inherited one
  RankIo& rio = rank_io();
  rio.store = std::make_unique<dc::io::ChunkStore>(root);
  rio.reader = std::make_unique<dc::io::ChunkReader>(*rio.store, ropts);
  dc::viz::IsoAppSpec s = spec;
  s.workload.reader = rio.reader.get();
  dc::comp::TiledApp t = dc::comp::build_tiled_iso_app(s, tiled_spec());
  const auto report = [reader = rio.reader.get(), stats = t.stats,
                       probe_dir](int rank) {
    write_probe(probe_dir, rank, *reader, *stats);
  };
  t.app.graph = with_probes(t.app.graph, {t.tile_merge_filter, t.gather_filter},
                            report, last_uow);
  return t.app;
}

PassResult native_pass(const WorkloadDef& def, const Dataset& ds, bool trace) {
  PassResult r;
  std::unique_ptr<dc::obs::TraceSession> session;
  if (trace) session = std::make_unique<dc::obs::TraceSession>();
  const double t0 = now_s();
  double timed = 0.0;
  {
    dc::io::ChunkStore store(ds.root);
    dc::io::ReaderOptions ropts = reader_options(def, ds);
    ropts.trace = session.get();
    dc::io::ChunkReader reader(store, ropts);
    dc::viz::IsoAppSpec spec = make_spec(def, ds, &reader);
    spec.trace = session.get();
    const dc::viz::IsoApp app = dc::viz::build_iso_app(spec);
    const dc::core::RuntimeConfig cfg = runtime_config(def);
    IoCounters before;
    // Cycle 0 warms the reader, the arena and the page cache; engine cycles
    // restart the UOW counter, which is the timestep index.
    for (int cycle = 0; cycle <= def.cycles_per_pass; ++cycle) {
      if (cycle == 1) before = IoCounters::from(reader.metrics());
      dc::exec::Engine eng(app.graph, app.placement, cfg);
      eng.set_obs(session.get());
      for (int u = 0; u < ds.timesteps; ++u) {
        const std::size_t had = app.sink->digests.size();
        ++r.attempted;
        double makespan = 0.0;
        bool ok = true;
        try {
          makespan = eng.run_uow();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "UOW failed: %s\n", e.what());
          ok = false;
        }
        ok = ok && app.sink->digests.size() == had + 1 &&
             app.sink->digests.back() == ds.ref_digests[static_cast<std::size_t>(u)];
        if (!ok) {
          ++r.failed;
        } else if (cycle > 0) {
          r.uow_s.push_back(makespan);
          timed += makespan;
        }
      }
      if (cycle == 0) continue;
      for (const auto& inst : eng.metrics().instances) {
        const std::string& name = app.graph.filter(inst.filter).name;
        r.counters.busy_s[name] += inst.busy_time;
        r.counters.exec_queue_wait_s += inst.queue_wait_time;
        r.counters.exec_stall_s += inst.stall_time;
        r.counters.exec_io_wait_s += inst.io_wait_time;
      }
      for (int f = 0; f < app.graph.num_filters(); ++f) {
        r.counters.copies[app.graph.filter(f).name] = eng.total_copies(f);
      }
    }
    r.counters.io = IoCounters::from(reader.metrics()).add(before, -1.0);
  }
  r.wall_s = now_s() - t0;
  r.setup_s = r.wall_s - timed;
  r.counters.uows = static_cast<int>(r.uow_s.size());
  r.counters.makespan_s = timed;
  r.counters.payload_copies = dc::core::BufferArena::global().stats().payload_copies;
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

PassResult dist_pass(const WorkloadDef& def, const Dataset& ds, const fs::path& scratch,
                     bool trace) {
  PassResult r;
  const fs::path probe_dir = scratch / "probe";
  const fs::path trace_dir = scratch / "rank_traces";
  fs::create_directories(probe_dir);
  dc::viz::DistributedRunOptions opts;
  const dc::io::ReaderOptions ropts = reader_options(def, ds);
  const int last_uow = ds.timesteps - 1;
  opts.builder = [&](const dc::viz::IsoAppSpec& s) {
    return rank_app(s, ropts, ds.root, probe_dir, last_uow);
  };
  if (trace) {
    fs::create_directories(trace_dir);
    opts.trace_dir = trace_dir.string();
  }
  const dc::viz::IsoAppSpec spec = make_spec(def, ds, nullptr);

  const double t0 = now_s();
  const dc::viz::DistributedRenderRun run = dc::viz::run_iso_app_distributed(
      spec, runtime_config(def), ds.timesteps, kRanks, std::move(opts));
  r.wall_s = now_s() - t0;

  if (!run.ok) std::fprintf(stderr, "distributed pass: %s\n", run.error.c_str());
  double timed = 0.0;
  bool last_ok = false;
  for (int u = 0; u < ds.timesteps; ++u) {
    const auto i = static_cast<std::size_t>(u);
    ++r.attempted;
    const bool ok = i < run.digests.size() && i < run.per_uow.size() &&
                    i < run.uow_status.size() && run.uow_status[i] == 0 &&
                    run.digests[i] == ds.ref_digests[i];
    last_ok = ok;
    if (!ok) {
      ++r.failed;
    } else if (u > 0) {  // UOW 0 warms the links, arena and page cache
      r.uow_s.push_back(run.per_uow[i]);
      timed += run.per_uow[i];
    }
  }
  r.setup_s = r.wall_s - timed;

  Counters& c = r.counters;
  c.uows = static_cast<int>(run.per_uow.size());
  for (double m : run.per_uow) c.makespan_s += m;
  c.governor = run.governor;
  c.net = run.net;
  for (const auto& s : run.metrics.streams) {
    if (s.name == "ERa->TM") c.frag_bytes += s.payload_bytes;
    if (s.name == "TM->G") c.gather_bytes += s.payload_bytes;
  }
  r.peak_rss_mb = peak_rss_mb();
  for (int rank = 0; rank < kRanks; ++rank) {
    const fs::path path = probe_file(probe_dir, rank);
    if (!fs::exists(path)) {
      // The rank never finished its last UOW, so that UOW is incomplete.
      if (last_ok) ++r.failed;
      last_ok = false;
      continue;
    }
    const auto kv = read_probe(path);
    const auto get = [&kv](const char* k) {
      const auto it = kv.find(k);
      return it == kv.end() ? 0.0 : it->second;
    };
    const auto count = [&get](const char* k) {
      return static_cast<std::uint64_t>(get(k));
    };
    for (int i = 0; i < IoCounters::kNumFields; ++i) {
      c.io.v[static_cast<std::size_t>(i)] += get(IoCounters::kNames[i]);
    }
    c.tiles_partial += count("tiles_partial");
    c.payload_copies += count("payload_copies");
    r.peak_rss_mb = std::max(r.peak_rss_mb, get("peak_rss_mb"));
  }
  fs::remove_all(probe_dir);
  fs::remove_all(trace_dir);
  return r;
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

dc::io::ReaderOptions reader_options(const WorkloadDef& def, const Dataset& ds) {
  dc::io::ReaderOptions o;
  if (def.cache_timesteps > 0.0) {
    o.cache_bytes = static_cast<std::size_t>(def.cache_timesteps *
                                             static_cast<double>(ds.payload_bytes_per_ts));
  }
  o.simulated_latency = std::chrono::microseconds(def.latency_us);
  return o;
}

dc::viz::IsoAppSpec make_spec(const WorkloadDef& def, const Dataset& ds,
                              dc::io::ChunkReader* reader) {
  dc::viz::IsoAppSpec spec;
  spec.config = dc::viz::PipelineConfig::kR_ERa_M;
  spec.hsr = dc::viz::HsrAlgorithm::kActivePixel;
  spec.workload.store = ds.store.get();
  spec.workload.field = ds.field.get();
  spec.workload.reader = reader;
  spec.workload.iso_value = ds.iso;
  spec.workload.width = def.image;
  spec.workload.height = def.image;
  // One R and one ERa copy per data host, M on host 0: 5 compute threads.
  spec.data_hosts = {{0, 1}, {1, 1}};
  spec.raster_hosts = {{0, 1}, {1, 1}};
  spec.merge_host = 0;
  spec.keep_images = false;
  // About six 16^3-cell chunks per R -> ERa buffer: ~90 granules per UOW
  // still give the demand-driven policy room to balance, with ~10x fewer
  // cross-thread hand-offs than the 16 KiB default.
  spec.block_buffer_bytes = 128 * 1024;
  return spec;
}

dc::comp::TiledCompSpec tiled_spec() {
  dc::comp::TiledCompSpec comp;
  comp.tile_px = 32;
  comp.owner_hosts = {0, 1};
  comp.gather_host = 0;
  return comp;
}

Dataset make_dataset(const WorkloadDef& def, std::uint64_t seed, const fs::path& dir) {
  Dataset ds;
  ds.root = dir;
  ds.timesteps = def.timesteps;
  const dc::data::ChunkLayout layout(dc::data::GridDims{def.grid, def.grid, def.grid},
                                     def.chunks, def.chunks, def.chunks);
  ds.store = std::make_unique<dc::data::DatasetStore>(
      layout, dc::data::hilbert_decluster(layout, kFiles), kFiles);
  ds.store->place_uniform({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  ds.field = std::make_unique<dc::data::PlumeField>(seed);
  ds.logical_mb_per_uow = static_cast<double>(ds.store->total_bytes()) / 1e6;

  Samples samples(static_cast<std::size_t>(def.timesteps));
  for (int t = 0; t < def.timesteps; ++t) {
    auto& ts = samples[static_cast<std::size_t>(t)];
    ts.resize(static_cast<std::size_t>(layout.num_chunks()));
    for (int c = 0; c < layout.num_chunks(); ++c) {
      ds.field->fill_chunk(layout, c, static_cast<float>(t),
                           ts[static_cast<std::size_t>(c)]);
    }
  }
  const double target = kTargetTrianglesPerTs * def.timesteps;
  float lo = kIsoLo, hi = kIsoHi;
  for (int i = 0; i < kIsoSteps; ++i) {
    const float mid = 0.5f * (lo + hi);
    if (static_cast<double>(count_triangles(layout, samples, mid)) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  ds.iso = 0.5f * (lo + hi);

  dc::io::materialize_dataset(
      dir, *ds.store,
      [&samples](int chunk, int t, std::vector<std::byte>& out) {
        const auto& s = samples[static_cast<std::size_t>(t)][static_cast<std::size_t>(chunk)];
        out.resize(s.size() * sizeof(float));
        std::memcpy(out.data(), s.data(), out.size());
      },
      0, def.timesteps);
  samples = Samples();

  dc::io::ChunkStore store(dir);
  ds.payload_bytes_per_ts = store.total_payload_bytes() / static_cast<std::uint64_t>(def.timesteps);
  dc::io::ChunkReader reader(store, dc::io::ReaderOptions{});
  const dc::viz::IsoAppSpec spec = make_spec(def, ds, &reader);
  Replayer ref(spec.workload, store, reader, ReplayConfig{});
  for (int t = 0; t < def.timesteps; ++t) {
    const ReplayOutcome o = ref.render(t);
    ds.ref_digests.push_back(o.digest);
    ds.ref_triangles += o.triangles;
  }
  return ds;
}

IoCounters IoCounters::from(const dc::io::IoMetrics& m) {
  IoCounters c;
  c.v[kReadWaitS] = m.read_wait_s;
  c.v[kQueueWaitS] = m.total_queue_wait_s();
  for (const auto& d : m.disks) c.v[kServiceS] += d.service_s;
  c.v[kDiskBytes] = static_cast<double>(m.total_disk_bytes());
  c.v[kCacheHits] = static_cast<double>(m.cache.hits);
  c.v[kCacheMisses] = static_cast<double>(m.cache.misses);
  c.v[kReadaheadHits] = static_cast<double>(m.cache.readahead_hits);
  c.v[kPrefetchIssued] = static_cast<double>(m.cache.prefetch_issued);
  return c;
}

IoCounters& IoCounters::add(const IoCounters& o, double sign) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += sign * o.v[i];
  return *this;
}

void Counters::add(const Counters& o) {
  uows += o.uows;
  makespan_s += o.makespan_s;
  io.add(o.io);
  for (const auto& [k, v] : o.busy_s) busy_s[k] += v;
  for (const auto& [k, v] : o.copies) copies[k] = v;
  exec_queue_wait_s += o.exec_queue_wait_s;
  exec_stall_s += o.exec_stall_s;
  exec_io_wait_s += o.exec_io_wait_s;
  governor += o.governor;
  net += o.net;
  frag_bytes += o.frag_bytes;
  gather_bytes += o.gather_bytes;
  tiles_partial += o.tiles_partial;
  payload_copies = std::max(payload_copies, o.payload_copies);
}

PassResult run_pass(const WorkloadDef& def, const Dataset& ds, const fs::path& scratch,
                    bool trace) {
  // Each pass starts like a fresh process: freed heap returned to the OS and
  // the peak RSS counter reset, so one pass's fragmentation does not set the
  // next one's peak.
  ::malloc_trim(0);
  reset_peak_rss();
  return def.engine == EngineKind::kNative ? native_pass(def, ds, trace)
                                           : dist_pass(def, ds, scratch, trace);
}

}  // namespace perfbench
