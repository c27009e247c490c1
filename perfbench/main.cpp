// Out-of-core render benchmark: renders a plume time series from on-disk
// `.dcc` chunks on the native or the distributed engine, closed loop, and
// reports end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
//
//   ooc_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit ID] [--trace-out FILE]
//
// Every UOW image is checked against a reference digest rendered
// single-threaded from the same chunks before timing starts. The last line
// of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the exit code is non-zero on any digest mismatch, incomplete
// UOW, partial compositor tile or zero-copy payload copy. perfbench/run.py
// builds this binary and runs it; see perfbench/README.md.

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/spill.hpp"
#include "obs/chrome.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/// Hard cap on the measuring phase: a slow machine that cannot reach the
/// minimum UOW count in time still finishes well inside the run deadline.
constexpr double kMaxMeasureS = 120.0;
/// uow_tail_s is p90 on every workload, taken over windows of 100
/// consecutive timed UOWs, so each window has 10 samples beyond it.
constexpr double kTailQ = 0.90;
constexpr std::size_t kTailWindow = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  return a;
}

/// Scratch directory under $TMPDIR holding the dataset, rank probes and
/// rank traces; removed with everything in it when the run ends.
class Scratch {
 public:
  Scratch() {
    std::string tmpl = (dc::io::temp_root() / "ooc_bench_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a scratch directory under " +
                               dc::io::temp_root().string());
    }
    path_ = tmpl;
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Outcome {
  int attempted = 0;
  int failed = 0;
  bool replay_ok = true;
  Counters counters;
  std::vector<Metric> metrics;
};

void tally(Outcome& out, const PassResult& p) {
  out.attempted += p.attempted;
  out.failed += p.failed;
  out.counters.add(p.counters);
}

/// --trace 0: untraced passes for `seconds`, then the end-to-end metrics.
Outcome end_to_end(const WorkloadDef& def, const Dataset& ds, const fs::path& scratch,
                   double seconds) {
  Outcome out;
  std::vector<double> uows, setups, mb_per_s, peaks;
  const double t0 = now_s();
  while (now_s() - t0 < seconds || uows.size() < kTailWindow) {
    if (now_s() - t0 > kMaxMeasureS) break;
    const PassResult p = run_pass(def, ds, scratch, /*trace=*/false);
    tally(out, p);
    uows.insert(uows.end(), p.uow_s.begin(), p.uow_s.end());
    setups.push_back(p.setup_s);
    peaks.push_back(p.peak_rss_mb);
    double timed = 0.0;
    for (double u : p.uow_s) timed += u;
    if (timed > 0.0) {
      mb_per_s.push_back(ds.logical_mb_per_uow * static_cast<double>(p.uow_s.size()) / timed);
    }
  }
  if (uows.empty()) throw std::runtime_error("no UOW completed");
  const double tail = windowed_quantile(uows, kTailQ, kTailWindow);
  std::printf("timed UOWs: %zu over %zu passes; uow_tail_s is the median p%g of %zu "
              "windows (%zu of all samples beyond it)\n",
              uows.size(), setups.size(), kTailQ * 100.0,
              std::max<std::size_t>(1, uows.size() / kTailWindow), count_above(uows, tail));
  std::printf("UOW makespan quantiles:");
  for (double q : {0.5, 0.75, 0.8, 0.9, 0.95, 0.99}) {
    std::printf(" p%g %.4f", q * 100.0, quantile(uows, q));
  }
  std::printf("\n");
  out.metrics = {
      {"dataset_mb_per_s", median(mb_per_s), "MB/s"},
      {"uow_p50_s", median(uows), "s"},
      {"uow_tail_s", tail, "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", median(peaks), "MB"},
      {"uow_ok_ratio",
       1.0 - ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
       "ratio"},
  };
  return out;
}

/// --trace 1: interleaved untraced/traced passes (engine counters and the
/// tracing overhead), then one traced layer-by-layer replay of the cycled
/// timesteps (self time per layer, Chrome trace, digest parity).
Outcome per_layer(const WorkloadDef& def, const Dataset& ds, const fs::path& scratch,
                  double seconds, const std::string& trace_out) {
  Outcome out;
  std::vector<double> overheads;
  const double t0 = now_s();
  while ((now_s() - t0 < 0.6 * seconds || overheads.size() < 3) &&
         now_s() - t0 < kMaxMeasureS) {
    const PassResult a = run_pass(def, ds, scratch, /*trace=*/false);
    const PassResult b = run_pass(def, ds, scratch, /*trace=*/true);
    tally(out, a);
    out.attempted += b.attempted;
    out.failed += b.failed;
    if (!a.uow_s.empty() && !b.uow_s.empty()) {
      const double base = median(a.uow_s);
      overheads.push_back(100.0 * (median(b.uow_s) - base) / base);
    }
  }
  const Counters& c = out.counters;
  const double n = std::max(1, c.uows);

  // Replay. A warm cache holds every cycled block, so the replay warms it
  // first and, like the engine, never re-reads or re-checks a block.
  const bool warm_cache =
      def.engine == EngineKind::kNative && def.cache_timesteps == 0.0;
  dc::obs::TraceSession session(dc::obs::TraceOptions{1u << 18, true});
  dc::io::ChunkStore store(ds.root);
  dc::io::ReaderOptions ropts = reader_options(def, ds);
  ropts.verify_checksums = false;  // bench:core.crc checks every block instead
  dc::io::ChunkReader reader(store, ropts);
  const dc::viz::IsoAppSpec spec = make_spec(def, ds, &reader);
  const dc::comp::TiledCompSpec comp = tiled_spec();
  const dc::comp::TileMap tiles(dc::comp::TileLayout{def.image, def.image, comp.tile_px},
                                static_cast<int>(comp.owner_hosts.size()), comp.map_seed);
  ReplayConfig rc;
  rc.verify_crc = !warm_cache;
  if (def.engine == EngineKind::kNative) {
    rc.composite = Composite::kActivePixel;
  } else {
    rc.composite = Composite::kTiled;
    rc.tiles = &tiles;
    rc.spill_bytes_per_uow = static_cast<std::uint64_t>(
        static_cast<double>(c.governor.spilled_bytes) / n);
  }
  if (warm_cache) {
    Replayer warmup(spec.workload, store, reader, rc);
    for (int t = 0; t < ds.timesteps; ++t) (void)warmup.render(t);
  }
  rc.trace = &session;
  std::uint64_t triangles = 0;
  {
    Replayer replay(spec.workload, store, reader, rc);
    for (int t = 0; t < ds.timesteps; ++t) {
      const ReplayOutcome o = replay.render(t);
      ++out.attempted;
      triangles += o.triangles;
      if (o.digest != ds.ref_digests[static_cast<std::size_t>(t)]) {
        ++out.failed;
        out.replay_ok = false;
        std::printf("replay digest mismatch at timestep %d\n", t);
      }
    }
  }
  const dc::io::IoMetrics replay_io = reader.metrics();
  const std::map<std::string, double> self = self_times(session);
  if (!trace_out.empty()) {
    fs::create_directories(fs::path(trace_out).parent_path());
    if (!dc::obs::write_chrome_trace(session, trace_out)) {
      throw std::runtime_error("cannot write " + trace_out);
    }
    std::printf("replay trace: %s\n", trace_out.c_str());
  }
  const double replayed = ds.timesteps;
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / replayed;
  };
  const auto busy_frac = [&](const char* filter) {
    const auto b = c.busy_s.find(filter);
    const auto k = c.copies.find(filter);
    if (b == c.busy_s.end() || k == c.copies.end()) return 0.0;
    return ratio(b->second, k->second * c.makespan_s);
  };
  std::printf("replay: %d timesteps, %llu triangles, reads %llu (%llu cache hits)\n",
              ds.timesteps, static_cast<unsigned long long>(triangles),
              static_cast<unsigned long long>(replay_io.read_calls),
              static_cast<unsigned long long>(replay_io.cache.hits));
  if (!c.busy_s.empty()) {
    const char* critical = "R";
    for (const char* f : {"ERa", "M"}) {
      if (busy_frac(f) > busy_frac(critical)) critical = f;
    }
    std::printf("critical stage (highest busy fraction): %s\n", critical);
  }

  const double mb = 1e6;
  out.metrics = {
      {"io.read.wait_s", c.io[IoCounters::kReadWaitS] / n, "s/uow"},
      {"io.disk.queue_wait_s", c.io[IoCounters::kQueueWaitS] / n, "s/uow"},
      {"io.disk.service_s", c.io[IoCounters::kServiceS] / n, "s/uow"},
      {"io.readahead.useful_ratio",
       ratio(c.io[IoCounters::kReadaheadHits], c.io[IoCounters::kPrefetchIssued]), "ratio"},
      {"io.disk.mb_per_uow", c.io[IoCounters::kDiskBytes] / mb / n, "MB/uow"},
      {"io.cache.hit_ratio",
       ratio(c.io[IoCounters::kCacheHits],
             c.io[IoCounters::kCacheHits] + c.io[IoCounters::kCacheMisses]),
       "ratio"},
      {"io.read.self_s", self_s("bench:io.read"), "s/uow"},
      {"core.crc.self_s", self_s("bench:core.crc"), "s/uow"},
      {"io.spill.mb_per_uow", static_cast<double>(c.governor.spilled_bytes) / mb / n,
       "MB/uow"},
      {"io.spill.write_self_s", self_s("bench:io.spill.write"), "s/uow"},
      {"io.spill.restore_self_s", self_s("bench:io.spill.restore"), "s/uow"},
      {"core.governor.high_water_mb", static_cast<double>(c.governor.high_water_bytes) / mb,
       "MB"},
      {"exec.R.busy_frac", busy_frac("R"), "ratio"},
      {"exec.ERa.busy_frac", busy_frac("ERa"), "ratio"},
      {"exec.M.busy_frac", busy_frac("M"), "ratio"},
      {"exec.queue_wait_s", c.exec_queue_wait_s / n, "s/uow"},
      {"exec.stall_s", c.exec_stall_s / n, "s/uow"},
      {"exec.io_wait_s", c.exec_io_wait_s / n, "s/uow"},
      {"viz.extract.self_s", self_s("bench:viz.extract"), "s/uow"},
      {"viz.extract.triangles", static_cast<double>(triangles) / replayed, "count/uow"},
      {"viz.raster.self_s", self_s("bench:viz.raster"), "s/uow"},
      {"viz.merge.self_s", self_s("bench:viz.merge"), "s/uow"},
      {"comp.frag.mb_per_uow", static_cast<double>(c.frag_bytes) / mb / n, "MB/uow"},
      {"comp.gather.mb_per_uow", static_cast<double>(c.gather_bytes) / mb / n, "MB/uow"},
      {"comp.tiles_partial", static_cast<double>(c.tiles_partial), "count"},
      {"comp.tile.self_s", self_s("bench:comp.tile"), "s/uow"},
      {"net.sent.mb_per_uow", static_cast<double>(c.net.bytes_sent) / mb / n, "MB/uow"},
      {"net.frames_per_batch",
       ratio(static_cast<double>(c.net.frames_sent), static_cast<double>(c.net.send_batches)),
       "frames"},
      {"net.credit_stalls", static_cast<double>(c.net.credit_stalls) / n, "count/uow"},
      {"net.credit_stall_p99_us", static_cast<double>(c.net.stall_percentile_us(0.99)), "us"},
      {"net.send.self_s", self_s("bench:net.send"), "s/uow"},
      {"core.arena.payload_copies", static_cast<double>(c.payload_copies), "count"},
      {"obs.trace_overhead_pct", overheads.empty() ? 0.0 : median(overheads), "%"},
  };
  return out;
}

int run(const Args& args) {
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const Scratch scratch;

  const double m0 = now_s();
  const Dataset ds = make_dataset(*def, args.seed, scratch.path() / "data");
  const double prep_s = now_s() - m0;

  std::printf("workload %s seed %llu: %dx%dx%d grid, %d^3 chunks, %d timesteps, "
              "%dx%d image, iso %.4f, %llu triangles/timestep, %.2f MB/UOW; "
              "inputs + references in %.2f s (untimed)\n",
              def->name, static_cast<unsigned long long>(args.seed), def->grid, def->grid,
              def->grid, def->chunks, def->timesteps, def->image, def->image, ds.iso,
              static_cast<unsigned long long>(ds.ref_triangles /
                                              static_cast<std::uint64_t>(def->timesteps)),
              ds.logical_mb_per_uow, prep_s);
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"hardware_threads\": %u, \"build_type\": \"%s\", \"commit\": \"%s\"}}\n",
              def->name, static_cast<unsigned long long>(args.seed), args.trace,
              std::thread::hardware_concurrency(), DC_BENCH_BUILD_TYPE,
              args.commit.c_str());

  const Outcome out = args.trace == 0
                          ? end_to_end(*def, ds, scratch.path(), args.seconds)
                          : per_layer(*def, ds, scratch.path(), args.seconds, args.trace_out);
  for (const Metric& m : out.metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = out.failed == 0 && out.replay_ok && out.counters.tiles_partial == 0 &&
                       out.counters.payload_copies == 0;
  if (!correct) {
    std::printf("INCORRECT: %d of %d UOWs failed, %llu partial tiles, %llu payload copies\n",
                out.failed, out.attempted,
                static_cast<unsigned long long>(out.counters.tiles_partial),
                static_cast<unsigned long long>(out.counters.payload_copies));
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              metrics_json(out.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ooc_bench: %s\n", e.what());
    return 2;
  }
}
