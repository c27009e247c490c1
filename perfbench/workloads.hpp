#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comp/app.hpp"
#include "core/mem_governor.hpp"
#include "data/store.hpp"
#include "data/synth.hpp"
#include "io/reader.hpp"
#include "net/metrics.hpp"
#include "viz/app.hpp"

namespace perfbench {

enum class EngineKind { kNative, kDistributed };

/// One benchmark workload. Every workload renders the same kind of input —
/// a plume time series stored as `.dcc` chunks on 2 hosts x 2 disk
/// directories — through R-ERa-M with Active Pixel rendering, closed loop:
/// one client, and each UOW (one timestep -> one image) starts when the
/// previous one finished.
struct WorkloadDef {
  const char* name;
  EngineKind engine;
  int grid;               ///< cells per axis
  int chunks;             ///< chunks per axis
  int timesteps;          ///< materialized timesteps, cycled through
  int image;              ///< square image side in pixels
  /// Block-cache capacity in timesteps of payload; 0 keeps the reader's
  /// default (larger than the whole dataset).
  double cache_timesteps;
  int latency_us;         ///< emulated per-read device latency
  int cycles_per_pass;    ///< native: timed engine cycles per pass
};

[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);

/// The generated inputs of one run: the materialized store, the iso value
/// that fixes the isosurface size, and a reference digest per timestep.
struct Dataset {
  std::filesystem::path root;
  std::unique_ptr<dc::data::DatasetStore> store;
  std::unique_ptr<dc::data::PlumeField> field;
  float iso = 0.0f;
  int timesteps = 0;
  std::uint64_t payload_bytes_per_ts = 0;  ///< on-disk chunk bytes
  double logical_mb_per_uow = 0.0;         ///< dataset MB one UOW renders
  std::vector<std::uint64_t> ref_digests;  ///< per timestep
  std::uint64_t ref_triangles = 0;         ///< summed over the timesteps
};

/// Generates the plume field from `seed`, picks the iso value whose
/// isosurface has a fixed triangle count over the cycled timesteps (so that
/// every seed renders the same amount of geometry), materializes the store
/// under `dir`, and renders the reference digests single-threaded from it.
Dataset make_dataset(const WorkloadDef& def, std::uint64_t seed,
                     const std::filesystem::path& dir);

/// The R-ERa-M Active Pixel spec every workload renders. `reader` may be
/// null (the distributed ranks open their own).
[[nodiscard]] dc::viz::IsoAppSpec make_spec(const WorkloadDef& def,
                                            const Dataset& ds,
                                            dc::io::ChunkReader* reader);
[[nodiscard]] dc::io::ReaderOptions reader_options(const WorkloadDef& def,
                                                   const Dataset& ds);
[[nodiscard]] dc::comp::TiledCompSpec tiled_spec();

/// The ChunkReader counters the benchmark reports, disks summed. Counts are
/// held as doubles (exact far beyond any run's volume) so that one array
/// serves the deltas, the sums and the distributed ranks' probe files.
struct IoCounters {
  enum Field {
    kReadWaitS,
    kQueueWaitS,
    kServiceS,
    kDiskBytes,
    kCacheHits,
    kCacheMisses,
    kReadaheadHits,
    kPrefetchIssued,
    kNumFields
  };
  static constexpr const char* kNames[kNumFields] = {
      "read_wait_s", "queue_wait_s", "service_s",      "disk_bytes",
      "cache_hits",  "cache_misses", "readahead_hits", "prefetch_issued"};
  std::array<double, kNumFields> v{};

  [[nodiscard]] static IoCounters from(const dc::io::IoMetrics& m);
  [[nodiscard]] double operator[](Field f) const { return v[f]; }
  IoCounters& add(const IoCounters& o, double sign = 1.0);
};

/// Per-layer counters of the passes a run measured, summed over passes.
struct Counters {
  int uows = 0;                ///< UOWs the io/exec/net counters cover
  double makespan_s = 0.0;     ///< summed makespan of the exec-covered UOWs
  IoCounters io;
  // exec (native engine only)
  std::map<std::string, double> busy_s;  ///< per filter name
  std::map<std::string, int> copies;     ///< per filter name
  double exec_queue_wait_s = 0.0;
  double exec_stall_s = 0.0;
  double exec_io_wait_s = 0.0;
  // core / comp / net
  dc::core::GovernorStats governor;
  dc::net::NetMetricsSnapshot net;
  std::uint64_t frag_bytes = 0;
  std::uint64_t gather_bytes = 0;
  std::uint64_t tiles_partial = 0;
  std::uint64_t payload_copies = 0;

  void add(const Counters& o);
};

/// One pass: open the store, start the reader, build the app, launch the
/// engine (or the ranks), warm up, run the timed UOWs, tear down.
struct PassResult {
  std::vector<double> uow_s;  ///< timed UOW makespans
  double wall_s = 0.0;        ///< whole pass
  double setup_s = 0.0;       ///< wall_s minus the timed makespans
  int attempted = 0;          ///< UOWs run, warm-up included
  int failed = 0;             ///< incomplete or digest mismatch
  /// Peak RSS of the pass: this process's, or the largest rank's if larger.
  /// This process's peak is reset (after returning freed heap) at pass start.
  double peak_rss_mb = 0.0;
  Counters counters;
};

/// Runs one pass. With `trace` set, the engine's own spans (and, on the
/// distributed engine, every rank's) are recorded — the traced side of the
/// overhead measurement; the spans themselves are discarded.
PassResult run_pass(const WorkloadDef& def, const Dataset& ds,
                    const std::filesystem::path& scratch, bool trace);

}  // namespace perfbench
