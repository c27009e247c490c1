#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "comp/tile_map.hpp"
#include "io/chunk_store.hpp"
#include "io/reader.hpp"
#include "io/spill.hpp"
#include "net/socket.hpp"
#include "obs/recorder.hpp"
#include "viz/filters.hpp"

namespace perfbench {

/// How the replay composites fragments into the final image.
enum class Composite {
  kDirectZ,      ///< rasterize straight into one z-buffer (reference render)
  kActivePixel,  ///< Active Pixel WPA flushes merged into a z-buffer (R-ERa-M)
  kTiled,        ///< per-tile z-buffers, remote tiles over a socket, spill
};

struct ReplayConfig {
  Composite composite = Composite::kDirectZ;
  /// CRC32C every block against the store index. The engine's reader
  /// verifies each block it reads from disk; set this when the replayed
  /// blocks come from disk rather than a warm cache.
  bool verify_crc = true;
  /// Bench-side spans (bench:io.read, bench:viz.extract, ...) on one
  /// "bench:replay" track when set. Must outlive the replayer.
  dc::obs::TraceSession* trace = nullptr;
  /// kTiled: the tile map of the distributed render; fragments of tiles
  /// owned by owner index 1 (the remote rank) are sealed into DATA frames
  /// and written over a socketpair, the way rank 0 would ship them.
  const dc::comp::TileMap* tiles = nullptr;
  /// kTiled: fragment bytes per timestep appended to, then restored from,
  /// an io::SpillFile — the spill volume the governed engine measured.
  std::uint64_t spill_bytes_per_uow = 0;
};

struct ReplayOutcome {
  std::uint64_t digest = 0;
  std::uint64_t triangles = 0;
};

/// Single-threaded, layer-by-layer render of one timestep of the `.dcc`
/// store through the layers' public functions: ChunkReader::read,
/// core::crc32c, viz::marching_cubes, Camera::project + Active Pixel
/// rasterization, z-buffer / per-tile merge, net::write_frames and
/// io::SpillFile. Reads keep the workload's readahead window
/// (VizWorkload::prefetch_depth), as the Read filters do. With
/// Composite::kDirectZ and no trace it is the reference render every engine
/// image is checked against.
class Replayer {
 public:
  Replayer(const dc::viz::VizWorkload& w, const dc::io::ChunkStore& store,
           dc::io::ChunkReader& reader, ReplayConfig cfg);
  ~Replayer();

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  ReplayOutcome render(int timestep);

 private:
  void composite(const std::vector<dc::viz::PixEntry>& entries);
  void send_remote(bool flush_all);
  [[nodiscard]] dc::viz::Image finish_image();

  const dc::viz::VizWorkload& w_;
  const dc::io::ChunkStore& store_;
  dc::io::ChunkReader& reader_;
  ReplayConfig cfg_;
  dc::obs::Track* track_ = nullptr;

  dc::viz::ZBuffer zb_;                     // kDirectZ / kActivePixel
  std::vector<dc::viz::ZBuffer> tiles_zb_;  // kTiled, lazily sized per tile
  std::vector<dc::viz::PixEntry> remote_;   // kTiled: staged for the wire
  dc::net::Socket wire_;                    // kTiled: send end
  dc::net::Socket wire_peer_;               // kTiled: drained by drain_
  std::uint64_t next_seq_ = 0;
  std::thread drain_;
  std::unique_ptr<dc::io::SpillFile> spill_;
  std::vector<std::uint64_t> spill_tokens_;
  std::uint64_t spilled_ = 0;
};

}  // namespace perfbench
