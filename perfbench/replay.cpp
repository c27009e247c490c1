#include "replay.hpp"

#include <sys/socket.h>

#include <cstring>
#include <stdexcept>

#include "io/format.hpp"
#include "net/wire.hpp"
#include "viz/active_pixel.hpp"
#include "viz/marching_cubes.hpp"
#include "viz/raster.hpp"

namespace perfbench {

namespace dio = dc::io;
namespace dnet = dc::net;
namespace dviz = dc::viz;
using dc::obs::ScopedSpan;

namespace {

constexpr int kRemoteOwner = 1;  // owner index served by the other rank
/// Pixel and fragment stream buffers of the rendered apps (IsoAppSpec::
/// pix_buffer_bytes, TiledCompSpec::frag_buffer_bytes): the Active Pixel WPA
/// and each replayed DATA frame hold one buffer's worth of entries.
constexpr std::size_t kEntriesPerBuffer = 64 * 1024 / sizeof(dviz::PixEntry);

std::vector<std::byte> entry_bytes(const dviz::PixEntry* e, std::size_t n) {
  std::vector<std::byte> out(n * sizeof(dviz::PixEntry));
  if (n > 0) std::memcpy(out.data(), e, out.size());
  return out;
}

}  // namespace

Replayer::Replayer(const dviz::VizWorkload& w, const dio::ChunkStore& store,
                   dio::ChunkReader& reader, ReplayConfig cfg)
    : w_(w), store_(store), reader_(reader), cfg_(cfg) {
  if (cfg_.trace != nullptr) track_ = &cfg_.trace->track("bench:replay");
  if (cfg_.composite != Composite::kTiled) return;
  if (cfg_.tiles == nullptr) {
    throw std::invalid_argument("Replayer: tiled composite needs a tile map");
  }
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("Replayer: socketpair failed");
  }
  wire_ = dnet::Socket(fds[0]);
  wire_peer_ = dnet::Socket(fds[1]);
  spill_ = std::make_unique<dio::SpillFile>();
  // The receiving side only drains and validates, so the sender never
  // blocks on a full socket buffer.
  drain_ = std::thread([this] {
    try {
      std::uint64_t seq = 0;
      dnet::Frame f;
      while (dnet::read_frame(wire_peer_, f, seq) == dnet::WireError::kOk) ++seq;
    } catch (const std::exception&) {
      // Falls through: the shutdown below fails the sender's next write.
    }
    // On a bad frame this fails the sender's next write instead of letting
    // it block on a socket nobody reads.
    wire_peer_.shutdown_both();
  });
}

Replayer::~Replayer() {
  if (drain_.joinable()) {
    wire_.close();  // EOF on a frame boundary ends the drain loop
    drain_.join();
  }
}

void Replayer::send_remote(bool flush_all) {
  if (remote_.empty() || (!flush_all && remote_.size() < kEntriesPerBuffer)) return;
  ScopedSpan span(cfg_.trace, track_, "bench:net.send",
                  static_cast<std::int64_t>(remote_.size()));
  std::vector<dnet::Frame> frames;
  for (std::size_t i = 0; i < remote_.size(); i += kEntriesPerBuffer) {
    const std::size_t n = std::min(kEntriesPerBuffer, remote_.size() - i);
    frames.push_back(dnet::make_frame(dnet::FrameType::kData, {},
                                      entry_bytes(remote_.data() + i, n)));
  }
  if (!dnet::write_frames(wire_, frames, next_seq_)) {
    throw std::runtime_error("Replayer: write_frames failed");
  }
  next_seq_ += frames.size();
  remote_.clear();
}

void Replayer::composite(const std::vector<dviz::PixEntry>& entries) {
  if (cfg_.composite == Composite::kActivePixel) {
    ScopedSpan span(cfg_.trace, track_, "bench:viz.merge",
                    static_cast<std::int64_t>(entries.size()));
    for (const dviz::PixEntry& e : entries) zb_.apply(e);
    return;
  }
  const dc::comp::TileLayout& layout = cfg_.tiles->layout();
  {
    ScopedSpan span(cfg_.trace, track_, "bench:comp.tile",
                    static_cast<std::int64_t>(entries.size()));
    for (const dviz::PixEntry& e : entries) {
      const int tile = layout.tile_of(e.index);
      dviz::ZBuffer& zb = tiles_zb_[static_cast<std::size_t>(tile)];
      if (zb.size() == 0) zb = dviz::ZBuffer(layout.tile_w(tile), layout.tile_h(tile));
      zb.apply(layout.local_index(tile, e.index), e.depth, e.rgba);
      if (cfg_.tiles->owner(tile) == kRemoteOwner) remote_.push_back(e);
    }
  }
  if (spilled_ < cfg_.spill_bytes_per_uow) {
    ScopedSpan span(cfg_.trace, track_, "bench:io.spill.write",
                    static_cast<std::int64_t>(entries.size()));
    const auto bytes = entry_bytes(entries.data(), entries.size());
    spill_tokens_.push_back(spill_->append(bytes));
    spilled_ += bytes.size();
  }
  send_remote(/*flush_all=*/false);
}

dviz::Image Replayer::finish_image() {
  const std::uint32_t background = dviz::RenderSink{}.background;
  if (cfg_.composite != Composite::kTiled) {
    ScopedSpan span(cfg_.trace, track_, "bench:viz.merge");
    return zb_.to_image(background);
  }
  send_remote(/*flush_all=*/true);
  const dc::comp::TileLayout& layout = cfg_.tiles->layout();
  dviz::Image image(w_.width, w_.height, background);
  {
    // Gather: each tile owner ships its finished tile as a dense block.
    ScopedSpan span(cfg_.trace, track_, "bench:comp.tile");
    for (int tile = 0; tile < layout.num_tiles(); ++tile) {
      const dviz::ZBuffer& zb = tiles_zb_[static_cast<std::size_t>(tile)];
      if (zb.size() == 0) continue;
      const dviz::Image block = zb.to_image(background);
      image.blit(layout.x0(tile), layout.y0(tile), block);
      if (cfg_.tiles->owner(tile) == kRemoteOwner) {
        for (std::uint32_t i = 0; i < zb.size(); ++i) {
          remote_.push_back(dviz::PixEntry{layout.global_index(tile, i),
                                           zb.depth_at(i), zb.rgba_at(i)});
        }
      }
    }
  }
  send_remote(/*flush_all=*/true);
  if (!spill_tokens_.empty()) {
    ScopedSpan span(cfg_.trace, track_, "bench:io.spill.restore",
                    static_cast<std::int64_t>(spill_tokens_.size()));
    std::vector<std::byte> out;
    for (std::uint64_t token : spill_tokens_) spill_->read(token, out);
    spill_tokens_.clear();
  }
  return image;
}

ReplayOutcome Replayer::render(int timestep) {
  ScopedSpan uow_span(cfg_.trace, track_, "bench:uow", timestep);
  const dc::data::ChunkLayout& layout = w_.store->layout();
  const dviz::Camera cam = w_.make_camera(0);
  const float scalar_norm = w_.iso_value / w_.field_max;
  const int num_chunks = layout.num_chunks();

  zb_ = dviz::ZBuffer(w_.width, w_.height);
  tiles_zb_.assign(cfg_.composite == Composite::kTiled
                       ? static_cast<std::size_t>(cfg_.tiles->layout().num_tiles())
                       : 0,
                   dviz::ZBuffer());
  spilled_ = 0;
  dviz::ActivePixelRaster ap(w_.width, w_.height, kEntriesPerBuffer);
  const dviz::ActivePixelRaster::FlushFn flush =
      [this](const std::vector<dviz::PixEntry>& e) { composite(e); };

  ReplayOutcome out;
  std::vector<float> samples;
  std::vector<dviz::Triangle> tris;
  const int depth = w_.prefetch_depth;
  for (int k = 0; k < depth && k < num_chunks; ++k) {
    reader_.prefetch(k, timestep);
  }
  for (int c = 0; c < num_chunks; ++c) {
    std::shared_ptr<const std::vector<std::byte>> data;
    {
      ScopedSpan span(cfg_.trace, track_, "bench:io.read", c);
      data = reader_.read(c, timestep);
      if (depth > 0) reader_.prefetch(c + depth, timestep);
    }
    if (cfg_.verify_crc) {
      ScopedSpan span(cfg_.trace, track_, "bench:core.crc", c);
      if (dio::payload_checksum(*data) != store_.handle(c, timestep).checksum) {
        throw std::runtime_error("replay: chunk checksum mismatch");
      }
    }
    const dc::data::CellBox box = layout.chunk_box(c);
    {
      ScopedSpan span(cfg_.trace, track_, "bench:viz.extract", c);
      samples.resize(data->size() / sizeof(float));
      std::memcpy(samples.data(), data->data(), samples.size() * sizeof(float));
      tris.clear();
      out.triangles +=
          dviz::marching_cubes(samples.data(), box.hi[0] - box.lo[0],
                               box.hi[1] - box.lo[1], box.hi[2] - box.lo[2],
                               static_cast<float>(box.lo[0]),
                               static_cast<float>(box.lo[1]),
                               static_cast<float>(box.lo[2]), w_.iso_value, tris)
              .triangles;
    }
    ScopedSpan span(cfg_.trace, track_, "bench:viz.raster",
                    static_cast<std::int64_t>(tris.size()));
    for (const dviz::Triangle& t : tris) {
      dviz::ScreenTriangle st;
      if (!cam.project(t, st)) continue;
      const std::uint32_t rgba =
          dviz::shade_flat(st.world_normal, cam.view_dir(), scalar_norm);
      if (cfg_.composite == Composite::kDirectZ) {
        dviz::rasterize(st, w_.width, w_.height, [&](int x, int y, float depth) {
          zb_.apply(static_cast<std::uint32_t>(y) * static_cast<std::uint32_t>(w_.width) +
                        static_cast<std::uint32_t>(x),
                    depth, rgba);
        });
      } else {
        ap.add(st, rgba, flush);
      }
    }
    // The Active Pixel WPA ships at every input boundary (one chunk here).
    if (cfg_.composite != Composite::kDirectZ) ap.flush(flush);
  }
  out.digest = finish_image().digest();
  return out;
}

}  // namespace perfbench
