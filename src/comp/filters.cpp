#include "comp/filters.hpp"

#include <algorithm>
#include <stdexcept>

namespace dc::comp {

namespace {

/// Installs the router as the HSR engine's entry sink. The router is
/// constructed lazily at init because the producer index (the global
/// transparent-copy index) is only known once a context exists.
void wire_router(std::optional<FragRouter>& router,
                 std::shared_ptr<const TileMap> map, viz::HsrEngine& engine,
                 core::FilterContext& ctx) {
  router.emplace(map.get(), ctx.instance_index());
  engine.set_entry_sink(
      [&router](core::FilterContext& c, const viz::PixEntry* e,
                std::size_t n) { router->add(c, e, n); });
}

}  // namespace

void TiledRasterFilter::init(core::FilterContext& ctx) {
  wire_router(router_, map_, inner_.engine(), ctx);
  inner_.init(ctx);
}

void TiledExtractRasterFilter::init(core::FilterContext& ctx) {
  wire_router(router_, map_, inner_.engine(), ctx);
  inner_.init(ctx);
}

void TiledReadExtractRasterFilter::init(core::FilterContext& ctx) {
  wire_router(router_, map_, inner_.engine(), ctx);
  inner_.init(ctx);
}

// ---------------------------------------------------------------------------
// TileOwnerMergeFilter
// ---------------------------------------------------------------------------

TileOwnerMergeFilter::TileState& TileOwnerMergeFilter::state(int tile) {
  auto [it, inserted] = tiles_.try_emplace(tile);
  if (inserted) {
    it->second.reported.assign(static_cast<std::size_t>(num_producers_), 0);
  }
  return it->second;
}

void TileOwnerMergeFilter::process_buffer(core::FilterContext& ctx,
                                          int /*port*/,
                                          const core::Buffer& buf) {
  const TileLayout& layout = map_->layout();
  std::size_t data_entries = 0;
  for_each_frame(buf, [&](const FragHeader& h, const std::byte* payload) {
    switch (static_cast<FragKind>(h.kind)) {
      case FragKind::kData: {
        TileState& st = state(h.tile);
        if (st.zb.size() == 0) {
          st.zb = viz::ZBuffer(layout.tile_w(h.tile), layout.tile_h(h.tile));
        }
        for (std::int32_t i = 0; i < h.entries; ++i) {
          viz::PixEntry e;
          std::memcpy(&e, payload + static_cast<std::size_t>(i) * sizeof(e),
                      sizeof(e));
          st.zb.apply(layout.local_index(h.tile, e.index), e.depth, e.rgba);
        }
        st.received += h.entries;
        data_entries += static_cast<std::size_t>(h.entries);
        break;
      }
      case FragKind::kSummary: {
        for (std::int32_t i = 0; i < h.entries; ++i) {
          SummaryRecord r;
          std::memcpy(&r, payload + static_cast<std::size_t>(i) * sizeof(r),
                      sizeof(r));
          TileState& st = state(r.tile);
          auto& seen = st.reported[static_cast<std::size_t>(h.producer)];
          if (seen != 0) continue;  // duplicate summary (retransmission)
          st.expected += r.count;
          ++st.producers_reported;
          seen = 1;
        }
        break;
      }
      default:
        throw std::runtime_error("TM: unexpected frame kind on input");
    }
  });
  if (stats_) {
    stats_->fragments_received.fetch_add(data_entries,
                                         std::memory_order_relaxed);
    stats_->frag_bytes.fetch_add(buf.size(), std::memory_order_relaxed);
  }
  ctx.charge(w_.cost.merge_per_entry * static_cast<double>(data_entries));
}

void TileOwnerMergeFilter::emit(core::FilterContext& ctx, core::Buffer& out,
                                const FragHeader& h, const std::byte* payload,
                                std::size_t payload_bytes) {
  if (out.remaining() < sizeof(FragHeader) + payload_bytes) {
    if (!out.empty()) {
      if (stats_) {
        stats_->gather_bytes.fetch_add(out.size(), std::memory_order_relaxed);
      }
      ctx.write(0, std::move(out));
    }
    out = ctx.make_buffer(0);
    if (out.remaining() < sizeof(FragHeader) + payload_bytes) {
      throw std::runtime_error("TM: gather buffer smaller than one tile frame");
    }
  }
  out.push(h);
  out.append(std::span<const std::byte>(payload, payload_bytes));
}

void TileOwnerMergeFilter::process_eow(core::FilterContext& ctx) {
  core::Buffer out = ctx.make_buffer(0);
  double pixels_emitted = 0.0;
  for (auto& [tile, st] : tiles_) {
    const bool complete =
        st.producers_reported == num_producers_ && st.expected == st.received;
    FragHeader h;
    h.tile = tile;
    h.producer = ctx.instance_index();
    if (complete) {
      // Dense color block, row-major in tile-local order: the gather blits
      // it straight into the frame.
      // st.zb is unsized when the tile saw summaries but zero fragments
      // (an empty image region): the dense block is all background then.
      const auto n = static_cast<std::uint32_t>(map_->layout().tile_pixels(tile));
      std::vector<std::uint32_t> colors(n, background_);
      for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(st.zb.size());
           ++i) {
        if (st.zb.active(i)) colors[i] = st.zb.rgba_at(i);
      }
      h.entries = static_cast<std::int32_t>(n);
      h.kind = static_cast<std::int32_t>(FragKind::kComplete);
      emit(ctx, out, h, reinterpret_cast<const std::byte*>(colors.data()),
           colors.size() * sizeof(std::uint32_t));
      if (stats_) stats_->tiles_complete.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Whatever this owner did assemble, as sparse global-index entries;
      // the gather folds them into its overlay z-buffer.
      std::vector<viz::PixEntry> entries;
      const auto n = static_cast<std::uint32_t>(st.zb.size());
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!st.zb.active(i)) continue;
        entries.push_back(viz::PixEntry{map_->layout().global_index(tile, i),
                                        st.zb.depth_at(i), st.zb.rgba_at(i)});
      }
      h.entries = static_cast<std::int32_t>(entries.size());
      h.kind = static_cast<std::int32_t>(FragKind::kPartial);
      emit(ctx, out, h, reinterpret_cast<const std::byte*>(entries.data()),
           entries.size() * sizeof(viz::PixEntry));
      if (stats_) stats_->tiles_partial.fetch_add(1, std::memory_order_relaxed);
    }
    pixels_emitted += static_cast<double>(map_->layout().tile_pixels(tile));
  }
  if (!out.empty()) {
    if (stats_) {
      stats_->gather_bytes.fetch_add(out.size(), std::memory_order_relaxed);
    }
    ctx.write(0, std::move(out));
  }
  ctx.charge(w_.cost.image_per_pixel * pixels_emitted);
  tiles_.clear();
}

// ---------------------------------------------------------------------------
// TileGatherFilter
// ---------------------------------------------------------------------------

void TileGatherFilter::init(core::FilterContext& ctx) {
  frame_ = viz::Image(w_.width, w_.height, sink_->background);
  overlay_ = viz::ZBuffer(w_.width, w_.height);
  complete_.assign(static_cast<std::size_t>(map_->layout().num_tiles()), 0);
  partial_tiles_.clear();
  ctx.charge(w_.cost.zbuffer_touch_per_entry *
             static_cast<double>(overlay_.size()));
}

void TileGatherFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                      const core::Buffer& buf) {
  const TileLayout& layout = map_->layout();
  std::size_t partial_entries = 0;
  for_each_frame(buf, [&](const FragHeader& h, const std::byte* payload) {
    switch (static_cast<FragKind>(h.kind)) {
      case FragKind::kComplete: {
        auto& done = complete_[static_cast<std::size_t>(h.tile)];
        if (done != 0) break;  // first complete block wins
        done = 1;
        const int w = layout.tile_w(h.tile);
        const int hgt = layout.tile_h(h.tile);
        if (h.entries != w * hgt) {
          throw std::runtime_error("G: complete tile with wrong pixel count");
        }
        // Payload alignment: frames are 4-byte multiples throughout, so the
        // color words can be viewed in place.
        frame_.blit(layout.x0(h.tile), layout.y0(h.tile), w, hgt,
                    std::span<const std::uint32_t>(
                        reinterpret_cast<const std::uint32_t*>(payload),
                        static_cast<std::size_t>(h.entries)));
        break;
      }
      case FragKind::kPartial: {
        for (std::int32_t i = 0; i < h.entries; ++i) {
          viz::PixEntry e;
          std::memcpy(&e, payload + static_cast<std::size_t>(i) * sizeof(e),
                      sizeof(e));
          overlay_.apply(e);
        }
        partial_entries += static_cast<std::size_t>(h.entries);
        break;
      }
      default:
        throw std::runtime_error("G: unexpected frame kind on input");
    }
  });
  // Only partial entries are z-merged; a complete tile is a blit, and its
  // pixels are charged once, as image_per_pixel, at end of work.
  ctx.charge(w_.cost.merge_per_entry * static_cast<double>(partial_entries));
}

void TileGatherFilter::process_eow(core::FilterContext& ctx) {
  const TileLayout& layout = map_->layout();
  // Backfill every tile no owner completed from the overlay z-buffer (the
  // frame already holds the background there).
  for (int t = 0; t < layout.num_tiles(); ++t) {
    if (complete_[static_cast<std::size_t>(t)] != 0) continue;
    partial_tiles_.push_back(t);
    const int x0 = layout.x0(t);
    const int y0 = layout.y0(t);
    for (int y = 0; y < layout.tile_h(t); ++y) {
      for (int x = 0; x < layout.tile_w(t); ++x) {
        const auto idx = static_cast<std::uint32_t>(
            (y0 + y) * layout.width + (x0 + x));
        if (overlay_.active(idx)) {
          frame_.set(x0 + x, y0 + y, overlay_.rgba_at(idx));
        }
      }
    }
  }
  if (stats_) {
    std::lock_guard<std::mutex> lk(stats_->mu);
    stats_->last_partial_tiles = partial_tiles_;
  }
  ctx.charge(w_.cost.image_per_pixel * static_cast<double>(overlay_.size()));
  sink_->push(std::move(frame_));
}

}  // namespace dc::comp
