#include "comp/frag.hpp"

#include <algorithm>
#include <stdexcept>

namespace dc::comp {

namespace {

std::size_t record_bytes(std::int32_t kind) {
  switch (static_cast<FragKind>(kind)) {
    case FragKind::kData:
    case FragKind::kPartial:
      return sizeof(viz::PixEntry);
    case FragKind::kSummary:
      return sizeof(SummaryRecord);
    case FragKind::kComplete:
      return sizeof(std::uint32_t);
  }
  throw std::runtime_error("comp: unknown frame kind");
}

}  // namespace

void for_each_frame(
    const core::Buffer& buf,
    const std::function<void(const FragHeader&, const std::byte*)>& fn) {
  const auto bytes = buf.bytes();
  std::size_t off = 0;
  while (off + sizeof(FragHeader) <= bytes.size()) {
    FragHeader h;
    std::memcpy(&h, bytes.data() + off, sizeof(FragHeader));
    const std::size_t payload =
        static_cast<std::size_t>(h.entries) * record_bytes(h.kind);
    if (off + sizeof(FragHeader) + payload > bytes.size()) {
      throw std::runtime_error("comp::for_each_frame: truncated frame");
    }
    fn(h, bytes.data() + off + sizeof(FragHeader));
    off += sizeof(FragHeader) + payload;
  }
  if (off != bytes.size()) {
    throw std::runtime_error("comp::for_each_frame: trailing bytes");
  }
}

core::Buffer& FragRouter::open(core::FilterContext& ctx, int owner) {
  if (open_.empty()) {
    open_.resize(static_cast<std::size_t>(map_->num_owners()));
  }
  auto& buf = open_[static_cast<std::size_t>(owner)];
  if (buf.capacity() == 0) {
    buf = ctx.make_buffer(0);
    if (buf.capacity() < sizeof(FragHeader) + sizeof(viz::PixEntry)) {
      throw std::runtime_error(
          "comp::FragRouter: fragment buffer too small for one frame");
    }
  }
  return buf;
}

void FragRouter::flush(core::FilterContext& ctx, int owner) {
  if (open_.empty()) return;
  auto& buf = open_[static_cast<std::size_t>(owner)];
  if (buf.capacity() == 0 || buf.empty()) return;
  buf.set_route_key(owner);
  ctx.write(0, std::move(buf));
  buf = core::Buffer{};
}

void FragRouter::emit_tile(core::FilterContext& ctx, int tile) {
  auto& pending = staged_[static_cast<std::size_t>(tile)];
  if (pending.empty()) return;
  const int owner = map_->base_owner(tile);
  counts_[static_cast<std::size_t>(tile)] +=
      static_cast<std::int64_t>(pending.size());
  std::size_t done = 0;
  while (done < pending.size()) {
    core::Buffer& buf = open(ctx, owner);
    if (buf.remaining() < sizeof(FragHeader) + sizeof(viz::PixEntry)) {
      flush(ctx, owner);
      continue;
    }
    const std::size_t fit =
        (buf.remaining() - sizeof(FragHeader)) / sizeof(viz::PixEntry);
    const std::size_t take = std::min(fit, pending.size() - done);
    FragHeader h;
    h.tile = tile;
    h.producer = producer_;
    h.entries = static_cast<std::int32_t>(take);
    h.kind = static_cast<std::int32_t>(FragKind::kData);
    buf.push(h);
    buf.append(std::as_bytes(
        std::span<const viz::PixEntry>(pending.data() + done, take)));
    done += take;
  }
  pending.clear();
}

void FragRouter::add(core::FilterContext& ctx, const viz::PixEntry* entries,
                     std::size_t n) {
  const TileLayout& layout = map_->layout();
  for (std::size_t i = 0; i < n; ++i) {
    const int tile = layout.tile_of(entries[i].index);
    auto& pending = staged_[static_cast<std::size_t>(tile)];
    if (pending.empty()) dirty_.push_back(tile);
    pending.push_back(entries[i]);
  }
  std::sort(dirty_.begin(), dirty_.end());
  for (int tile : dirty_) emit_tile(ctx, tile);
  dirty_.clear();
}

void FragRouter::finish(core::FilterContext& ctx) {
  // Group this producer's per-tile totals by base owner, zero counts
  // included, so every owner learns the full expected count for every one
  // of its tiles from every producer.
  const int owners = map_->num_owners();
  std::vector<std::vector<SummaryRecord>> by_owner(
      static_cast<std::size_t>(owners));
  for (int t = 0; t < map_->layout().num_tiles(); ++t) {
    by_owner[static_cast<std::size_t>(map_->base_owner(t))].push_back(
        SummaryRecord{t, static_cast<std::int32_t>(
                             counts_[static_cast<std::size_t>(t)])});
  }
  for (int o = 0; o < owners; ++o) {
    const auto& recs = by_owner[static_cast<std::size_t>(o)];
    std::size_t done = 0;
    while (done < recs.size()) {
      core::Buffer& buf = open(ctx, o);
      if (buf.remaining() < sizeof(FragHeader) + sizeof(SummaryRecord)) {
        flush(ctx, o);
        continue;
      }
      const std::size_t fit =
          (buf.remaining() - sizeof(FragHeader)) / sizeof(SummaryRecord);
      const std::size_t take = std::min(fit, recs.size() - done);
      FragHeader h;
      h.tile = -1;
      h.producer = producer_;
      h.entries = static_cast<std::int32_t>(take);
      h.kind = static_cast<std::int32_t>(FragKind::kSummary);
      buf.push(h);
      buf.append(std::as_bytes(
          std::span<const SummaryRecord>(recs.data() + done, take)));
      done += take;
    }
    flush(ctx, o);
  }
  std::fill(counts_.begin(), counts_.end(), 0);
  // Release the staging: a dense z-buffer dump grows it to the whole frame,
  // and every producer copy would otherwise hold that much until it dies.
  for (auto& pending : staged_) std::vector<viz::PixEntry>().swap(pending);
}

}  // namespace dc::comp
