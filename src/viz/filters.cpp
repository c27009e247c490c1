#include "viz/filters.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "viz/raster.hpp"

namespace dc::viz {

static_assert(sizeof(Triangle) == 36, "Triangle must stay a compact record");

const char* to_string(HsrAlgorithm a) {
  return a == HsrAlgorithm::kZBuffer ? "Z-buffer" : "Active Pixel";
}

Camera VizWorkload::make_camera(int uow) const {
  const auto& g = store->layout().grid();
  return Camera::for_volume(g.nx, g.ny, g.nz, width, height,
                            vary_view_per_uow ? uow : 0);
}

void RenderSink::push(Image&& img) {
  digests.push_back(img.digest());
  active_pixel_counts.push_back(img.active_pixels(background));
  if (keep_images) {
    images.push_back(std::move(img));
  }
}

void for_each_block(
    const core::Buffer& buf,
    const std::function<void(const BlockHeader&, const float*)>& fn) {
  const auto bytes = buf.bytes();
  std::size_t off = 0;
  while (off + sizeof(BlockHeader) <= bytes.size()) {
    BlockHeader h;
    std::memcpy(&h, bytes.data() + off, sizeof(BlockHeader));
    const std::size_t need = h.packed_bytes();
    if (off + need > bytes.size()) {
      throw std::runtime_error("for_each_block: truncated block");
    }
    // Blocks are packed at 4-byte multiples, so the sample view is aligned.
    const auto* samples =
        reinterpret_cast<const float*>(bytes.data() + off + sizeof(BlockHeader));
    fn(h, samples);
    off += need;
  }
  if (off != bytes.size()) {
    throw std::runtime_error("for_each_block: trailing bytes");
  }
}

std::vector<data::ChunkRef> local_chunks(const VizWorkload& w, int host, int copy,
                                         int copies) {
  auto refs = w.store->chunks_on_host(host);
  if (copies <= 1) return refs;
  std::vector<data::ChunkRef> mine;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(copies)) == copy) {
      mine.push_back(refs[i]);
    }
  }
  return mine;
}

double load_chunk_samples(const VizWorkload& w, const data::ChunkRef& ref,
                          float timestep, std::vector<float>& out) {
  if (w.reader == nullptr) {
    w.field->fill_chunk(w.store->layout(), ref.chunk, timestep, out);
    return 0.0;
  }
  double waited = 0.0;
  const auto data =
      w.reader->read(ref.chunk, static_cast<int>(timestep), &waited);
  const auto expected = static_cast<std::size_t>(
                            w.store->layout().chunk_box(ref.chunk).points()) *
                        sizeof(float);
  if (data->size() != expected) {
    throw std::runtime_error(
        "load_chunk_samples: on-disk chunk size mismatch (stale store?)");
  }
  out.resize(data->size() / sizeof(float));
  std::memcpy(out.data(), data->data(), data->size());
  return waited;
}

McStats extract_chunk(const VizWorkload& w, const data::ChunkRef& ref,
                      float timestep, std::vector<float>& scratch,
                      std::vector<Triangle>& tris, double* io_wait_s) {
  const auto& layout = w.store->layout();
  const double waited = load_chunk_samples(w, ref, timestep, scratch);
  if (io_wait_s != nullptr) *io_wait_s = waited;
  const data::CellBox box = layout.chunk_box(ref.chunk);
  return marching_cubes(scratch.data(), box.hi[0] - box.lo[0],
                        box.hi[1] - box.lo[1], box.hi[2] - box.lo[2],
                        static_cast<float>(box.lo[0]),
                        static_cast<float>(box.lo[1]),
                        static_cast<float>(box.lo[2]), w.iso_value, tris);
}

double extract_ops(const CostModel& c, const McStats& s) {
  return c.mc_per_cell * static_cast<double>(s.cells) +
         c.mc_per_active_cell * static_cast<double>(s.active_cells) +
         c.mc_per_triangle * static_cast<double>(s.triangles);
}

// ---------------------------------------------------------------------------
// ReadFilter
// ---------------------------------------------------------------------------

void ReadFilter::init(core::FilterContext& ctx) {
  chunks_ = local_chunks(w_, ctx.host(), ctx.copy_in_host(), ctx.copies_on_host());
  next_ = 0;
  out_ = core::Buffer();
  if (w_.reader != nullptr) {
    w_.reader->prefetch_range(chunks_, 0, w_.prefetch_depth,
                              static_cast<int>(w_.timestep(ctx.uow_index())));
  }
}

namespace {

/// Samples the grid points of a cell box [x0, x0+nx] x ...: sliced out of
/// the already-loaded chunk samples in the out-of-core mode, else evaluated
/// directly from the field (used when a chunk must be split to fit the
/// stream buffer). Both paths produce bit-identical floats: the on-disk
/// payload is the same fill_chunk sampling of the same field.
void sample_box(const VizWorkload& w, float timestep, const BlockHeader& h,
                const float* chunk_samples, const data::CellBox& chunk_box,
                std::vector<float>& out) {
  out.clear();
  out.reserve(h.sample_count());
  if (chunk_samples != nullptr) {
    const int px = chunk_box.hi[0] - chunk_box.lo[0] + 1;
    const int py = chunk_box.hi[1] - chunk_box.lo[1] + 1;
    for (int z = h.z0; z <= h.z0 + h.nz; ++z) {
      for (int y = h.y0; y <= h.y0 + h.ny; ++y) {
        for (int x = h.x0; x <= h.x0 + h.nx; ++x) {
          const std::size_t idx =
              (static_cast<std::size_t>(z - chunk_box.lo[2]) *
                   static_cast<std::size_t>(py) +
               static_cast<std::size_t>(y - chunk_box.lo[1])) *
                  static_cast<std::size_t>(px) +
              static_cast<std::size_t>(x - chunk_box.lo[0]);
          out.push_back(chunk_samples[idx]);
        }
      }
    }
    return;
  }
  const auto& g = w.store->layout().grid();
  const float ix = 1.0f / static_cast<float>(g.nx);
  const float iy = 1.0f / static_cast<float>(g.ny);
  const float iz = 1.0f / static_cast<float>(g.nz);
  for (int z = h.z0; z <= h.z0 + h.nz; ++z) {
    for (int y = h.y0; y <= h.y0 + h.ny; ++y) {
      for (int x = h.x0; x <= h.x0 + h.nx; ++x) {
        out.push_back(w.field->value(static_cast<float>(x) * ix,
                                     static_cast<float>(y) * iy,
                                     static_cast<float>(z) * iz, timestep));
      }
    }
  }
}

/// Emits the box, splitting along the longest axis until it fits one buffer.
void emit_box(const VizWorkload& w, core::FilterContext& ctx, float timestep,
              core::Buffer& out, std::vector<float>& scratch,
              const float* chunk_samples, const data::CellBox& chunk_box,
              BlockHeader h) {
  const std::size_t cap = ctx.buffer_bytes(0);
  if (h.packed_bytes() > cap) {
    if (h.nx <= 1 && h.ny <= 1 && h.nz <= 1) {
      throw std::runtime_error("ReadFilter: stream buffer smaller than one cell");
    }
    BlockHeader a = h, b = h;
    if (h.nz >= h.ny && h.nz >= h.nx && h.nz > 1) {
      a.nz = h.nz / 2;
      b.z0 = h.z0 + a.nz;
      b.nz = h.nz - a.nz;
    } else if (h.ny >= h.nx && h.ny > 1) {
      a.ny = h.ny / 2;
      b.y0 = h.y0 + a.ny;
      b.ny = h.ny - a.ny;
    } else {
      a.nx = h.nx / 2;
      b.x0 = h.x0 + a.nx;
      b.nx = h.nx - a.nx;
    }
    emit_box(w, ctx, timestep, out, scratch, chunk_samples, chunk_box, a);
    emit_box(w, ctx, timestep, out, scratch, chunk_samples, chunk_box, b);
    return;
  }
  sample_box(w, timestep, h, chunk_samples, chunk_box, scratch);
  if (out.capacity() == 0) out = ctx.make_buffer(0);
  if (out.remaining() < h.packed_bytes()) {
    ctx.write(0, out);
    out = ctx.make_buffer(0);
  }
  const bool ok =
      out.push(h) &&
      out.append(std::as_bytes(std::span<const float>(scratch.data(), scratch.size())));
  assert(ok);
  (void)ok;
}

}  // namespace

void ReadFilter::emit_chunk(core::FilterContext& ctx, const data::ChunkRef& ref) {
  const float timestep = w_.timestep(ctx.uow_index());
  const data::CellBox box = w_.store->layout().chunk_box(ref.chunk);
  const float* samples = nullptr;
  if (w_.reader != nullptr) {
    ctx.note_io_wait(load_chunk_samples(w_, ref, timestep, chunk_samples_));
    samples = chunk_samples_.data();
  }
  BlockHeader h;
  h.x0 = box.lo[0];
  h.y0 = box.lo[1];
  h.z0 = box.lo[2];
  h.nx = box.hi[0] - box.lo[0];
  h.ny = box.hi[1] - box.lo[1];
  h.nz = box.hi[2] - box.lo[2];
  emit_box(w_, ctx, timestep, out_, scratch_, samples, box, h);
}

bool ReadFilter::step(core::FilterContext& ctx) {
  if (next_ >= chunks_.size()) return false;
  const data::ChunkRef ref = chunks_[next_++];
  ctx.read_disk(ref.disk, ref.bytes);
  ctx.charge(w_.cost.read_per_byte * static_cast<double>(ref.bytes));
  emit_chunk(ctx, ref);
  if (w_.reader != nullptr && w_.prefetch_depth > 0) {
    // Keep the readahead window prefetch_depth chunks ahead of consumption.
    w_.reader->prefetch_range(
        chunks_, next_ - 1 + static_cast<std::size_t>(w_.prefetch_depth), 1,
        static_cast<int>(w_.timestep(ctx.uow_index())));
  }
  return next_ < chunks_.size();
}

void ReadFilter::process_eow(core::FilterContext& ctx) {
  if (out_.size() > 0) {
    ctx.write(0, out_);
    out_ = core::Buffer();
  }
}

// ---------------------------------------------------------------------------
// ExtractFilter
// ---------------------------------------------------------------------------

void ExtractFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                   const core::Buffer& buf) {
  tris_.clear();
  McStats total;
  for_each_block(buf, [&](const BlockHeader& h, const float* samples) {
    const McStats s = marching_cubes(
        samples, h.nx, h.ny, h.nz, static_cast<float>(h.x0),
        static_cast<float>(h.y0), static_cast<float>(h.z0), w_.iso_value, tris_);
    total.cells += s.cells;
    total.active_cells += s.active_cells;
    total.triangles += s.triangles;
  });
  ctx.charge(extract_ops(w_.cost, total));

  // "When the output buffer is full or the entire input buffer has been
  // processed, the output buffer is sent" (paper Section 3.1.1).
  core::Buffer out = ctx.make_buffer(0);
  for (const Triangle& t : tris_) {
    if (!out.push(t)) {
      ctx.write(0, out);
      out = ctx.make_buffer(0);
      out.push(t);
    }
  }
  if (out.size() > 0) ctx.write(0, out);
}

// ---------------------------------------------------------------------------
// HsrEngine
// ---------------------------------------------------------------------------

void HsrEngine::init(core::FilterContext& ctx) {
  camera_ = w_.make_camera(ctx.uow_index());
  if (alg_ == HsrAlgorithm::kZBuffer) {
    zb_ = ZBuffer(w_.width, w_.height);
    ctx.charge(w_.cost.zbuffer_touch_per_entry *
               static_cast<double>(zb_.size()));
  } else {
    const std::size_t cap =
        std::max<std::size_t>(1, ctx.buffer_bytes(0) / sizeof(PixEntry));
    ap_ = std::make_unique<ActivePixelRaster>(w_.width, w_.height, cap);
    ctx.charge(w_.cost.msa_touch_per_column * static_cast<double>(w_.width));
  }
}

void HsrEngine::flush_entries(core::FilterContext& ctx,
                              const std::vector<PixEntry>& entries) {
  if (sink_) {
    sink_(ctx, entries.data(), entries.size());
    return;
  }
  core::Buffer out = ctx.make_buffer(0);
  for (const PixEntry& e : entries) {
    if (!out.push(e)) {
      ctx.write(0, out);
      out = ctx.make_buffer(0);
      out.push(e);
    }
  }
  if (out.size() > 0) ctx.write(0, out);
}

void HsrEngine::raster(core::FilterContext& ctx, const Triangle* tris,
                       std::size_t n) {
  const float scalar_norm = w_.iso_value / w_.field_max;
  std::uint64_t fragments = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ScreenTriangle st;
    if (!camera_.project(tris[i], st)) continue;
    const std::uint32_t rgba =
        shade_flat(st.world_normal, camera_.view_dir(), scalar_norm);
    if (alg_ == HsrAlgorithm::kZBuffer) {
      fragments += rasterize(st, w_.width, w_.height, [&](int x, int y, float d) {
        zb_.apply(static_cast<std::uint32_t>(y) *
                          static_cast<std::uint32_t>(w_.width) +
                      static_cast<std::uint32_t>(x),
                  d, rgba);
      });
    } else {
      const std::uint64_t before = ap_->fragments_generated();
      ap_->add(st, rgba,
               [&](const std::vector<PixEntry>& e) { flush_entries(ctx, e); });
      fragments += ap_->fragments_generated() - before;
    }
  }
  double ops = w_.cost.raster_per_triangle * static_cast<double>(n) +
               w_.cost.raster_per_fragment * static_cast<double>(fragments);
  if (alg_ == HsrAlgorithm::kActivePixel) {
    ops += w_.cost.ap_fragment_extra * static_cast<double>(fragments);
  }
  ctx.charge(ops);
}

void HsrEngine::input_boundary(core::FilterContext& ctx) {
  if (alg_ == HsrAlgorithm::kActivePixel && ap_) {
    // "The WPA is sent to the merge filter when full or when all triangles
    // in the current input buffer are processed."
    ap_->flush([&](const std::vector<PixEntry>& e) { flush_entries(ctx, e); });
  }
}

void HsrEngine::eow(core::FilterContext& ctx) {
  if (alg_ == HsrAlgorithm::kZBuffer) {
    // Dense dump: pixel information for inactive locations is transmitted
    // too — the communication overhead the paper calls out.
    const auto size = static_cast<std::uint32_t>(zb_.size());
    std::vector<PixEntry> dense;
    dense.reserve(size);
    for (std::uint32_t i = 0; i < size; ++i) {
      dense.push_back(PixEntry{i, zb_.depth_at(i), zb_.rgba_at(i)});
    }
    flush_entries(ctx, dense);
    ctx.charge(w_.cost.zbuffer_touch_per_entry * static_cast<double>(size));
  } else if (ap_) {
    ap_->flush([&](const std::vector<PixEntry>& e) { flush_entries(ctx, e); });
  }
}

// ---------------------------------------------------------------------------
// RasterFilter / MergeFilter
// ---------------------------------------------------------------------------

void RasterFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                  const core::Buffer& buf) {
  const auto tris = buf.records<Triangle>();
  engine_.raster(ctx, tris.data(), tris.size());
  engine_.input_boundary(ctx);
}

void MergeFilter::init(core::FilterContext& ctx) {
  zb_ = ZBuffer(w_.width, w_.height);
  ctx.charge(w_.cost.zbuffer_touch_per_entry * static_cast<double>(zb_.size()));
}

void MergeFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                 const core::Buffer& buf) {
  const auto entries = buf.records<PixEntry>();
  for (const PixEntry& e : entries) zb_.apply(e);
  ctx.charge(w_.cost.merge_per_entry * static_cast<double>(entries.size()));
}

void MergeFilter::process_eow(core::FilterContext& ctx) {
  ctx.charge(w_.cost.image_per_pixel * static_cast<double>(zb_.size()));
  sink_->push(zb_.to_image(sink_->background));
}

// ---------------------------------------------------------------------------
// Fused filters
// ---------------------------------------------------------------------------

void ReadExtractFilter::init(core::FilterContext& ctx) {
  chunks_ = local_chunks(w_, ctx.host(), ctx.copy_in_host(), ctx.copies_on_host());
  next_ = 0;
  if (w_.reader != nullptr) {
    w_.reader->prefetch_range(chunks_, 0, w_.prefetch_depth,
                              static_cast<int>(w_.timestep(ctx.uow_index())));
  }
}

bool ReadExtractFilter::step(core::FilterContext& ctx) {
  if (next_ >= chunks_.size()) return false;
  const data::ChunkRef ref = chunks_[next_++];
  ctx.read_disk(ref.disk, ref.bytes);
  tris_.clear();
  double io_wait = 0.0;
  const McStats s = extract_chunk(w_, ref, w_.timestep(ctx.uow_index()),
                                  scratch_, tris_, &io_wait);
  ctx.note_io_wait(io_wait);
  if (w_.reader != nullptr && w_.prefetch_depth > 0) {
    w_.reader->prefetch_range(
        chunks_, next_ - 1 + static_cast<std::size_t>(w_.prefetch_depth), 1,
        static_cast<int>(w_.timestep(ctx.uow_index())));
  }
  ctx.charge(w_.cost.read_per_byte * static_cast<double>(ref.bytes) +
             extract_ops(w_.cost, s));
  core::Buffer out = ctx.make_buffer(0);
  for (const Triangle& t : tris_) {
    if (!out.push(t)) {
      ctx.write(0, out);
      out = ctx.make_buffer(0);
      out.push(t);
    }
  }
  if (out.size() > 0) ctx.write(0, out);
  return next_ < chunks_.size();
}

void ExtractRasterFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                         const core::Buffer& buf) {
  tris_.clear();
  McStats total;
  for_each_block(buf, [&](const BlockHeader& h, const float* samples) {
    const McStats s = marching_cubes(
        samples, h.nx, h.ny, h.nz, static_cast<float>(h.x0),
        static_cast<float>(h.y0), static_cast<float>(h.z0), w_.iso_value, tris_);
    total.cells += s.cells;
    total.active_cells += s.active_cells;
    total.triangles += s.triangles;
  });
  ctx.charge(extract_ops(w_.cost, total));
  engine_.raster(ctx, tris_.data(), tris_.size());
  engine_.input_boundary(ctx);
}

void ReadExtractRasterFilter::init(core::FilterContext& ctx) {
  engine_.init(ctx);
  chunks_ = local_chunks(w_, ctx.host(), ctx.copy_in_host(), ctx.copies_on_host());
  next_ = 0;
  if (w_.reader != nullptr) {
    w_.reader->prefetch_range(chunks_, 0, w_.prefetch_depth,
                              static_cast<int>(w_.timestep(ctx.uow_index())));
  }
}

bool ReadExtractRasterFilter::step(core::FilterContext& ctx) {
  if (next_ >= chunks_.size()) return false;
  const data::ChunkRef ref = chunks_[next_++];
  ctx.read_disk(ref.disk, ref.bytes);
  tris_.clear();
  double io_wait = 0.0;
  const McStats s = extract_chunk(w_, ref, w_.timestep(ctx.uow_index()),
                                  scratch_, tris_, &io_wait);
  ctx.note_io_wait(io_wait);
  if (w_.reader != nullptr && w_.prefetch_depth > 0) {
    w_.reader->prefetch_range(
        chunks_, next_ - 1 + static_cast<std::size_t>(w_.prefetch_depth), 1,
        static_cast<int>(w_.timestep(ctx.uow_index())));
  }
  ctx.charge(w_.cost.read_per_byte * static_cast<double>(ref.bytes) +
             extract_ops(w_.cost, s));
  engine_.raster(ctx, tris_.data(), tris_.size());
  engine_.input_boundary(ctx);
  return next_ < chunks_.size();
}

}  // namespace dc::viz
