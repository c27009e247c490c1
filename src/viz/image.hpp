#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dc::viz {

/// Packs 8-bit RGB into the canonical pixel word (alpha byte left zero so
/// packed values order deterministically).
[[nodiscard]] constexpr std::uint32_t pack_rgb(std::uint8_t r, std::uint8_t g,
                                               std::uint8_t b) {
  return static_cast<std::uint32_t>(r) | (static_cast<std::uint32_t>(g) << 8) |
         (static_cast<std::uint32_t>(b) << 16);
}

[[nodiscard]] constexpr std::uint8_t red(std::uint32_t rgba) {
  return static_cast<std::uint8_t>(rgba & 0xff);
}
[[nodiscard]] constexpr std::uint8_t green(std::uint32_t rgba) {
  return static_cast<std::uint8_t>((rgba >> 8) & 0xff);
}
[[nodiscard]] constexpr std::uint8_t blue(std::uint32_t rgba) {
  return static_cast<std::uint8_t>((rgba >> 16) & 0xff);
}

/// The final RGB output image produced by the Merge filter.
class Image {
 public:
  Image() = default;
  Image(int width, int height, std::uint32_t fill = 0);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] bool empty() const { return pixels_.empty(); }

  [[nodiscard]] std::uint32_t at(int x, int y) const {
    return pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                   static_cast<std::size_t>(x)];
  }
  void set(int x, int y, std::uint32_t rgba) {
    pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
            static_cast<std::size_t>(x)] = rgba;
  }

  [[nodiscard]] const std::vector<std::uint32_t>& pixels() const { return pixels_; }

  bool operator==(const Image& o) const {
    return width_ == o.width_ && height_ == o.height_ && pixels_ == o.pixels_;
  }

  /// FNV-1a digest of the pixel data, for cheap cross-run comparisons.
  [[nodiscard]] std::uint64_t digest() const;

  /// Number of pixels differing from `o` (0 if identical; requires equal dims).
  [[nodiscard]] std::size_t diff_count(const Image& o) const;

  /// Pixels not equal to `background`.
  [[nodiscard]] std::size_t active_pixels(std::uint32_t background = 0) const;

  /// Writes a binary PPM (P6). Returns false on I/O failure.
  bool write_ppm(const std::string& path) const;

  // --- sub-rect (tile) views -----------------------------------------------
  // The compositor assembles its frame from rectangular tiles; every rect
  // is asserted in-bounds.

  /// Copies `src` into this image with its top-left corner at (x0, y0).
  void blit(int x0, int y0, const Image& src);

  /// Copies a w x h block of row-major pixels into this image at (x0, y0).
  /// `src.size()` must be exactly w * h.
  void blit(int x0, int y0, int w, int h, std::span<const std::uint32_t> src);

  /// Extracts the w x h block at (x0, y0) as a standalone image.
  [[nodiscard]] Image sub_rect(int x0, int y0, int w, int h) const;

 private:
  void check_rect(int x0, int y0, int w, int h) const;

  int width_ = 0, height_ = 0;
  std::vector<std::uint32_t> pixels_;
};

}  // namespace dc::viz
