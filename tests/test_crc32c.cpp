#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string_view>
#include <vector>

#include "core/crc32c.hpp"

// CRC32C unit + fuzz tests: the hardware (SSE4.2) and software
// (slicing-by-8) backends must agree bit-for-bit on every input — lengths,
// alignments, seeds — because a chunk checksummed on one machine is
// verified on another. Known-answer vectors pin the polynomial and the
// init/final-XOR convention so neither backend can drift in lockstep.

namespace dc {
namespace {

using core::crc32c;
using core::crc32c_hw;
using core::crc32c_hw_available;
using core::crc32c_sw;

std::uint32_t crc_of(std::string_view s, std::uint32_t seed = 0) {
  return crc32c(std::as_bytes(std::span(s.data(), s.size())), seed);
}

TEST(Crc32c, KnownAnswerVectors) {
  // The canonical check value: CRC32C("123456789") from RFC 3720 / every
  // published Castagnoli table.
  EXPECT_EQ(crc_of("123456789"), 0xE3069283u);
  // Empty input digests to zero under the 0-seed convention.
  EXPECT_EQ(crc32c({}), 0u);
  // 32 zero bytes (iSCSI test vector).
  std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  // 32 0xFF bytes (iSCSI test vector).
  std::vector<std::byte> ffs(32, std::byte{0xFF});
  EXPECT_EQ(crc32c(ffs), 0x62A8AB43u);
  // 32 incrementing bytes 0x00..0x1F (iSCSI test vector).
  std::vector<std::byte> inc(32);
  for (int i = 0; i < 32; ++i) {
    inc[static_cast<std::size_t>(i)] = static_cast<std::byte>(i);
  }
  EXPECT_EQ(crc32c(inc), 0x46DD794Eu);
}

TEST(Crc32c, SoftwareMatchesKnownAnswers) {
  // Pin the SW backend independently so a HW-vs-SW agreement test cannot
  // pass because both drifted the same way.
  const std::string_view s = "123456789";
  EXPECT_EQ(crc32c_sw(std::as_bytes(std::span(s.data(), s.size()))),
            0xE3069283u);
}

TEST(Crc32c, BackendIsReported) {
  const std::string_view b = core::crc32c_backend();
  EXPECT_TRUE(b == "sse4.2" || b == "software") << b;
  if (crc32c_hw_available()) {
    EXPECT_EQ(b, "sse4.2");
  }
}

TEST(Crc32c, HardwareMatchesSoftwareOnFuzzedInputs) {
  if (!crc32c_hw_available()) {
    GTEST_SKIP() << "no SSE4.2 on this machine; software path already "
                    "covered by known-answer vectors";
  }
  std::mt19937 rng(0xC32C);
  // Random lengths, including 0 and the awkward 1..7 tail sizes, at every
  // alignment 0..7 within an oversized backing block: the HW path's
  // 8/4/1-byte lanes and the SW path's slicing tables must agree on all.
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = rng() % 513;       // 0..512
    const std::size_t align = rng() % 8;       // byte offset into the block
    std::vector<std::byte> block(len + align + 8);
    for (auto& b : block) b = static_cast<std::byte>(rng() & 0xff);
    const std::uint32_t seed = (round % 3 == 0) ? 0u : rng();
    const std::span<const std::byte> span(block.data() + align, len);
    ASSERT_EQ(crc32c_hw(span, seed), crc32c_sw(span, seed))
        << "len " << len << " align " << align << " seed " << seed;
  }
}

TEST(Crc32c, ZeroLengthIsSeedIdentity) {
  // A zero-length update must be the identity under chaining, for any seed.
  std::mt19937 rng(7);
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t seed = rng();
    EXPECT_EQ(crc32c({}, seed), seed);
    EXPECT_EQ(crc32c_sw({}, seed), seed);
    if (crc32c_hw_available()) {
      EXPECT_EQ(crc32c_hw({}, seed), seed);
    }
  }
}

TEST(Crc32c, ChainingEqualsOneShot) {
  // crc(a ++ b) == crc(b, seed = crc(a)) — the streaming property the
  // scatter-gather writer relies on conceptually, and the reason `seed`
  // takes a previously returned digest.
  std::mt19937 rng(0xABCD);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> all(1 + rng() % 1024);
    for (auto& b : all) b = static_cast<std::byte>(rng() & 0xff);
    const std::size_t cut = rng() % (all.size() + 1);
    const std::span<const std::byte> a(all.data(), cut);
    const std::span<const std::byte> b(all.data() + cut, all.size() - cut);
    EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(all)) << "cut " << cut;
  }
}

TEST(Crc32c, EverySingleBitFlipChangesTheDigest) {
  // CRC32C detects all single-bit errors; sweep every bit of a buffer.
  std::vector<std::byte> data(64);
  std::mt19937 rng(99);
  for (auto& b : data) b = static_cast<std::byte>(rng() & 0xff);
  const std::uint32_t clean = crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::byte>(1 << bit);
      EXPECT_NE(crc32c(data), clean) << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::byte>(1 << bit);
    }
  }
  EXPECT_EQ(crc32c(data), clean);  // restored
}

}  // namespace
}  // namespace dc
