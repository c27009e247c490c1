#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/decluster.hpp"
#include "data/store.hpp"
#include "data/synth.hpp"
#include "io/chunk_store.hpp"
#include "io/format.hpp"
#include "io/reader.hpp"

// On-disk chunk store format: round-trips, corruption detection, writer
// misuse. The invariant that matters most: the payload bytes the store hands
// back are bit-identical to what data::PlumeField::fill_chunk synthesizes,
// because the out-of-core differential tests build on exactly that.

namespace dc::io {
namespace {

namespace fs = std::filesystem;

fs::path make_temp_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("dc_io_store_" + name);
  fs::remove_all(p);
  return p;
}

struct StoreFixture {
  data::ChunkLayout layout{data::GridDims{16, 16, 16}, 2, 2, 2};
  std::unique_ptr<data::DatasetStore> store;
  data::PlumeField field{7};

  explicit StoreFixture(int files = 8) {
    store = std::make_unique<data::DatasetStore>(
        layout, data::hilbert_decluster(layout, files), files);
  }

  void place(const std::vector<data::FileLocation>& locs) {
    store->place_uniform(locs);
  }

  std::vector<std::byte> chunk_bytes(int chunk, int timestep) const {
    std::vector<float> samples;
    field.fill_chunk(layout, chunk, static_cast<float>(timestep), samples);
    const auto* p = reinterpret_cast<const std::byte*>(samples.data());
    return {p, p + samples.size() * sizeof(float)};
  }
};

TEST(IoFormat, FileRelpathEncodesLocation) {
  EXPECT_EQ(file_relpath(0, 1, 3), "h0/d1/f3.dcc");
}

TEST(IoFormat, Fnv1aDistinguishesPayloads) {
  const std::vector<std::byte> a{std::byte{1}, std::byte{2}};
  const std::vector<std::byte> b{std::byte{2}, std::byte{1}};
  EXPECT_NE(fnv1a(a), fnv1a(b));
  EXPECT_EQ(fnv1a(a), fnv1a(a));
}

TEST(ChunkStoreFormat, RoundTripsPlumeBitsExactly) {
  StoreFixture f;
  f.place({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  const fs::path root = make_temp_dir("roundtrip");
  materialize_plume_dataset(root, *f.store, f.field, /*base_timestep=*/0,
                            /*num_timesteps=*/2);

  ChunkStore store(root);
  EXPECT_EQ(static_cast<int>(store.num_chunks()),
            f.layout.num_chunks() * 2);
  EXPECT_EQ(store.disks().size(), 4u);  // two hosts x two disks
  EXPECT_EQ(store.num_files(), 8);

  ChunkReader reader(store);
  std::uint64_t expected_bytes = 0;
  for (int t = 0; t < 2; ++t) {
    for (int c = 0; c < f.layout.num_chunks(); ++c) {
      ASSERT_TRUE(store.contains(c, t));
      const std::vector<std::byte> want = f.chunk_bytes(c, t);
      const auto got = reader.read(c, t);
      ASSERT_EQ(got->size(), want.size()) << "chunk " << c << " ts " << t;
      EXPECT_EQ(std::memcmp(got->data(), want.data(), want.size()), 0)
          << "chunk " << c << " ts " << t;
      expected_bytes += want.size();
    }
  }
  EXPECT_EQ(store.total_payload_bytes(), expected_bytes);
  fs::remove_all(root);
}

TEST(ChunkStoreFormat, HandleResolvesAndMissingThrows) {
  StoreFixture f;
  f.place({{0, 0}});
  const fs::path root = make_temp_dir("handle");
  materialize_plume_dataset(root, *f.store, f.field, 0, 1);
  ChunkStore store(root);
  const auto& h = store.handle(0, 0);
  EXPECT_GE(h.fd, 0);
  EXPECT_GE(h.offset, sizeof(FileHeader));
  EXPECT_GT(h.bytes, 0u);
  EXPECT_FALSE(store.contains(0, 5));
  EXPECT_THROW((void)store.handle(0, 5), std::out_of_range);
  EXPECT_THROW((void)store.handle(999, 0), std::out_of_range);
  fs::remove_all(root);
}

TEST(ChunkStoreWriterTest, RejectsDuplicateAndConflictingEntries) {
  const fs::path root = make_temp_dir("writer_dup");
  ChunkStoreWriter w(root);
  const std::vector<std::byte> payload(64, std::byte{42});
  w.put_chunk({0, 0}, /*file_id=*/0, /*chunk=*/0, /*timestep=*/0, payload);
  // Same (chunk, timestep) in the same file: duplicate.
  EXPECT_THROW(w.put_chunk({0, 0}, 0, 0, 0, payload), std::invalid_argument);
  // Same file id with a different location: the file cannot be two places.
  EXPECT_THROW(w.put_chunk({1, 0}, 0, 1, 0, payload), std::invalid_argument);
  // Same chunk in a different timestep or file is fine.
  w.put_chunk({0, 0}, 0, 0, 1, payload);
  w.put_chunk({1, 0}, 1, 5, 0, payload);
  w.finish();
  EXPECT_THROW(w.finish(), std::logic_error);
  EXPECT_THROW(w.put_chunk({0, 0}, 0, 9, 9, payload), std::logic_error);
  fs::remove_all(root);
}

TEST(ChunkStoreWriterTest, DuplicateChunkAcrossFilesRejectedOnOpen) {
  const fs::path root = make_temp_dir("writer_cross_dup");
  ChunkStoreWriter w(root);
  const std::vector<std::byte> payload(16, std::byte{1});
  // Two files may legally carry the same (chunk, timestep) at write time
  // (the writer validates per file) — the reader rejects the store.
  w.put_chunk({0, 0}, 0, 3, 0, payload);
  w.put_chunk({1, 0}, 1, 3, 0, payload);
  w.finish();
  EXPECT_THROW(ChunkStore{root}, std::runtime_error);
  fs::remove_all(root);
}

TEST(ChunkStoreFormat, UnfinishedFileIsRejected) {
  // A writer that never reached finish() models a crash mid-materialize: the
  // file still carries the blank placeholder header and must not open.
  const fs::path root = make_temp_dir("unfinished");
  {
    ChunkStoreWriter w(root);
    const std::vector<std::byte> payload(128, std::byte{9});
    w.put_chunk({0, 0}, 0, 0, 0, payload);
    // no finish()
  }
  EXPECT_THROW(ChunkStore{root}, std::runtime_error);
  fs::remove_all(root);
}

TEST(ChunkStoreFormat, EmptyDirectoryIsRejected) {
  const fs::path root = make_temp_dir("empty");
  fs::create_directories(root);
  EXPECT_THROW(ChunkStore{root}, std::runtime_error);
  EXPECT_THROW(ChunkStore{root / "nope"}, std::runtime_error);
  fs::remove_all(root);
}

/// Single-file store, then flip one byte at `offset` in that file.
fs::path corrupt_single_file_store(const std::string& name,
                                   std::uint64_t offset) {
  StoreFixture f(/*files=*/1);
  f.place({{0, 0}});
  const fs::path root = make_temp_dir(name);
  materialize_plume_dataset(root, *f.store, f.field, 0, 1);
  const fs::path file = root / file_relpath(0, 0, 0);
  std::fstream s(file, std::ios::binary | std::ios::in | std::ios::out);
  s.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  s.get(c);
  s.seekp(static_cast<std::streamoff>(offset));
  s.put(static_cast<char>(c ^ 0x40));
  s.close();
  return root;
}

TEST(ChunkStoreFormat, V1FileRejectedByVersionNotChecksum) {
  // Fabricate a v1-era file: same byte layout, version = 1, checksums as a
  // v1 writer would have left them (FNV-1a — but any digest works, because
  // the version gate fires BEFORE checksum verification). The rejection
  // must name the version, never surface as a corruption mystery.
  StoreFixture f(/*files=*/1);
  f.place({{0, 0}});
  const fs::path root = make_temp_dir("v1_reject");
  materialize_plume_dataset(root, *f.store, f.field, 0, 1);
  const fs::path file = root / file_relpath(0, 0, 0);
  FileHeader h;
  {
    std::ifstream in(file, std::ios::binary);
    in.read(reinterpret_cast<char*>(&h), sizeof(h));
  }
  h.version = 1;
  h.header_checksum = fnv1a({reinterpret_cast<const std::byte*>(&h),
                             offsetof(FileHeader, header_checksum)});
  {
    std::fstream out(file, std::ios::binary | std::ios::in | std::ios::out);
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  }
  try {
    ChunkStore store(root);
    FAIL() << "v1 file opened";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("incompatible format version 1"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(root);
}

TEST(ChunkStoreFormat, CorruptHeaderDetectedOnOpen) {
  const fs::path root = corrupt_single_file_store("corrupt_header",
                                                  offsetof(FileHeader, host));
  EXPECT_THROW(ChunkStore{root}, std::runtime_error);
  fs::remove_all(root);
}

TEST(ChunkStoreFormat, CorruptPayloadDetectedOnRead) {
  // Header and index verify fine; the damage only shows when the payload is
  // actually read and its checksum re-computed on the scheduler thread.
  const fs::path root =
      corrupt_single_file_store("corrupt_payload", sizeof(FileHeader) + 5);
  ChunkStore store(root);
  ChunkReader reader(store);
  EXPECT_THROW(reader.read(0, 0), std::runtime_error);
  fs::remove_all(root);
}

TEST(ChunkStoreFormat, TruncatedFileDetectedOnOpen) {
  StoreFixture f(/*files=*/1);
  f.place({{0, 0}});
  const fs::path root = make_temp_dir("truncated");
  materialize_plume_dataset(root, *f.store, f.field, 0, 1);
  const fs::path file = root / file_relpath(0, 0, 0);
  // Chop off the index (and some payload); the header still points past EOF.
  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_THROW(ChunkStore{root}, std::runtime_error);
  fs::remove_all(root);
}

}  // namespace
}  // namespace dc::io
