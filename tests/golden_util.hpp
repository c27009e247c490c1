#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/runtime.hpp"

// Shared pieces of the golden-file tests (test_obs_golden, test_golden_trace):
// the src -> work -> sink pipeline filters and the line-by-line comparison
// against a checked-in file under tests/golden/.

#ifndef DC_TEST_DIR
#error "tests/CMakeLists.txt must define DC_TEST_DIR"
#endif

namespace dc::test {

class BatchSource : public core::SourceFilter {
 public:
  explicit BatchSource(int count, int words = 64) : count_(count), words_(words) {}
  bool step(core::FilterContext& ctx) override {
    if (i_ >= count_) return false;
    ctx.charge(50'000.0);
    core::Buffer b = ctx.make_buffer(0);
    for (int k = 0; k < words_; ++k) b.push(static_cast<std::uint32_t>(i_));
    ctx.write(0, b);
    ++i_;
    return i_ < count_;
  }

 private:
  int count_;
  int words_;
  int i_ = 0;
};

class ForwardWorker : public core::Filter {
 public:
  void process_buffer(core::FilterContext& ctx, int,
                      const core::Buffer& buf) override {
    ctx.charge(5e5);
    ctx.write(0, buf);
  }
};

class CountSink : public core::Filter {
 public:
  void process_buffer(core::FilterContext& ctx, int, const core::Buffer&) override {
    ctx.charge(100.0);
  }
};

/// Compares `actual` with tests/golden/`file`, reporting the first differing
/// line. With DC_UPDATE_GOLDEN set, rewrites the file and skips instead.
inline void check_against_golden(const std::string& actual,
                                 const std::string& file) {
  const std::string path = std::string(DC_TEST_DIR) + "/golden/" + file;
  if (std::getenv("DC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with DC_UPDATE_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();

  std::istringstream a(expected.str()), b(actual);
  std::string ea, eb;
  int line = 1;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(a, ea));
    const bool more_b = static_cast<bool>(std::getline(b, eb));
    if (!more_a && !more_b) break;
    ASSERT_TRUE(more_a && more_b)
        << file << ": stream length changed at line " << line << " (golden "
        << (more_a ? "has more" : "ended") << ")";
    ASSERT_EQ(ea, eb) << file << ": first difference at line " << line;
    ++line;
  }
}

}  // namespace dc::test
