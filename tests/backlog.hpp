#pragma once

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/filter.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "viz/app.hpp"

// Deterministic queue pressure for the governed native engine. Whether a
// producer outruns its consumer is up to the scheduler, so tests that must
// see spilling hold every consumer of a source in init() until the sources
// finished the UOW. A governed push never blocks, so the sources always get
// there, with their whole output queued beyond the floor.

namespace dc::test {

/// Counts the source copies that finished each UOW; consumers wait on it.
class SourceDoneLatch {
 public:
  explicit SourceDoneLatch(int sources) : sources_(sources) {}

  void arrive(int uow) {
    std::lock_guard<std::mutex> lk(mu_);
    ++done_[uow];
    cv_.notify_all();
  }

  void wait(int uow) {
    std::unique_lock<std::mutex> lk(mu_);
    // Bounded: a source that never finishes fails the run instead of
    // hanging it.
    if (!cv_.wait_for(lk, std::chrono::seconds(60),
                      [&] { return done_[uow] >= sources_; })) {
      throw std::runtime_error("source never finished the UOW");
    }
  }

 private:
  int sources_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<int, int> done_;
};

/// A consumer copy that starts only once every source copy finished.
class HeldFilter final : public core::Filter {
 public:
  HeldFilter(std::unique_ptr<core::Filter> inner,
             std::shared_ptr<SourceDoneLatch> latch)
      : inner_(std::move(inner)), latch_(std::move(latch)) {}
  void init(core::FilterContext& ctx) override {
    latch_->wait(ctx.uow_index());
    inner_->init(ctx);
  }
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override {
    inner_->process_buffer(ctx, port, buf);
  }
  void process_eow(core::FilterContext& ctx) override {
    inner_->process_eow(ctx);
  }
  void finalize(core::FilterContext& ctx) override { inner_->finalize(ctx); }

 private:
  std::unique_ptr<core::Filter> inner_;
  std::shared_ptr<SourceDoneLatch> latch_;
};

/// A source copy that reports to the latch once its output is dispatched
/// (finalize runs after the last drain).
class ReleasingSource final : public core::SourceFilter {
 public:
  ReleasingSource(std::unique_ptr<core::Filter> inner,
                  std::shared_ptr<SourceDoneLatch> latch)
      : inner_(std::move(inner)), latch_(std::move(latch)) {}
  void init(core::FilterContext& ctx) override { inner_->init(ctx); }
  bool step(core::FilterContext& ctx) override {
    return static_cast<core::SourceFilter&>(*inner_).step(ctx);
  }
  void process_eow(core::FilterContext& ctx) override {
    inner_->process_eow(ctx);
  }
  void finalize(core::FilterContext& ctx) override {
    inner_->finalize(ctx);
    latch_->arrive(ctx.uow_index());
  }

 private:
  std::unique_ptr<core::Filter> inner_;
  std::shared_ptr<SourceDoneLatch> latch_;
};

/// Renders `uows` timesteps of `spec` on the native engine with every
/// consumer of a source held until the sources finished. Only valid under a
/// memory budget: with fixed windows the held consumer would stall the
/// source forever.
inline viz::NativeRenderRun run_backlogged(const viz::IsoAppSpec& spec,
                                           const core::RuntimeConfig& cfg,
                                           int uows) {
  const viz::IsoApp app = viz::build_iso_app(spec);
  const core::Graph& g = app.graph;
  int sources = 0;
  std::vector<bool> held(static_cast<std::size_t>(g.num_filters()), false);
  for (int f = 0; f < g.num_filters(); ++f) {
    if (!g.filter(f).is_source) continue;
    sources += app.placement.total_copies(f);
    for (int st : g.out_streams(f)) {
      held[static_cast<std::size_t>(g.stream(st).to_filter)] = true;
    }
  }
  auto latch = std::make_shared<SourceDoneLatch>(sources);
  core::Graph wrapped;
  for (int f = 0; f < g.num_filters(); ++f) {
    const core::FilterSpec& fs = g.filter(f);
    core::FilterFactory factory = fs.factory;
    if (fs.is_source) {
      factory = [inner = fs.factory, latch] {
        return std::make_unique<ReleasingSource>(inner(), latch);
      };
    } else if (held[static_cast<std::size_t>(f)]) {
      factory = [inner = fs.factory, latch] {
        return std::make_unique<HeldFilter>(inner(), latch);
      };
    }
    wrapped.add_filter(fs.name, std::move(factory), fs.is_source);
  }
  for (int st = 0; st < g.num_streams(); ++st) {
    const core::StreamSpec& ss = g.stream(st);
    const int id = wrapped.connect(ss.from_filter, ss.from_port, ss.to_filter,
                                   ss.to_port, ss.min_buffer_bytes,
                                   ss.max_buffer_bytes);
    wrapped.stream(id).policy = ss.policy;
  }

  exec::Engine eng(wrapped, app.placement, cfg);
  viz::NativeRenderRun run;
  run.sink = app.sink;
  for (int u = 0; u < uows; ++u) run.per_uow.push_back(eng.run_uow());
  run.metrics = eng.metrics();
  run.governor = eng.governor_stats();
  return run;
}

}  // namespace dc::test
