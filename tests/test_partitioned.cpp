// The paper's Section 6 hybrid — the image partitioned among merge copies,
// the rasters replicated — run on the simulator through the tiled
// compositor (comp::run_tiled_iso_app).

#include <gtest/gtest.h>

#include "comp/app.hpp"
#include "test_util.hpp"

namespace dc::comp {
namespace {

using viz::HsrAlgorithm;
using viz::IsoAppSpec;
using viz::PipelineConfig;
using viz::RenderRun;

struct PartitionedFixture : ::testing::Test {
  sim::Simulation simulation;
  sim::Topology topo{simulation};
  test::TestDataset ds = test::make_dataset();

  IsoAppSpec spec_on(const std::vector<int>& data, const std::vector<int>& raster) {
    std::vector<data::FileLocation> locs;
    for (int h : data) locs.push_back(data::FileLocation{h, 0});
    ds.store->place_uniform(locs);
    IsoAppSpec spec;
    spec.workload = test::make_workload(ds);
    spec.config = PipelineConfig::kRE_Ra_M;
    spec.data_hosts = viz::one_each(data);
    spec.raster_hosts = viz::one_each(raster);
    return spec;
  }

  /// Runs the tiled app and checks that no tile came out partial.
  RenderRun run_tiled(const IsoAppSpec& spec, const TiledCompSpec& comp,
                      int uows) {
    std::shared_ptr<CompStats> stats;
    RenderRun run = run_tiled_iso_app(topo, spec, comp, {}, uows, &stats);
    EXPECT_EQ(stats->tiles_partial.load(), 0u);
    EXPECT_EQ(stats->tiles_complete.load(),
              static_cast<std::uint64_t>(uows) *
                  static_cast<std::uint64_t>(
                      TileLayout{spec.workload.width, spec.workload.height,
                                 comp.tile_px}
                          .num_tiles()));
    return run;
  }
};

/// Share of the makespan the copies on `host` were busy.
double busy_share(const RenderRun& run, int host) {
  double busy = 0.0;
  for (const auto& m : run.metrics.instances) {
    if (m.host == host) busy += m.busy_time;
  }
  return busy / (run.avg * static_cast<double>(run.per_uow.size()));
}

TEST_F(PartitionedFixture, RejectsBadArguments) {
  test::add_plain_nodes(topo, 2);
  IsoAppSpec spec = spec_on({0}, {1});
  TiledCompSpec comp;
  EXPECT_THROW((void)build_tiled_iso_app(spec, comp), std::invalid_argument)
      << "empty owner list";
  for (int h = 0; h < 65; ++h) comp.owner_hosts.push_back(h);
  EXPECT_THROW((void)build_tiled_iso_app(spec, comp), std::invalid_argument)
      << "65 owners";
  comp.owner_hosts = {0, 1, 0};
  EXPECT_THROW((void)build_tiled_iso_app(spec, comp), std::invalid_argument)
      << "duplicate owner hosts";
  comp.owner_hosts = {0, 1};
  IsoAppSpec no_store = spec;
  no_store.workload.store = nullptr;
  EXPECT_THROW((void)build_tiled_iso_app(no_store, comp), std::invalid_argument);
  IsoAppSpec no_field = spec;
  no_field.workload.field = nullptr;
  EXPECT_THROW((void)build_tiled_iso_app(no_field, comp), std::invalid_argument);
  EXPECT_NO_THROW((void)build_tiled_iso_app(spec, comp));
}

TEST_F(PartitionedFixture, TiledImageMatchesReference) {
  // 64x50 cut by 7-px tiles leaves clipped edge tiles on both axes; 64-px
  // tiles make one tile with every owner but one idle.
  test::add_plain_nodes(topo, 6);
  IsoAppSpec spec = spec_on({0, 1}, {1, 2});
  spec.workload.width = 64;
  spec.workload.height = 50;
  spec.workload.vary_view_per_uow = true;
  constexpr int kUows = 3;
  std::vector<std::uint64_t> reference;
  for (int u = 0; u < kUows; ++u) {
    reference.push_back(test::direct_render(spec.workload, u).digest());
  }
  const std::vector<int> hosts = {2, 3, 4, 5};
  for (HsrAlgorithm hsr : {HsrAlgorithm::kZBuffer, HsrAlgorithm::kActivePixel}) {
    for (int owners : {1, 2, 4}) {
      for (int tile_px : {7, 16, 64}) {
        spec.hsr = hsr;
        TiledCompSpec comp;
        comp.tile_px = tile_px;
        comp.owner_hosts.assign(hosts.begin(), hosts.begin() + owners);
        comp.gather_host = 3;
        const RenderRun run = run_tiled(spec, comp, kUows);
        EXPECT_EQ(run.sink->digests, reference)
            << to_string(hsr) << " / " << owners << " owners / " << tile_px
            << "-px tiles";
      }
    }
  }
}

TEST_F(PartitionedFixture, EveryDecompositionMatchesSingleMerge) {
  test::add_plain_nodes(topo, 4);
  IsoAppSpec spec = spec_on({0, 1}, {1, 2});
  TiledCompSpec comp;
  comp.tile_px = 16;
  comp.owner_hosts = {1, 2, 3};
  comp.gather_host = 3;
  for (PipelineConfig config : {PipelineConfig::kRERa_M,
                                PipelineConfig::kRE_Ra_M,
                                PipelineConfig::kR_ERa_M}) {
    spec.config = config;
    spec.merge_host = 3;
    const RenderRun single = viz::run_iso_app(topo, spec, {}, 2);
    const RenderRun tiled = run_tiled(spec, comp, 2);
    EXPECT_EQ(tiled.sink->digests, single.sink->digests) << to_string(config);
  }
}

TEST_F(PartitionedFixture, RemovesMergeBottleneck) {
  // Three raster copies feed one merge host, and merging costs enough that
  // the single M copy is busy for nearly the whole makespan. Partitioning
  // the image among four tile owners on distinct hosts must cut the
  // makespan — which holds only if the gather G, the one stage still
  // serial, is charged for the blits it does and not for a z-merge of
  // every pixel.
  test::add_plain_nodes(topo, 8);
  IsoAppSpec spec = spec_on({0}, {1, 2, 3});
  spec.workload.cost.merge_per_entry *= 20000.0;
  spec.hsr = HsrAlgorithm::kActivePixel;

  spec.merge_host = 4;
  const RenderRun single = viz::run_iso_app(topo, spec, {}, 1);
  EXPECT_GE(busy_share(single, 4), 0.9) << "single M is not the bottleneck";

  TiledCompSpec comp;
  // 64 hashed 8-px tiles leave the busiest owner 1.5x its even share of the
  // merge work. With 16-px tiles this map seed gives owner 0 seven of the
  // 16 tiles, the central ones among them, and 74 % of the merge work.
  comp.tile_px = 8;
  comp.owner_hosts = {4, 5, 6, 7};
  comp.gather_host = 4;
  const RenderRun tiled = run_tiled(spec, comp, 1);
  EXPECT_LE(tiled.avg, 0.6 * single.avg)
      << "tiled " << tiled.avg << " s vs single-M " << single.avg << " s";
  EXPECT_EQ(tiled.sink->digests, single.sink->digests);
}

}  // namespace
}  // namespace dc::comp
