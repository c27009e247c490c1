#include "comp/app.hpp"

#include <algorithm>
#include <stdexcept>

namespace dc::comp {

namespace {

void place_all(core::Placement& p, int filter,
               const std::vector<viz::HostCopies>& where) {
  if (where.empty()) {
    throw std::invalid_argument("build_tiled_iso_app: empty placement list");
  }
  for (const auto& hc : where) p.place(filter, hc.host, hc.copies);
}

int total_copies(const std::vector<viz::HostCopies>& where) {
  int n = 0;
  for (const auto& hc : where) n += hc.copies;
  return n;
}

}  // namespace

TiledApp build_tiled_iso_app(const viz::IsoAppSpec& spec,
                             const TiledCompSpec& comp) {
  if (spec.workload.store == nullptr || spec.workload.field == nullptr) {
    throw std::invalid_argument(
        "build_tiled_iso_app: workload missing store/field");
  }
  if (comp.owner_hosts.empty() || comp.owner_hosts.size() > 64) {
    throw std::invalid_argument(
        "build_tiled_iso_app: owner host count must be in [1, 64]");
  }
  for (std::size_t i = 0; i < comp.owner_hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < comp.owner_hosts.size(); ++j) {
      if (comp.owner_hosts[i] == comp.owner_hosts[j]) {
        // Two TM copies on one host would share a consumer channel and
        // split one owner's tiles nondeterministically between them.
        throw std::invalid_argument(
            "build_tiled_iso_app: owner hosts must be distinct");
      }
    }
  }

  TiledApp t;
  t.map = std::make_shared<TileMap>(
      TileLayout{spec.workload.width, spec.workload.height, comp.tile_px},
      static_cast<int>(comp.owner_hosts.size()), comp.map_seed);
  t.stats = std::make_shared<CompStats>();
  t.app.sink = std::make_shared<viz::RenderSink>();
  t.app.sink->keep_images = spec.keep_images;

  const viz::VizWorkload& w = spec.workload;
  auto sink = t.app.sink;
  auto map = t.map;
  auto stats = t.stats;
  const std::uint32_t background = sink->background;

  // One dense tile block must fit a gather buffer in one frame.
  const std::size_t gather_bytes = std::max(
      comp.gather_buffer_bytes,
      sizeof(FragHeader) + static_cast<std::size_t>(comp.tile_px) *
                               static_cast<std::size_t>(comp.tile_px) *
                               sizeof(std::uint32_t));

  // Producer stage per pipeline config; `producers` is the filter whose
  // output port 0 carries tile-keyed fragment buffers.
  int producers = -1;
  int num_producer_copies = 0;
  core::Graph& g = t.app.graph;
  switch (spec.config) {
    case viz::PipelineConfig::kRERa_M: {
      producers = g.add_source("RERa", [w, hsr = spec.hsr, map] {
        return std::make_unique<TiledReadExtractRasterFilter>(hsr, w, map);
      });
      place_all(t.app.placement, producers, spec.data_hosts);
      num_producer_copies = total_copies(spec.data_hosts);
      break;
    }
    case viz::PipelineConfig::kRE_Ra_M: {
      const int re = g.add_source("RE", [w] {
        return std::make_unique<viz::ReadExtractFilter>(w);
      });
      producers = g.add_filter("Ra", [w, hsr = spec.hsr, map] {
        return std::make_unique<TiledRasterFilter>(hsr, w, map);
      });
      g.connect(re, 0, producers, 0, spec.tri_buffer_bytes,
                spec.tri_buffer_bytes);
      place_all(t.app.placement, re, spec.data_hosts);
      place_all(t.app.placement, producers, spec.raster_hosts);
      num_producer_copies = total_copies(spec.raster_hosts);
      break;
    }
    case viz::PipelineConfig::kR_ERa_M: {
      const int r = g.add_source(
          "R", [w] { return std::make_unique<viz::ReadFilter>(w); });
      producers = g.add_filter("ERa", [w, hsr = spec.hsr, map] {
        return std::make_unique<TiledExtractRasterFilter>(hsr, w, map);
      });
      g.connect(r, 0, producers, 0, spec.block_buffer_bytes,
                spec.block_buffer_bytes);
      place_all(t.app.placement, r, spec.data_hosts);
      place_all(t.app.placement, producers, spec.raster_hosts);
      num_producer_copies = total_copies(spec.raster_hosts);
      break;
    }
  }
  t.app.raster_filter = producers;

  const int tm = g.add_filter(
      "TM", [map, w, num_producer_copies, background, stats] {
        return std::make_unique<TileOwnerMergeFilter>(
            map, w, num_producer_copies, background, stats);
      });
  const int gather = g.add_filter("G", [map, w, sink, stats] {
    return std::make_unique<TileGatherFilter>(map, w, sink, stats);
  });

  const int frag_stream = g.connect(producers, 0, tm, 0,
                                    comp.frag_buffer_bytes,
                                    comp.frag_buffer_bytes);
  g.stream(frag_stream).policy = core::Policy::kTileOwner;
  g.connect(tm, 0, gather, 0, gather_bytes, gather_bytes);

  // Owner index == placement position == WriterState target index: the
  // published map and the writers' probe sequences agree by construction.
  for (int h : comp.owner_hosts) t.app.placement.place(tm, h, 1);
  t.app.placement.place(gather, comp.gather_host, 1);

  t.app.merge_filter = gather;
  t.tile_merge_filter = tm;
  t.gather_filter = gather;
  return t;
}

viz::RenderRun run_tiled_iso_app(sim::Topology& topo,
                                 const viz::IsoAppSpec& spec,
                                 const TiledCompSpec& comp,
                                 const core::RuntimeConfig& cfg, int uows,
                                 std::shared_ptr<CompStats>* stats) {
  TiledApp t = build_tiled_iso_app(spec, comp);
  if (stats != nullptr) *stats = t.stats;
  return viz::run_app(topo, t.app, cfg, uows, spec.trace);
}

TiledNativeRun run_tiled_iso_app_native(const viz::IsoAppSpec& spec,
                                        const TiledCompSpec& comp,
                                        const core::RuntimeConfig& cfg,
                                        int uows, exec::HostInfo hosts) {
  TiledApp t = build_tiled_iso_app(spec, comp);
  exec::Engine eng(t.app.graph, t.app.placement, cfg, std::move(hosts));
  eng.set_obs(spec.trace);

  TiledNativeRun run;
  run.sink = t.app.sink;
  run.map = t.map;
  run.stats = t.stats;
  for (int u = 0; u < uows; ++u) {
    run.per_uow.push_back(eng.run_uow());
  }
  double sum = 0.0;
  for (double s : run.per_uow) sum += s;
  run.avg = run.per_uow.empty()
                ? 0.0
                : sum / static_cast<double>(run.per_uow.size());
  run.metrics = eng.metrics();
  return run;
}

viz::DistributedRenderRun run_tiled_iso_app_distributed(
    const viz::IsoAppSpec& spec, const TiledCompSpec& comp,
    const core::RuntimeConfig& cfg, int uows, int num_ranks,
    viz::DistributedRunOptions opts) {
  opts.builder = [comp](const viz::IsoAppSpec& s) {
    return build_tiled_iso_app(s, comp).app;
  };
  return viz::run_iso_app_distributed(spec, cfg, uows, num_ranks,
                                      std::move(opts));
}

}  // namespace dc::comp
