#include "viz/app.hpp"

#include <stdexcept>

namespace dc::viz {

const char* to_string(PipelineConfig c) {
  switch (c) {
    case PipelineConfig::kRERa_M: return "RERa-M";
    case PipelineConfig::kRE_Ra_M: return "RE-Ra-M";
    case PipelineConfig::kR_ERa_M: return "R-ERa-M";
  }
  return "?";
}

std::vector<HostCopies> one_each(const std::vector<int>& hosts) {
  std::vector<HostCopies> out;
  out.reserve(hosts.size());
  for (int h : hosts) out.push_back(HostCopies{h, 1});
  return out;
}

namespace {

void place_all(core::Placement& p, int filter, const std::vector<HostCopies>& where) {
  if (where.empty()) {
    throw std::invalid_argument("build_iso_app: empty placement list");
  }
  for (const auto& hc : where) p.place(filter, hc.host, hc.copies);
}

}  // namespace

IsoApp build_iso_app(const IsoAppSpec& spec) {
  if (spec.workload.store == nullptr || spec.workload.field == nullptr) {
    throw std::invalid_argument("build_iso_app: workload missing store/field");
  }
  IsoApp app;
  app.sink = std::make_shared<RenderSink>();
  app.sink->keep_images = spec.keep_images;

  const VizWorkload& w = spec.workload;
  auto sink = app.sink;

  switch (spec.config) {
    case PipelineConfig::kRERa_M: {
      const int rera = app.graph.add_source(
          "RERa", [w, hsr = spec.hsr] {
            return std::make_unique<ReadExtractRasterFilter>(hsr, w);
          });
      const int m = app.graph.add_filter(
          "M", [w, sink] { return std::make_unique<MergeFilter>(w, sink); });
      app.graph.connect(rera, 0, m, 0, spec.pix_buffer_bytes, spec.pix_buffer_bytes);
      place_all(app.placement, rera, spec.data_hosts);
      app.placement.place(m, spec.merge_host, 1);
      app.merge_filter = m;
      break;
    }
    case PipelineConfig::kRE_Ra_M: {
      const int re = app.graph.add_source(
          "RE", [w] { return std::make_unique<ReadExtractFilter>(w); });
      const int ra = app.graph.add_filter(
          "Ra", [w, hsr = spec.hsr] {
            return std::make_unique<RasterFilter>(hsr, w);
          });
      const int m = app.graph.add_filter(
          "M", [w, sink] { return std::make_unique<MergeFilter>(w, sink); });
      app.graph.connect(re, 0, ra, 0, spec.tri_buffer_bytes, spec.tri_buffer_bytes);
      app.graph.connect(ra, 0, m, 0, spec.pix_buffer_bytes, spec.pix_buffer_bytes);
      place_all(app.placement, re, spec.data_hosts);
      place_all(app.placement, ra, spec.raster_hosts);
      app.placement.place(m, spec.merge_host, 1);
      app.merge_filter = m;
      app.raster_filter = ra;
      break;
    }
    case PipelineConfig::kR_ERa_M: {
      const int r = app.graph.add_source(
          "R", [w] { return std::make_unique<ReadFilter>(w); });
      const int era = app.graph.add_filter(
          "ERa", [w, hsr = spec.hsr] {
            return std::make_unique<ExtractRasterFilter>(hsr, w);
          });
      const int m = app.graph.add_filter(
          "M", [w, sink] { return std::make_unique<MergeFilter>(w, sink); });
      app.graph.connect(r, 0, era, 0, spec.block_buffer_bytes, spec.block_buffer_bytes);
      app.graph.connect(era, 0, m, 0, spec.pix_buffer_bytes, spec.pix_buffer_bytes);
      place_all(app.placement, r, spec.data_hosts);
      place_all(app.placement, era, spec.raster_hosts);
      app.placement.place(m, spec.merge_host, 1);
      app.merge_filter = m;
      app.raster_filter = era;
      break;
    }
  }
  return app;
}

RenderRun run_app(sim::Topology& topo, const IsoApp& app,
                  const core::RuntimeConfig& rt_config, int uows,
                  obs::TraceSession* trace) {
  core::Runtime rt(topo, app.graph, app.placement, rt_config);
  rt.set_obs(trace);

  RenderRun run;
  run.sink = app.sink;
  run.raster_filter = app.raster_filter;
  for (int u = 0; u < uows; ++u) {
    run.per_uow.push_back(rt.run_uow());
  }
  sim::SimTime sum = 0.0;
  for (sim::SimTime t : run.per_uow) sum += t;
  run.avg = run.per_uow.empty() ? 0.0 : sum / static_cast<double>(run.per_uow.size());
  run.metrics = rt.metrics();
  return run;
}

RenderRun run_iso_app(sim::Topology& topo, const IsoAppSpec& spec,
                      const core::RuntimeConfig& rt_config, int uows) {
  return run_app(topo, build_iso_app(spec), rt_config, uows, spec.trace);
}

NativeRenderRun run_iso_app_native(const IsoAppSpec& spec,
                                   const core::RuntimeConfig& rt_config,
                                   int uows, exec::HostInfo hosts) {
  IsoApp app = build_iso_app(spec);
  exec::Engine eng(app.graph, app.placement, rt_config, std::move(hosts));
  eng.set_obs(spec.trace);

  NativeRenderRun run;
  run.sink = app.sink;
  run.raster_filter = app.raster_filter;
  for (int u = 0; u < uows; ++u) {
    run.per_uow.push_back(eng.run_uow());
  }
  double sum = 0.0;
  for (double t : run.per_uow) sum += t;
  run.avg = run.per_uow.empty() ? 0.0 : sum / static_cast<double>(run.per_uow.size());
  run.metrics = eng.metrics();
  run.governor = eng.governor_stats();
  return run;
}

}  // namespace dc::viz
