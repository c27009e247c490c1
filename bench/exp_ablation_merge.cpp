// Ablation (paper Section 6, Conclusions): "as the number of copies of
// other filters or the number of nodes increases, the merge filter becomes
// a bottleneck." Sweeps worker-node count and reports both total time and
// the merge copy's busy share of the makespan, next to the paper's proposed
// hybrid (image partitioning among merges, rasters replicated) run on the
// tiled compositor. Exits 1 if the hybrid's images differ from single-M's
// or any tile is partial.

#include <cstdio>

#include "comp/app.hpp"
#include "exp_common.hpp"

using namespace dc;

int main(int argc, char** argv) {
  exp ::Args args = exp ::Args::parse(argc, argv);
  if (args.uows == 5 && !args.quick) args.uows = 3;

  exp ::print_title("Ablation: the Merge bottleneck",
                    "RE-Ra-M on N Blue worker nodes + 1 merge node, Z-buffer "
                    "(dense transfers), large image");
  exp ::Table t({"workers", "time (s)", "M busy (s)", "M share", "tiled(s)"},
                12);

  obs::MetricsRegistry reg;
  viz::RenderRun last;
  for (int n : {1, 2, 4, 8, 16}) {
    exp ::Env env = exp ::make_env(args);
    const auto workers = env.add_nodes(sim::testbed::blue_node(), n);
    const int merge = env.topo->add_host(sim::testbed::blue_node());
    exp ::place_uniform(env, workers);

    viz::IsoAppSpec spec = exp ::base_spec(env, args, args.large_image);
    spec.config = viz::PipelineConfig::kRE_Ra_M;
    spec.hsr = viz::HsrAlgorithm::kZBuffer;
    spec.data_hosts = viz::one_each(workers);
    spec.raster_hosts = viz::one_each(workers);
    spec.merge_host = merge;

    core::RuntimeConfig cfg;
    cfg.policy = core::Policy::kDemandDriven;
    const viz::RenderRun run = run_iso_app(*env.topo, spec, cfg, args.uows);

    // Merge is the last filter in every configuration's graph.
    double merge_busy = 0.0;
    int merge_instances = 0;
    for (const auto& m : run.metrics.instances) {
      if (m.host == merge) {
        merge_busy += m.busy_time;
        ++merge_instances;
      }
    }
    const double per_uow = merge_busy / static_cast<double>(args.uows);

    // The future-work hybrid on the tiled compositor: 32-px tiles owned by
    // the merge host and up to 3 workers, gathered on the merge host.
    comp::TiledCompSpec tiles;
    tiles.owner_hosts = {merge};
    for (int i = 0; i < std::min(3, n); ++i) {
      tiles.owner_hosts.push_back(workers[static_cast<std::size_t>(i)]);
    }
    tiles.gather_host = merge;
    std::shared_ptr<comp::CompStats> stats;
    const viz::RenderRun tiled =
        comp::run_tiled_iso_app(*env.topo, spec, tiles, cfg, args.uows, &stats);
    if (tiled.sink->digests != run.sink->digests) {
      std::printf("IMAGE MISMATCH (tiled) at n=%d\n", n);
      return 1;
    }
    if (stats->tiles_partial.load() != 0) {
      std::printf("PARTIAL TILES (tiled) at n=%d\n", n);
      return 1;
    }

    t.row({std::to_string(n), exp ::Table::num(run.avg),
           exp ::Table::num(per_uow), exp ::Table::num(per_uow / run.avg, 2),
           exp ::Table::num(tiled.avg)});
    const std::string k = "sweep.n" + std::to_string(n);
    reg.set(k + ".time_s", run.avg);
    reg.set(k + ".merge_share", per_uow / run.avg);
    reg.set(k + ".tiled_time_s", tiled.avg);
    last = run;
  }
  std::printf(
      "\nThe merge share grows toward 1.0 with worker count: replicating the\n"
      "pipelined stages cannot help once the single merge copy saturates.\n"
      "The last column is the paper's future-work hybrid on the tiled\n"
      "compositor (image partitioned among tile owners, rasters replicated)\n"
      "— same exact image, bottleneck removed.\n");
  core::publish(last.metrics, reg);  // metrics of the 16-worker run
  exp ::print_json("ablation_merge", reg);
  return 0;
}
