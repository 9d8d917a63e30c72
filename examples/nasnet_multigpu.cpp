// NASNet-A multi-GPU scaling study: how HIOS-LP exploits 1..M GPUs on the
// paper's second, much larger benchmark (358 ops), and what the Alg. 2
// window size buys at each scale.
//
//   ./nasnet_multigpu --image_hw 512 --max_gpus 4
#include <cstdio>

#include "core/hios.h"

using namespace hios;

int main(int argc, char** argv) try {
  ArgParser args("NASNet-A multi-GPU scaling with HIOS-LP");
  args.add_flag("image_hw", "512", "input resolution (>= 32)")
      .add_flag("max_gpus", "4", "sweep GPU count from 1 to this")
      .add_flag("algorithm", "hios-lp", "scheduling algorithm to sweep");
  models::NasnetOptions mopt;
  int max_gpus = 0;
  if (!parse_flags_or_exit(args, argc, argv, [&] {
        mopt.image_hw = args.get_int("image_hw");
        max_gpus = static_cast<int>(args.get_int("max_gpus", 1, kMaxGpusFlag));
      }))
    return 0;

  const ops::Model model = models::make_nasnet(mopt);
  std::printf("NASNet-A @ %ld: %d ops, %d deps, %.1f GFLOP\n\n",
              static_cast<long>(mopt.image_hw), model.num_compute_ops(),
              model.num_compute_deps(), static_cast<double>(model.total_flops()) / 1e9);

  const std::string alg = args.get("algorithm");
  TextTable table;
  table.set_header({"gpus", "latency_ms", "speedup", "cross_gpu_deps", "grouped_stages"});
  double base = 0.0;
  for (int gpus = 1; gpus <= max_gpus; ++gpus) {
    const cost::ProfiledModel pm = cost::profile_model(model, cost::make_a40_server(gpus));
    sched::SchedulerConfig config;
    config.num_gpus = gpus;
    const auto r = sched::make_scheduler(alg)->schedule(pm.graph, *pm.cost, config);
    sched::check_schedule(pm.graph, r.schedule);
    if (gpus == 1) base = r.latency_ms;

    const auto gpu_of = r.schedule.gpu_assignment(pm.graph.num_nodes());
    int cut = 0;
    for (const auto& e : pm.graph.edges())
      if (gpu_of[static_cast<std::size_t>(e.src)] != gpu_of[static_cast<std::size_t>(e.dst)])
        ++cut;
    int grouped = 0;
    for (const auto& gpu : r.schedule.gpus)
      for (const auto& stage : gpu)
        if (stage.ops.size() > 1) ++grouped;

    table.add_row({std::to_string(gpus), TextTable::num(r.latency_ms, 3),
                   TextTable::num(base / r.latency_ms, 2) + "x", std::to_string(cut),
                   std::to_string(grouped)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\n(%s; cross_gpu_deps = dependencies paying NVLink transfers)\n", alg.c_str());
  return 0;
} catch (const std::exception& e) {
  return exit_on_error(e);
}
