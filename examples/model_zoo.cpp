// Model-zoo tour: every network in the library through the full pipeline,
// showing how topology class (concat-heavy, residual, fire, random-wired)
// changes which scheduler wins.
//
//   ./model_zoo --gpus 2 [--image_scale 1]
#include <cstdio>
#include <functional>

#include "core/hios.h"

using namespace hios;

int main(int argc, char** argv) try {
  ArgParser args("HIOS model zoo: compare schedulers across architectures");
  args.add_flag("gpus", "2", "number of virtual GPUs");
  int gpus = 0;
  if (!parse_flags_or_exit(args, argc, argv, [&] {
        gpus = static_cast<int>(args.get_int("gpus", 1, kMaxGpusFlag));
      }))
    return 0;

  struct Entry {
    std::string name;
    std::function<ops::Model()> build;
  };
  const std::vector<Entry> zoo = {
      {"inception-v3", [] { return models::make_inception_v3(); }},
      {"nasnet-a", [] { return models::make_nasnet(); }},
      {"resnet-50", [] { return models::make_resnet50(); }},
      {"squeezenet", [] { return models::make_squeezenet(); }},
      {"randwire", [] { return models::make_randwire(); }},
  };

  TextTable table;
  table.set_header({"model", "ops", "deps", "GFLOP", "sequential", "ios", "hios-lp",
                    "hios-mr", "winner"});
  for (const Entry& entry : zoo) {
    const ops::Model model = entry.build();
    const cost::ProfiledModel pm = cost::profile_model(model, cost::make_a40_server(gpus));
    sched::SchedulerConfig config;
    config.num_gpus = gpus;
    const auto results = core::run_algorithms(pm.graph, *pm.cost, config,
                                              {"sequential", "ios", "hios-lp", "hios-mr"});
    std::string winner;
    double best = 0.0;
    for (const auto& [name, result] : results) {
      if (winner.empty() || result.latency_ms < best) {
        winner = name;
        best = result.latency_ms;
      }
    }
    table.add_row({entry.name, std::to_string(model.num_compute_ops()),
                   std::to_string(model.num_compute_deps()),
                   TextTable::num(static_cast<double>(model.total_flops()) / 1e9, 1),
                   TextTable::num(results.at("sequential").latency_ms, 2),
                   TextTable::num(results.at("ios").latency_ms, 2),
                   TextTable::num(results.at("hios-lp").latency_ms, 2),
                   TextTable::num(results.at("hios-mr").latency_ms, 2), winner});
    std::fflush(stdout);
  }
  std::printf("latencies in ms on %s\n\n%s", cost::make_a40_server(gpus).name.c_str(),
              table.to_string().c_str());
  return 0;
} catch (const std::exception& e) {
  return exit_on_error(e);
}
