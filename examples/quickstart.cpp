// Quickstart: build a small multi-branch model, schedule it with HIOS-LP
// on a dual-A40 NVLink platform, and inspect the result.
//
//   ./quickstart [--algorithm hios-lp] [--gpus 2]
#include <cstdio>

#include "core/hios.h"

using namespace hios;

int main(int argc, char** argv) try {
  ArgParser args("HIOS quickstart: schedule a toy multi-branch CNN");
  args.add_flag("algorithm", "hios-lp", "sequential|ios|hios-lp|hios-mr|inter-lp|inter-mr")
      .add_flag("gpus", "2", "number of virtual GPUs");
  int gpus = 0;
  if (!parse_flags_or_exit(args, argc, argv, [&] {
        gpus = static_cast<int>(args.get_int("gpus", 1, kMaxGpusFlag));
      }))
    return 0;

  // 1. Describe the model: a 3-branch block over a 256x256 image.
  ops::Model model("quickstart-net");
  const ops::OpId in = model.add_input("image", ops::TensorShape{1, 32, 256, 256});
  const ops::OpId b1 = model.add_op(
      ops::Op(ops::OpKind::kConv2d, "branch1_conv3x3",
              ops::Conv2dAttr{64, 3, 3, 1, 1, 1, 1, 1}),
      {in});
  ops::OpId b2 = model.add_op(ops::Op(ops::OpKind::kConv2d, "branch2_conv1x1",
                                      ops::Conv2dAttr{32, 1, 1, 1, 1, 0, 0, 1}),
                              {in});
  b2 = model.add_op(ops::Op(ops::OpKind::kConv2d, "branch2_conv5x5",
                            ops::Conv2dAttr{64, 5, 5, 1, 1, 2, 2, 1}),
                    {b2});
  ops::OpId b3 = model.add_op(ops::Op(ops::OpKind::kPool2d, "branch3_pool",
                                      ops::Pool2dAttr{ops::PoolMode::kAvg, 3, 3, 1, 1, 1, 1}),
                              {in});
  b3 = model.add_op(ops::Op(ops::OpKind::kConv2d, "branch3_conv1x1",
                            ops::Conv2dAttr{64, 1, 1, 1, 1, 0, 0, 1}),
                    {b3});
  const ops::OpId cat = model.add_op(ops::Op(ops::OpKind::kConcat, "concat"), {b1, b2, b3});
  model.add_op(ops::Op(ops::OpKind::kGlobalPool, "head_pool"), {cat});

  // 2. Profile + schedule + simulate in one call.
  core::PipelineOptions options;
  options.algorithm = args.get("algorithm");
  options.platform = cost::make_a40_server(gpus);
  const core::PipelineOutput out = core::run_pipeline(model, options);

  // 3. Inspect.
  std::printf("model: %d ops, %d dependencies, %.2f GFLOP\n", model.num_compute_ops(),
              model.num_compute_deps(), static_cast<double>(model.total_flops()) / 1e9);
  std::printf("algorithm: %s on %s\n", out.result.algorithm.c_str(),
              options.platform.name.c_str());
  std::printf("predicted inference latency: %.3f ms (scheduling took %.1f ms)\n\n",
              out.result.latency_ms, out.result.scheduling_ms);
  std::fputs(out.timeline.to_ascii_gantt(80).c_str(), stdout);

  std::printf("\nschedule JSON:\n%s\n",
              out.result.schedule.to_json(out.profiled.graph).dump(true).c_str());
  return 0;
} catch (const std::exception& e) {
  return exit_on_error(e);
}
