#include <algorithm>
#include <chrono>

#include "cost/stage_cache.h"
#include "sched/evaluate.h"
#include "sched/ios_intra.h"
#include "sched/parallelize.h"
#include "sched/placement.h"
#include "util/error.h"

namespace hios::sched {

struct Algorithm {
  /// The pass that turns a placement into the final schedule.
  enum class Finish {
    kEvaluate,     ///< keep the placement as is
    kParallelize,  ///< Alg. 2, window min(w, L)
    kIosIntra,     ///< IOS per GPU (§IV-B ablation)
  };
  const char* name;
  Schedule (*place)(const graph::CompiledGraph&, const cost::CostModel&,
                    const SchedulerConfig&);
  Finish finish;
};

namespace {

using Finish = Algorithm::Finish;

Schedule place_sequential(const graph::CompiledGraph& cg, const cost::CostModel&,
                          const SchedulerConfig&) {
  Schedule schedule(1);
  for (graph::NodeId v : cg.priority_order()) schedule.push_op(0, v);
  return schedule;
}

constexpr Algorithm kAlgorithms[] = {
    {"sequential", place_sequential, Finish::kEvaluate},
    {"ios", place_ios, Finish::kEvaluate},
    {"hios-lp", place_longest_path, Finish::kParallelize},
    {"hios-mr", place_mapping_recording, Finish::kParallelize},
    {"inter-lp", place_longest_path, Finish::kEvaluate},
    {"inter-mr", place_mapping_recording, Finish::kEvaluate},
    // Ablation, not one of the paper's six: IOS as the intra-GPU pass,
    // testing the §IV-B claim that it is costly and suboptimal.
    {"hios-lp-iosintra", place_longest_path, Finish::kIosIntra},
};

}  // namespace

std::string Scheduler::name() const { return algorithm_->name; }

ScheduleResult Scheduler::schedule(const graph::Graph& g, const cost::CostModel& cost,
                                   const SchedulerConfig& config) const {
  const auto t0 = std::chrono::steady_clock::now();
  // Compiled once for the whole run: CSR adjacency plus the priority
  // indicators and order on G. The cache memoizes every t(S) that the
  // placement and the finishing pass query.
  const graph::CompiledGraph cg(g);
  const cost::StageTimeCache cached(cost);
  Schedule placed = algorithm_->place(cg, cached, config);

  ScheduleResult result;
  switch (algorithm_->finish) {
    case Finish::kEvaluate: {
      auto eval = evaluate_schedule(g, placed, cached);
      HIOS_ASSERT(eval.has_value(), "a placement cannot deadlock");
      result.schedule = std::move(placed);
      result.latency_ms = eval->latency_ms;
      break;
    }
    case Finish::kParallelize: {
      ParallelizeResult intra = parallelize(cg, std::move(placed), cached,
                                            std::min(config.window, config.max_streams));
      result.schedule = std::move(intra.schedule);
      result.latency_ms = intra.latency_ms;
      break;
    }
    case Finish::kIosIntra:
      result = ios_intra_pass(g, placed, cached, config);
      break;
  }
  result.algorithm = algorithm_->name;
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  for (const Algorithm& algorithm : kAlgorithms) {
    if (name == algorithm.name) return std::unique_ptr<Scheduler>(new Scheduler(algorithm));
  }
  throw Error("unknown scheduler '" + name +
              "' (expected sequential|ios|hios-lp|hios-mr|inter-lp|inter-mr|"
              "hios-lp-iosintra)");
}

std::vector<std::string> scheduler_names() {
  return {"sequential", "ios", "hios-lp", "hios-mr", "inter-lp", "inter-mr"};
}

}  // namespace hios::sched
