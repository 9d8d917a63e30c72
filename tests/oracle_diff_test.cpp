// Oracle-differential suite: every scheduler vs brute-force optima.
//
// Over 200+ random small DAGs, every scheduler must (a) produce a valid
// schedule, (b) report a latency that bit-matches the reference evaluator,
// and (c) never beat the applicable brute-force bound:
//   * single-GPU schedulers (sequential, ios) >= the exact single-GPU
//     stage-partition optimum at the same stage-size cap;
//   * singleton-stage multi-GPU schedulers (inter-lp, inter-mr) >= the
//     exact inter-GPU mapping/ordering optimum.
// Grouped multi-GPU schedules (hios-lp/hios-mr, after Alg. 2) can
// legitimately beat the singleton-stage inter-GPU oracle, so for those only
// (a)/(b) plus the trivial critical-path lower bound apply. Finally, IOS
// with pruning disabled must *equal* the single-GPU optimum — the
// differential that pins the DP against an independent implementation.
#include <gtest/gtest.h>

#include "cost/table_model.h"
#include "models/random_dag.h"
#include "sched/bounds.h"
#include "sched/brute_force.h"
#include "sched/evaluate.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "util/thread_pool.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

graph::Graph small_dag(uint64_t seed, int num_ops) {
  models::RandomDagParams p;
  p.num_ops = num_ops;
  p.num_layers = std::max(2, num_ops / 3);
  p.num_deps = num_ops * 2;
  p.seed = seed;
  return models::random_dag(p);
}

// Checks (a) validity and (b) evaluator agreement for one scheduler run;
// returns the evaluated latency.
double check_and_evaluate(const graph::Graph& g, const std::string& algorithm,
                          const SchedulerConfig& config) {
  const ScheduleResult r = make_scheduler(algorithm)->schedule(g, kCost, config);
  const auto violations = validate_schedule(g, r.schedule);
  EXPECT_TRUE(violations.empty())
      << algorithm << ": " << (violations.empty() ? "" : violations.front());
  const auto eval = evaluate_schedule(g, r.schedule, kCost);
  EXPECT_TRUE(eval.has_value()) << algorithm << ": schedule deadlocks";
  if (eval.has_value()) {
    EXPECT_DOUBLE_EQ(eval->latency_ms, r.latency_ms) << algorithm;
  }
  return r.latency_ms;
}

// N DAGs x 6 schedulers: validity, evaluator agreement, and the
// single-GPU oracle bound where it applies.
void run_single_gpu_oracle_suite(uint64_t num_seeds) {
  SchedulerConfig config;
  config.num_gpus = 2;
  for (uint64_t seed = 1; seed <= num_seeds; ++seed) {
    const int num_ops = 5 + static_cast<int>(seed % 6);  // 5..10 ops
    const graph::Graph g = small_dag(seed, num_ops);
    // Same stage-size cap as the schedulers' default ios_max_stage_ops.
    const double single_oracle =
        optimal_single_gpu_latency(g, kCost, config.ios_max_stage_ops);
    const double lower_bound =
        latency_lower_bounds(g, kCost, config.num_gpus).combined_ms;
    for (const std::string& algorithm : scheduler_names()) {
      const double latency = check_and_evaluate(g, algorithm, config);
      EXPECT_GE(latency + 1e-9, lower_bound) << algorithm << " seed=" << seed;
      if (algorithm == "sequential" || algorithm == "ios") {
        EXPECT_GE(latency + 1e-9, single_oracle) << algorithm << " seed=" << seed;
      }
    }
  }
}

TEST(OracleDiff, AllSchedulersRespectSingleGpuOracle) { run_single_gpu_oracle_suite(140); }

// The same suite with an 8-lane global pool, which schedule() must ignore:
// the identical oracle bounds hold (sched_parallel_test pins that the
// schedules themselves are identical).
TEST(OracleDiff, AllSchedulersRespectSingleGpuOraclePooled) {
  util::ScopedThreads pool(8);
  run_single_gpu_oracle_suite(60);
}

// 60 DAGs small enough for the exponential inter-GPU oracle: the
// singleton-stage schedulers can never beat the exact mapping optimum.
TEST(OracleDiff, SingletonSchedulersRespectInterGpuOracle) {
  SchedulerConfig config;
  config.num_gpus = 2;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const int num_ops = 4 + static_cast<int>(seed % 3);  // 4..6 ops
    const graph::Graph g = small_dag(seed * 977, num_ops);
    const double inter_oracle = optimal_inter_gpu_latency(g, kCost, config.num_gpus);
    for (const std::string& algorithm : {std::string("inter-lp"), std::string("inter-mr")}) {
      const double latency = check_and_evaluate(g, algorithm, config);
      EXPECT_GE(latency + 1e-9, inter_oracle) << algorithm << " seed=" << seed;
    }
  }
}

// IOS with pruning disabled IS the exact DP: equality, not just a bound.
TEST(OracleDiff, UnprunedIosMatchesOracleExactly) {
  SchedulerConfig exact;
  exact.ios_max_stage_ops = 16;
  exact.ios_frontier_cap = 64;
  exact.ios_beam_width = 1 << 20;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const int num_ops = 5 + static_cast<int>(seed % 6);
    const graph::Graph g = small_dag(seed * 31, num_ops);
    const auto ios = make_scheduler("ios")->schedule(g, kCost, exact);
    const double oracle = optimal_single_gpu_latency(g, kCost, 16);
    EXPECT_NEAR(ios.latency_ms, oracle, 1e-9) << seed;
  }
}

// The two oracles agree where their search spaces coincide: with one GPU,
// the inter-GPU oracle is the singleton-stage (max_stage_ops = 1) special
// case of the single-GPU partition oracle.
TEST(OracleDiff, OraclesAgreeOnSingleGpuSingletonCase) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const graph::Graph g = small_dag(seed * 131, 5);
    EXPECT_NEAR(optimal_inter_gpu_latency(g, kCost, 1),
                optimal_single_gpu_latency(g, kCost, 1), 1e-9)
        << seed;
  }
}

}  // namespace
}  // namespace hios::sched
