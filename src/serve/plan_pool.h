// Survivor-topology plan pool (DESIGN.md §6f).
//
// The ScheduleCache answers "plan for this (model, survivor mask) key"; the
// PlanPool layers serving policy on top of it: which survivor set should be
// planned for *now*, and which should be planned for *next*. Its two jobs:
//
//   * plan_for(model, mask): the plan for the current survivor set — a warm
//     hash lookup whenever the pool (or an earlier request) already built it.
//   * prewarm(model, mask, 0): build the plan for the current survivor set
//     plus every likely next-degraded set — each single-GPU-down subset of
//     the survivors — so when a GPU actually fails, the failover plan is
//     already warm and no request pays a cold residual reschedule.
//
// The pool key is (model, survivor mask): a plan depends on nothing else
// about health. A health transition that removes a GPU therefore discards
// nothing — the new current mask *is* one of the prewarmed keys.
//
// Thread-safe: the pool holds no mutable state of its own; plan builds and
// their hit/miss counters live in the (locking) ScheduleCache, and serving's
// pool counters in serve::Metrics.
#pragma once

#include <cstdint>
#include <string>

#include "ops/model.h"
#include "sched/scheduler.h"
#include "serve/schedule_cache.h"

namespace hios::serve {

/// Plan-pool policy over a ScheduleCache (see file comment).
class PlanPool {
 public:
  PlanPool(ScheduleCache& cache, std::string algorithm, sched::SchedulerConfig config)
      : cache_(cache), algorithm_(std::move(algorithm)), config_(std::move(config)) {}

  /// The plan for the survivor set `mask`; builds cold iff nothing warmed it
  /// first. `outcome`, when non-null, reports how the cache satisfied the
  /// lookup.
  std::shared_ptr<const CachedPlan> plan_for(const ops::Model& model, uint32_t mask,
                                             CacheOutcome* outcome = nullptr);

  /// Ensures warm plans for `mask` and every single-GPU-down subset of it
  /// (skipping subsets with no survivor). Warm masks are filtered out first
  /// by ScheduleCache::cold_masks, which moves no cache counter; the cold
  /// ones are distinct cache keys, so their builds run concurrently through
  /// util::global_pool().parallel_for, which starts no thread at all when
  /// every mask is warm. Each build is one single-threaded schedule() call.
  /// Returns how many cold builds this call performed (0 = everything was
  /// already warm; a build coalesced with another caller's in-flight build
  /// does not count).
  ///
  /// `must_be_zero` must be 0 (checked). It is kept only so that
  /// perfbench/src/serve_workloads.cpp, which calls prewarm(m, mask, 0),
  /// keeps compiling; it goes when the benchmark next changes.
  std::size_t prewarm(const ops::Model& model, uint32_t mask, uint64_t must_be_zero = 0);

 private:
  ScheduleCache& cache_;
  std::string algorithm_;
  sched::SchedulerConfig config_;
};

}  // namespace hios::serve
