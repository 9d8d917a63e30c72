// Schedule cache: repeat requests skip the scheduling pass entirely.
//
// Scheduling a model is the expensive part of serving it cold: profiling
// plus a HIOS-LP pass costs ~14 ms on a 512-op DAG (DESIGN.md §6d) — far
// more than admitting a request. Schedules depend only on (model structure,
// algorithm, the whole SchedulerConfig) and on which of the platform's GPUs
// they may use, so the cache keys on exactly that tuple (model structure via
// ops::Model::fingerprint, the GPUs via a TopologyVersion's survivor mask),
// and a warm request costs one hash lookup. Entries are immutable
// shared_ptrs: a cached plan can be executed concurrently by every stream
// slot while new models are being profiled.
//
// Survivor masks (DESIGN.md §6f): a plan scheduled across 4 GPUs before a
// failure must not be served after GPU 3 died, so the key carries the
// survivor *mask*, which names exactly which platform GPUs the plan may
// place work on. A plan is built from the platform restricted to that mask
// and nothing else — the interconnect between survivors is the platform's
// own, fixed for the cache's lifetime — so the mask is the whole topology
// part of the key. Keying on the mask itself (not on a health counter)
// means plans prewarmed for a single-GPU-down mask still hit warm after that
// GPU actually fails.
//
// Invalidation (DESIGN.md §6e): a cache instance is bound to one Platform
// at construction; registering a different platform means a different
// cache. Models are value-copied at build time and never mutate, so
// entries live for the cache's lifetime.
//
// Single-flight misses (DESIGN.md §6g): a cold build runs *outside* the
// cache lock — holding it would serialize every cold model behind one
// build and block warm hits meanwhile. Concurrent requests for the same
// key still schedule exactly once: the first caller installs an in-flight
// future and builds; latecomers block on that future (a *coalesced*
// lookup, counted separately from hits and misses). A failed build erases
// the in-flight entry so the key can be retried.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/analytical_model.h"
#include "cost/gpu_spec.h"
#include "ops/model.h"
#include "sched/scheduler.h"
#include "serve/request.h"

namespace hios::serve {

/// Which slice of the platform a plan is allowed to target.
struct TopologyVersion {
  /// Bit g set iff platform GPU g may carry work. kFullMask = all up.
  uint32_t mask = kFullMask;
};

/// One immutable cached scheduling result.
struct CachedPlan {
  cost::ProfiledModel profiled;   ///< graph with weights + matching cost model
  sched::Schedule schedule;
  double latency_ms = 0.0;        ///< evaluated single-request latency
  double scheduling_ms = 0.0;     ///< wall clock of the cold scheduler pass
  double build_ms = 0.0;          ///< wall clock of profile + schedule (cold)
  std::string algorithm;
  /// Platform GPU ids the schedule's devices 0..n-1 map onto, ascending.
  /// For a full-topology plan this is the identity [0, num_gpus).
  std::vector<int> gpus;
  uint32_t topo_mask = kFullMask;  ///< mask the plan was built for (normalised)
};

/// How a ScheduleCache lookup was satisfied.
enum class CacheOutcome {
  kHit,        ///< plan was ready in the cache
  kMiss,       ///< this call ran the cold build
  kCoalesced,  ///< waited on a concurrent call's in-flight build
};

/// Thread-safe (model, algorithm, config, topology) -> plan cache.
class ScheduleCache {
 public:
  explicit ScheduleCache(cost::Platform platform) : platform_(std::move(platform)) {}

  /// Returns the plan for (model.fingerprint(), algorithm, config) on the
  /// survivor subset of the platform named by `topo.mask` (restricted GPU
  /// count and interconnect); the default TopologyVersion is the full
  /// topology. config.num_gpus still names the *full* platform width; the
  /// mask picks survivors out of it.
  /// Misses build outside the lock with single-flight coalescing (see the
  /// file comment). `outcome`, when non-null, reports how the lookup was
  /// satisfied (hit / miss / coalesced).
  std::shared_ptr<const CachedPlan> get(const ops::Model& model,
                                        const std::string& algorithm,
                                        const sched::SchedulerConfig& config,
                                        TopologyVersion topo = {},
                                        CacheOutcome* outcome = nullptr);

  /// The entries of `masks` whose plan (same arguments as get()) is not
  /// built yet, in order; a key still being built counts as cold. One
  /// fingerprint and one lock for all of them, and no counter moves.
  std::vector<uint32_t> cold_masks(const ops::Model& model, const std::string& algorithm,
                                   const sched::SchedulerConfig& config,
                                   std::span<const uint32_t> masks) const;

  std::size_t hits() const;
  std::size_t misses() const;
  /// Lookups that waited on another call's in-flight build.
  std::size_t coalesced() const;
  std::size_t size() const;

  const cost::Platform& platform() const { return platform_; }

 private:
  struct Key {
    uint64_t model_fp = 0;
    sched::SchedulerConfig config;
    uint32_t topo_mask = kFullMask;
    std::string algorithm;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      const sched::SchedulerConfig& c = k.config;
      std::size_t h = k.model_fp;
      for (int field : {c.num_gpus, c.window, c.max_streams, c.ios_max_stage_ops,
                        c.ios_frontier_cap, c.ios_beam_width})
        h = h * 1099511628211ULL ^ static_cast<std::size_t>(field);
      h = h * 1099511628211ULL ^ static_cast<std::size_t>(k.topo_mask);
      h = h * 1099511628211ULL ^ std::hash<std::string>{}(k.algorithm);
      return h;
    }
  };

  /// A ready plan, or the future of one being built by another call.
  struct Slot {
    std::shared_ptr<const CachedPlan> plan;
    std::shared_future<std::shared_ptr<const CachedPlan>> pending;
  };

  /// Checks the arguments and builds their (normalised) key.
  static Key make_key(uint64_t model_fp, const std::string& algorithm,
                      const sched::SchedulerConfig& config, TopologyVersion topo);

  /// Runs the cold build (profile + schedule) for the survivor slice `mask`
  /// (normalised: kFullMask is every GPU). Called without mu_ held.
  std::shared_ptr<const CachedPlan> build_plan(const ops::Model& model,
                                               const std::string& algorithm,
                                               const sched::SchedulerConfig& config,
                                               uint32_t mask);

  cost::Platform platform_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Slot, KeyHash> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t coalesced_ = 0;
};

}  // namespace hios::serve
