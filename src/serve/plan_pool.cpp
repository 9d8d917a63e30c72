#include "serve/plan_pool.h"

#include <algorithm>
#include <vector>

#include "util/error.h"
#include "util/thread_pool.h"

namespace hios::serve {

std::shared_ptr<const CachedPlan> PlanPool::plan_for(const ops::Model& model,
                                                     uint32_t mask,
                                                     CacheOutcome* outcome) {
  return cache_.get(model, algorithm_, config_, TopologyVersion{mask}, outcome);
}

std::size_t PlanPool::prewarm(const ops::Model& model, uint32_t mask, uint64_t must_be_zero) {
  HIOS_CHECK(must_be_zero == 0,
             "PlanPool::prewarm: third argument must be 0 (got " << must_be_zero << ")");
  const int width = config_.num_gpus;
  const uint32_t width_mask =
      width >= 32 ? 0xFFFFFFFFu : (1u << static_cast<unsigned>(width)) - 1u;
  const uint32_t current = mask & width_mask;

  std::vector<uint32_t> masks;
  auto enqueue = [&](uint32_t m) {
    if ((m & width_mask) == 0) return;  // no survivor: nothing to plan
    masks.push_back(m);
  };
  enqueue(current);
  for (int g = 0; g < width; ++g) {
    if (current & (1u << g)) enqueue(current & ~(1u << g));
  }
  // After most health transitions every mask is already warm: then no
  // thread is started at all.
  masks = cache_.cold_masks(model, algorithm_, config_, masks);
  if (masks.empty()) return 0;

  // The masks are distinct cache keys, so their cold builds are
  // independent; build them in parallel. Repeat masks across
  // concurrent prewarms coalesce inside the cache (single-flight), so no
  // schedule is computed twice.
  std::vector<char> cold(masks.size(), 0);
  util::global_pool().parallel_for(masks.size(), [&](std::size_t i) {
    CacheOutcome outcome = CacheOutcome::kHit;
    cache_.get(model, algorithm_, config_, TopologyVersion{masks[i]}, &outcome);
    cold[i] = outcome == CacheOutcome::kMiss;
  });
  return static_cast<std::size_t>(std::ranges::count(cold, 1));
}

}  // namespace hios::serve
