#include "serve/health.h"

#include <algorithm>

#include "util/error.h"

namespace hios::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDown: return "down";
    case HealthState::kProbing: return "probing";
  }
  return "unknown";
}

void HealthOptions::validate() const {
  HIOS_CHECK(probe_backoff_ms > 0.0,
             "HealthOptions.probe_backoff_ms must be > 0 (got " << probe_backoff_ms << ")");
  HIOS_CHECK(probe_max_backoff_ms >= probe_backoff_ms,
             "HealthOptions.probe_max_backoff_ms must be >= probe_backoff_ms (got "
                 << probe_max_backoff_ms << " < " << probe_backoff_ms << ")");
}

HealthTracker::HealthTracker(int num_gpus, HealthOptions options)
    : options_(options) {
  HIOS_CHECK(num_gpus >= 1 && num_gpus <= 32,
             "HealthTracker: num_gpus must be in [1, 32] (got " << num_gpus << ")");
  options_.validate();
  gpus_.resize(static_cast<std::size_t>(num_gpus));
  probe_rngs_.reserve(static_cast<std::size_t>(num_gpus));
  for (int g = 0; g < num_gpus; ++g) {
    // Per-GPU jitter streams: fixed, decorrelated across GPUs
    // (SplitMix64-style odd-multiplier spread).
    probe_rngs_.emplace_back(0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(g + 1));
  }
  refresh_mask();
  generation_ = 0;  // the initial mask computation is not a transition
}

void HealthTracker::refresh_mask() {
  uint32_t mask = 0;
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    if (gpus_[g].state == HealthState::kHealthy) mask |= (1u << g);
  }
  if (mask != up_mask_) {
    up_mask_ = mask;
    ++generation_;
  }
}

void HealthTracker::transition(int gpu, HealthState to, double at_ms) {
  Node& node = gpus_[static_cast<std::size_t>(gpu)];
  if (node.state == to) return;
  transitions_.push_back(Transition{gpu, node.state, to, at_ms});
  node.state = to;
  refresh_mask();
}

void HealthTracker::schedule_probe(int gpu, double at_ms) {
  Node& node = gpus_[static_cast<std::size_t>(gpu)];
  Rng& rng = probe_rngs_[static_cast<std::size_t>(gpu)];
  node.next_probe_ms =
      at_ms + node.backoff_ms * (1.0 - kProbeJitter + 2.0 * kProbeJitter * rng.canonical());
}

void HealthTracker::observe(const FaultEvidence& evidence) {
  const int g = evidence.gpu;
  HIOS_CHECK(g >= 0 && g < num_gpus(), "FaultEvidence: gpu " << g << " out of range");
  Node& node = gpus_[static_cast<std::size_t>(g)];
  switch (evidence.kind) {
    case FaultEvidence::Kind::kFailStop:
      if (node.state == HealthState::kDown) return;
      transition(g, HealthState::kDown, evidence.at_ms);
      node.backoff_ms = options_.probe_backoff_ms;
      schedule_probe(g, evidence.at_ms);
      break;
    case FaultEvidence::Kind::kProbeSuccess:
      transition(g, HealthState::kHealthy, evidence.at_ms);
      node.backoff_ms = 0.0;
      node.next_probe_ms = kInf;
      break;
    case FaultEvidence::Kind::kProbeFailure:
      transition(g, HealthState::kDown, evidence.at_ms);
      node.backoff_ms = std::min(node.backoff_ms * kProbeBackoffMultiplier,
                                 options_.probe_max_backoff_ms);
      if (node.backoff_ms <= 0.0) node.backoff_ms = options_.probe_backoff_ms;
      schedule_probe(g, evidence.at_ms);
      break;
  }
}

std::vector<int> HealthTracker::take_due_probes(double now_ms) {
  std::vector<std::pair<double, int>> due;
  for (int g = 0; g < num_gpus(); ++g) {
    const Node& node = gpus_[static_cast<std::size_t>(g)];
    if (node.state == HealthState::kDown && node.next_probe_ms <= now_ms) {
      due.emplace_back(node.next_probe_ms, g);
    }
  }
  std::sort(due.begin(), due.end());
  std::vector<int> out;
  out.reserve(due.size());
  for (const auto& [at, g] : due) {
    transition(g, HealthState::kProbing, at);
    out.push_back(g);
  }
  return out;
}

double HealthTracker::next_probe_due_ms() const {
  double next = kInf;
  for (const Node& node : gpus_) {
    if (node.state == HealthState::kDown) next = std::min(next, node.next_probe_ms);
  }
  return next;
}

double HealthTracker::next_probe_ms(int gpu) const {
  HIOS_CHECK(gpu >= 0 && gpu < num_gpus(), "next_probe_ms: gpu " << gpu << " out of range");
  const Node& node = gpus_[static_cast<std::size_t>(gpu)];
  return node.state == HealthState::kHealthy ? kInf : node.next_probe_ms;
}

HealthState HealthTracker::gpu_state(int gpu) const {
  HIOS_CHECK(gpu >= 0 && gpu < num_gpus(), "gpu_state: gpu " << gpu << " out of range");
  return gpus_[static_cast<std::size_t>(gpu)].state;
}

bool HealthTracker::all_up() const {
  return up_mask_ == (num_gpus() >= 32 ? 0xFFFFFFFFu : (1u << num_gpus()) - 1u);
}

Json HealthTracker::to_json() const {
  Json j = Json::object();
  Json gpus = Json::array();
  for (int g = 0; g < num_gpus(); ++g) {
    Json e = Json::object();
    e["gpu"] = g;
    e["state"] = health_state_name(gpus_[static_cast<std::size_t>(g)].state);
    gpus.push_back(std::move(e));
  }
  j["gpus"] = std::move(gpus);
  j["up_mask"] = static_cast<int64_t>(up_mask_);
  j["generation"] = static_cast<int64_t>(generation_);
  j["transitions"] = static_cast<int64_t>(transitions_.size());
  return j;
}

}  // namespace hios::serve
