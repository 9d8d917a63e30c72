// GPU health tracking for degraded-mode serving (DESIGN.md §6f).
//
// runtime::execute_with_failover is strictly per-request: every request that
// trips over a dead GPU re-discovers it, pays a fresh residual reschedule,
// and the next request does it all again. A serving system must own fault state *once*:
// the first failure marks the GPU down for everyone, later requests are
// planned around it, and a probing loop brings it back when it recovers.
//
// HealthTracker is that shared state machine. serve::Dispatcher feeds it
// the only evidence serving produces — a request's fail-stop observation
// when an outage window kills a GPU it ran on, and the outcome of each
// probe — and it keeps one state per GPU:
//
//            (fail-stop)                (probe backoff elapses)
//   Healthy -------------> Down ---------------------------------> Probing
//      ^                     ^                                         |
//      |                     +--- (probe fails: backoff doubles) ------+
//      +----------------------------- (probe succeeds) ----------------+
//
// Down and Probing GPUs are excluded from `up_mask()`; a GPU only re-enters
// the serving set when a probe succeeds.
//
// Probe scheduling is *seeded-deterministic*: backoff grows exponentially
// with a jitter factor drawn from a per-GPU hios::Rng stream, so two runs
// probe at bit-identical virtual times (the determinism contract, DESIGN.md
// §6e) while distinct GPUs still decorrelate.
//
// generation() bumps whenever up_mask() changes. Plans depend on the
// survivor mask alone (the interconnect is fixed, the paper's §III-B), so
// the mask is the whole plan-pool key and the generation only tells the
// Dispatcher when to prewarm.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/json.h"
#include "util/rng.h"

namespace hios::serve {

/// Health of one GPU. See the state diagram above.
enum class HealthState { kHealthy, kDown, kProbing };

const char* health_state_name(HealthState state);

/// Each failed probe multiplies the backoff by this, up to
/// HealthOptions::probe_max_backoff_ms.
inline constexpr double kProbeBackoffMultiplier = 2.0;
/// Deterministic jitter: each probe delay is scaled by a factor drawn
/// uniformly from [1 - kProbeJitter, 1 + kProbeJitter) out of a per-GPU Rng.
inline constexpr double kProbeJitter = 0.25;

/// Knobs of the health state machine. All times are virtual milliseconds.
struct HealthOptions {
  /// Backoff before the first probe of a freshly Down GPU.
  double probe_backoff_ms = 2.0;
  double probe_max_backoff_ms = 16.0;

  /// Throws hios::Error naming the offending field on invalid values.
  void validate() const;
};

/// One piece of structured fault evidence fed to the tracker.
struct FaultEvidence {
  enum class Kind {
    kFailStop,      ///< a fail-stop observation (GPU is gone)
    kProbeSuccess,  ///< probe outcome: the GPU answered
    kProbeFailure,  ///< probe outcome: still dead
  };
  Kind kind = Kind::kFailStop;
  int gpu = -1;        ///< subject GPU
  double at_ms = 0.0;  ///< virtual time the evidence was observed
};

/// A server-virtual-time window during which one GPU is dead. This is the
/// serving-level chaos script (the per-request fault::FaultPlan replays in
/// each request's own virtual time; an outage lives in the *server's*
/// shared virtual time, so one request's failure is everyone's failure).
struct GpuOutage {
  int gpu = 0;
  double from_ms = 0.0;
  double to_ms = std::numeric_limits<double>::infinity();  ///< inf = never recovers
};

/// Shared per-GPU health state machine. Not internally locked: only
/// serve::Dispatcher mutates it, single-threaded in a trace and under the
/// online lanes' dispatch mutex.
class HealthTracker {
 public:
  explicit HealthTracker(int num_gpus, HealthOptions options = {});

  /// Feeds one piece of evidence through the state machine.
  void observe(const FaultEvidence& evidence);

  /// Moves every Down GPU whose probe is due at/before `now_ms` to
  /// Probing and returns them ordered by (due time, gpu). The caller
  /// performs the probe and reports kProbeSuccess / kProbeFailure.
  std::vector<int> take_due_probes(double now_ms);

  /// Earliest scheduled probe over all Down GPUs (kNever when none).
  double next_probe_due_ms() const;
  /// Scheduled probe time of one GPU (kNever unless Down/Probing).
  double next_probe_ms(int gpu) const;

  HealthState gpu_state(int gpu) const;

  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  /// Bit g set iff GPU g is Healthy.
  uint32_t up_mask() const { return up_mask_; }
  /// True when every GPU may serve traffic.
  bool all_up() const;

  /// Bumps whenever up_mask() changes.
  uint64_t generation() const { return generation_; }

  /// Every state transition the tracker performed, in observation order.
  struct Transition {
    int gpu = -1;
    HealthState from = HealthState::kHealthy;
    HealthState to = HealthState::kHealthy;
    double at_ms = 0.0;
  };
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Deterministic dump: per-GPU states, mask, generation, transition count
  /// (virtual-time quantities only).
  Json to_json() const;

 private:
  struct Node {
    HealthState state = HealthState::kHealthy;
    double next_probe_ms = std::numeric_limits<double>::infinity();
    double backoff_ms = 0.0;  ///< current (pre-jitter) probe backoff
  };

  void transition(int gpu, HealthState to, double at_ms);
  void schedule_probe(int gpu, double at_ms);
  void refresh_mask();

  HealthOptions options_;
  std::vector<Node> gpus_;
  std::vector<Rng> probe_rngs_;  ///< per-GPU deterministic jitter streams
  uint32_t up_mask_ = 0;
  uint64_t generation_ = 0;
  std::vector<Transition> transitions_;
};

}  // namespace hios::serve
