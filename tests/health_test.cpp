// HealthTracker state machine: transitions, probe backoff and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "serve/health.h"
#include "util/error.h"

namespace hios::serve {
namespace {

FaultEvidence ev(FaultEvidence::Kind kind, int gpu, double at_ms) {
  FaultEvidence e;
  e.kind = kind;
  e.gpu = gpu;
  e.at_ms = at_ms;
  return e;
}

/// The next probe of `gpu` is `backoff_ms` after `from_ms`, scaled by a
/// jitter factor in [1 - kProbeJitter, 1 + kProbeJitter).
void expect_probe_after(const HealthTracker& t, int gpu, double from_ms, double backoff_ms) {
  const double next = t.next_probe_ms(gpu);
  EXPECT_GE(next, from_ms + (1.0 - kProbeJitter) * backoff_ms) << "backoff " << backoff_ms;
  EXPECT_LT(next, from_ms + (1.0 + kProbeJitter) * backoff_ms) << "backoff " << backoff_ms;
}

TEST(HealthTracker, FailStopGoesStraightToDown) {
  HealthTracker t(4);
  EXPECT_EQ(t.up_mask(), 0b1111u);
  EXPECT_TRUE(t.all_up());
  EXPECT_EQ(t.generation(), 0u);

  t.observe(ev(FaultEvidence::Kind::kFailStop, 2, 5.0));
  EXPECT_EQ(t.gpu_state(2), HealthState::kDown);
  EXPECT_EQ(t.up_mask(), 0b1011u);
  EXPECT_FALSE(t.all_up());
  EXPECT_EQ(t.generation(), 1u);
  ASSERT_EQ(t.transitions().size(), 1u);
  EXPECT_EQ(t.transitions()[0].to, HealthState::kDown);
  EXPECT_EQ(t.transitions()[0].at_ms, 5.0);

  // A second fail-stop on the same GPU is idempotent.
  t.observe(ev(FaultEvidence::Kind::kFailStop, 2, 6.0));
  EXPECT_EQ(t.transitions().size(), 1u);
  EXPECT_EQ(t.generation(), 1u);
}

TEST(HealthTracker, ProbeLifecycleWithExponentialBackoff) {
  HealthOptions opt;
  opt.probe_backoff_ms = 2.0;
  opt.probe_max_backoff_ms = 16.0;
  HealthTracker t(2, opt);

  // The jittered ranges of backoffs 2, 4, 8 and 16 are disjoint, so each
  // check pins one doubling (kProbeBackoffMultiplier) or the cap.
  t.observe(ev(FaultEvidence::Kind::kFailStop, 0, 10.0));
  expect_probe_after(t, 0, 10.0, 2.0);
  EXPECT_EQ(t.next_probe_due_ms(), t.next_probe_ms(0));
  double due_at = t.next_probe_ms(0);
  EXPECT_TRUE(t.take_due_probes(std::nextafter(due_at, 0.0)).empty()) << "probe not due yet";

  auto due = t.take_due_probes(due_at);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 0);
  EXPECT_EQ(t.gpu_state(0), HealthState::kProbing);
  EXPECT_EQ(t.up_mask(), 0b10u) << "probing GPUs take no traffic";

  // Failed probes: down again, backoff doubles (2 -> 4 -> 8 -> 16) and
  // stays at probe_max_backoff_ms.
  for (double backoff : {4.0, 8.0, 16.0, 16.0}) {
    t.observe(ev(FaultEvidence::Kind::kProbeFailure, 0, due_at));
    EXPECT_EQ(t.gpu_state(0), HealthState::kDown);
    expect_probe_after(t, 0, due_at, backoff);
    due_at = t.next_probe_ms(0);
    ASSERT_EQ(t.take_due_probes(due_at).size(), 1u);
  }

  t.observe(ev(FaultEvidence::Kind::kProbeSuccess, 0, due_at));
  EXPECT_EQ(t.gpu_state(0), HealthState::kHealthy);
  EXPECT_TRUE(t.all_up());
  EXPECT_TRUE(std::isinf(t.next_probe_due_ms()));
  EXPECT_TRUE(std::isinf(t.next_probe_ms(0)));

  // Backoff resets: a fresh failure starts from probe_backoff_ms again.
  t.observe(ev(FaultEvidence::Kind::kFailStop, 0, 100.0));
  expect_probe_after(t, 0, 100.0, 2.0);
}

TEST(HealthTracker, ProbeTimesAreSeedDeterministic) {
  auto run = [] {
    HealthTracker t(4);
    std::vector<double> times;
    t.observe(ev(FaultEvidence::Kind::kFailStop, 1, 0.0));
    t.observe(ev(FaultEvidence::Kind::kFailStop, 3, 0.5));
    for (int i = 0; i < 6; ++i) {
      const double due = t.next_probe_due_ms();
      times.push_back(due);
      for (int g : t.take_due_probes(due)) {
        t.observe(ev(FaultEvidence::Kind::kProbeFailure, g, due));
      }
    }
    return times;
  };
  EXPECT_EQ(run(), run()) << "every run must probe at bit-identical times";
}

TEST(HealthTracker, PerGpuJitterStreamsDecorrelate) {
  HealthTracker t(2);
  t.observe(ev(FaultEvidence::Kind::kFailStop, 0, 0.0));
  t.observe(ev(FaultEvidence::Kind::kFailStop, 1, 0.0));
  EXPECT_NE(t.next_probe_ms(0), t.next_probe_ms(1))
      << "both GPUs failed at t=0 but must not probe in lockstep";
}

TEST(HealthTracker, TakeDueProbesOrdersByDueTimeThenGpu) {
  HealthTracker t(4);
  t.observe(ev(FaultEvidence::Kind::kFailStop, 3, 1.0));
  t.observe(ev(FaultEvidence::Kind::kFailStop, 1, 0.0));
  t.observe(ev(FaultEvidence::Kind::kFailStop, 2, 0.0));
  std::vector<std::pair<double, int>> expected;
  for (int g : {1, 2, 3}) expected.emplace_back(t.next_probe_ms(g), g);
  std::sort(expected.begin(), expected.end());
  const auto due = t.take_due_probes(10.0);
  ASSERT_EQ(due.size(), 3u);
  for (std::size_t i = 0; i < due.size(); ++i) EXPECT_EQ(due[i], expected[i].second);
}

TEST(HealthTracker, ToJsonDumpsStatesAndCounters) {
  HealthTracker t(2);
  t.observe(ev(FaultEvidence::Kind::kFailStop, 1, 1.0));
  const Json j = t.to_json();
  EXPECT_EQ(j.at("gpus").as_array().size(), 2u);
  EXPECT_EQ(j.at("gpus").as_array()[1].at("state").as_string(), "down");
  EXPECT_EQ(j.at("up_mask").as_int(), 0b01);
  EXPECT_EQ(j.at("generation").as_int(), 1);
  EXPECT_EQ(j.at("transitions").as_int(), 1);
}

TEST(HealthTracker, RejectsInvalidOptionsAndRanges) {
  HealthOptions bad;
  bad.probe_backoff_ms = 0.0;
  EXPECT_THROW(HealthTracker(2, bad), Error);

  bad = HealthOptions{};
  bad.probe_max_backoff_ms = 0.5;  // < probe_backoff_ms
  EXPECT_THROW(HealthTracker(2, bad), Error);

  EXPECT_THROW(HealthTracker(0), Error);
  EXPECT_THROW(HealthTracker(33), Error);

  HealthTracker t(2);
  EXPECT_THROW(t.observe(ev(FaultEvidence::Kind::kFailStop, 2, 0.0)), Error);
  EXPECT_THROW(t.observe(ev(FaultEvidence::Kind::kProbeSuccess, -1, 0.0)), Error);
  EXPECT_THROW(t.gpu_state(-1), Error);
}

}  // namespace
}  // namespace hios::serve
