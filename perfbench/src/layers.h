// The traced layer sweep: per-layer metrics measured by wrapping the
// library's public calls in spans, on inputs derived from the seed.
#pragma once

#include "checks.h"
#include "util/json.h"
#include "workload.h"

namespace perfbench {

/// Runs every layer probe with span recording on and adds the per-layer
/// metrics to `metrics` (name -> {value, unit}).
void run_layer_sweep(const Options& options, hios::Json& metrics, Tally& tally);

}  // namespace perfbench
