// Correctness bookkeeping shared by every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

/// Counts operations attempted and failed. A failed correctness check
/// counts as a failed operation; its message is kept for the report.
class Tally {
 public:
  /// Records one operation and whether it succeeded.
  void op(bool ok, const std::string& what = "");
  /// Records one correctness check (counted as an operation too).
  void check(bool ok, const std::string& what) { op(ok, what); }
  void merge(const Tally& other);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;  ///< first few failure messages
};

/// The serving conservation laws, checked on serve::Metrics::to_json():
///   submitted = admitted + rejected + breaker_rejected
///   admitted  = completed + dropped + failed
///   cache lookups = hits + misses + coalesced
/// `cache_lookups` is counted by the caller (the JSON has no lookup
/// total). Returns one message per violated law; empty means conserved.
std::vector<std::string> conservation_violations(const hios::Json& metrics,
                                                 int64_t cache_lookups);

}  // namespace perfbench
