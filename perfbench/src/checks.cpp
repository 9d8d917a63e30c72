#include "checks.h"

namespace perfbench {

void Tally::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(what);
}

void Tally::merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& e : other.errors_) {
    if (errors_.size() < 8) errors_.push_back(e);
  }
}

std::vector<std::string> conservation_violations(const hios::Json& metrics,
                                                 int64_t cache_lookups) {
  std::vector<std::string> out;
  const hios::Json& c = metrics.at("counters");
  const hios::Json& cache = metrics.at("schedule_cache");
  auto n = [](const hios::Json& j, const char* key) { return j.at(key).as_int(); };
  const int64_t submitted = n(c, "submitted"), admitted = n(c, "admitted");
  if (submitted != admitted + n(c, "rejected") + n(c, "breaker_rejected")) {
    out.push_back("submitted != admitted + rejected + breaker_rejected");
  }
  if (admitted != n(c, "completed") + n(c, "dropped") + n(c, "failed")) {
    out.push_back("admitted != completed + dropped + failed");
  }
  if (cache_lookups != n(cache, "hits") + n(cache, "misses") + n(cache, "coalesced")) {
    out.push_back("cache lookups != hits + misses + coalesced");
  }
  return out;
}

}  // namespace perfbench
