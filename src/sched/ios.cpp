#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sched/placement.h"
#include "util/error.h"
#include "util/rng.h"

namespace hios::sched {

namespace {

using Word = uint64_t;

/// The DP table. State s is the down-set stored as `words_per_state` words
/// at done[s * words_per_state]; its best latency, predecessor state and the
/// stage appended to reach it live in parallel vectors, the stage as a slice
/// of one op pool. `slots` is an open-addressing index (linear probing) of
/// state ids by Zobrist hash.
struct DownSetTable {
  explicit DownSetTable(std::size_t words) : words_per_state(words), slots(1024, -1) {}

  const Word* words(int s) const {
    return done.data() + static_cast<std::size_t>(s) * words_per_state;
  }

  /// Applies one transition: the down-set `next` (hash `h`) is reached from
  /// `from` by appending `stage` at latency `total`. Inserts it as a new
  /// state, returned as its id, or lowers an existing state's latency on a
  /// strict improvement and returns -1.
  int merge(int from, double total, uint64_t h, const Word* next,
            std::span<const graph::NodeId> stage) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = h & mask;
    for (; slots[i] >= 0; i = (i + 1) & mask) {
      const int s = slots[i];
      if (hash[static_cast<std::size_t>(s)] != h ||
          std::memcmp(words(s), next, words_per_state * sizeof(Word)) != 0)
        continue;
      if (total < latency[static_cast<std::size_t>(s)]) {
        latency[static_cast<std::size_t>(s)] = total;
        set_step(s, from, stage);
      }
      return -1;
    }
    const int s = static_cast<int>(hash.size());
    slots[i] = s;
    done.insert(done.end(), next, next + words_per_state);
    hash.push_back(h);
    latency.push_back(total);
    parent.emplace_back();
    stage_begin.emplace_back();
    stage_len.emplace_back();
    set_step(s, from, stage);
    if (2 * hash.size() > slots.size()) grow();
    return s;
  }

  void set_step(int s, int from, std::span<const graph::NodeId> stage) {
    const auto i = static_cast<std::size_t>(s);
    parent[i] = from;
    stage_begin[i] = static_cast<uint32_t>(stage_pool.size());
    stage_len[i] = static_cast<uint32_t>(stage.size());
    stage_pool.insert(stage_pool.end(), stage.begin(), stage.end());
  }

  std::span<const graph::NodeId> stage(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return {stage_pool.data() + stage_begin[i], stage_len[i]};
  }

  void grow() {
    slots.assign(2 * slots.size(), -1);
    const std::size_t mask = slots.size() - 1;
    for (std::size_t s = 0; s < hash.size(); ++s) {
      std::size_t i = hash[s] & mask;
      while (slots[i] >= 0) i = (i + 1) & mask;
      slots[i] = static_cast<int>(s);
    }
  }

  std::size_t words_per_state;
  std::vector<Word> done;
  std::vector<uint64_t> hash;
  std::vector<double> latency;
  std::vector<int> parent;
  std::vector<uint32_t> stage_begin;
  std::vector<uint32_t> stage_len;
  std::vector<graph::NodeId> stage_pool;
  std::vector<int> slots;  ///< state id, or -1 when empty; size is a power of 2
};

}  // namespace

Schedule place_ios(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                   const SchedulerConfig& config) {
  const graph::Graph& g = cg.graph();
  const std::size_t n = g.num_nodes();
  if (n == 0) return Schedule(1);
  const std::vector<double>& priority = cg.priority();
  const std::size_t W = (n + 63) / 64;

  // Zobrist keys: a down-set hashes to the XOR of its ops' keys, so adding
  // one op to a stage updates the hash with one XOR.
  std::vector<uint64_t> key(n);
  Rng rng;
  for (uint64_t& k : key) k = rng.next_u64();
  // Per-node predecessor masks, W words each, to test readiness quickly.
  std::vector<Word> preds(n * W, 0);
  for (const graph::Edge& e : g.edges()) {
    const auto src = static_cast<std::size_t>(e.src);
    preds[static_cast<std::size_t>(e.dst) * W + src / 64] |= Word{1} << (src % 64);
  }

  DownSetTable table(W);
  std::vector<std::vector<int>> by_size(n + 1);
  const std::vector<Word> empty(W, 0);
  by_size[0].push_back(table.merge(-1, 0.0, 0, empty.data(), {}));

  const int max_stage = std::max(1, std::min(config.ios_max_stage_ops, config.max_streams));
  const std::size_t frontier_cap = static_cast<std::size_t>(std::max(1, config.ios_frontier_cap));
  const std::size_t beam = static_cast<std::size_t>(std::max(1, config.ios_beam_width));

  std::vector<Word> next(W);  // down-set of the transition being enumerated
  std::vector<graph::NodeId> ready;
  std::vector<graph::NodeId> stage;
  for (std::size_t size = 0; size < n; ++size) {
    auto& bucket = by_size[size];
    if (bucket.empty()) continue;
    // Beam pruning: expand only the best `beam` states of this size.
    std::sort(bucket.begin(), bucket.end(), [&](int a, int b) {
      return table.latency[static_cast<std::size_t>(a)] <
             table.latency[static_cast<std::size_t>(b)];
    });

    // Expanding a state only reaches strictly larger down-sets, so neither
    // the bucket being walked nor the expanded state changes underneath
    // this loop.
    const std::size_t expand = std::min(beam, bucket.size());
    for (std::size_t rank = 0; rank < expand; ++rank) {
      const int sid = bucket[rank];
      std::copy_n(table.words(sid), W, next.begin());

      // Ready frontier of this state (all preds done, itself not done).
      ready.clear();
      for (std::size_t w = 0; w < W; ++w) {
        for (Word todo = ~next[w]; todo != 0; todo &= todo - 1) {
          const std::size_t v = w * 64 + static_cast<std::size_t>(__builtin_ctzll(todo));
          if (v >= n) break;
          const Word* pv = preds.data() + v * W;
          std::size_t i = 0;
          while (i < W && (pv[i] & ~next[i]) == 0) ++i;
          if (i == W) ready.push_back(static_cast<graph::NodeId>(v));
        }
      }
      HIOS_ASSERT(!ready.empty(), "non-full state with empty frontier");
      if (ready.size() > frontier_cap) {
        std::sort(ready.begin(), ready.end(), [&](graph::NodeId a, graph::NodeId b) {
          return priority[static_cast<std::size_t>(a)] > priority[static_cast<std::size_t>(b)];
        });
        ready.resize(frontier_cap);
      }

      // Enumerate non-empty subsets of `ready` up to max_stage ops, merging
      // each transition as it is produced. Ready ops are pairwise
      // independent by construction, so every subset is a legal stage.
      const double base = table.latency[static_cast<std::size_t>(sid)];
      auto recurse = [&](auto&& self, std::size_t from, uint64_t h) -> void {
        if (!stage.empty()) {
          const double t = cost.stage_time(g, std::span<const graph::NodeId>(stage));
          const int added = table.merge(sid, base + t, h, next.data(), stage);
          if (added >= 0) by_size[size + stage.size()].push_back(added);
        }
        if (stage.size() >= static_cast<std::size_t>(max_stage)) return;
        for (std::size_t i = from; i < ready.size(); ++i) {
          const auto v = static_cast<std::size_t>(ready[i]);
          stage.push_back(ready[i]);
          next[v / 64] ^= Word{1} << (v % 64);
          self(self, i + 1, h ^ key[v]);
          next[v / 64] ^= Word{1} << (v % 64);
          stage.pop_back();
        }
      };
      recurse(recurse, 0, table.hash[static_cast<std::size_t>(sid)]);
    }
  }

  // Reconstruct the best full state.
  int best = -1;
  for (int sid : by_size[n]) {
    if (best < 0 || table.latency[static_cast<std::size_t>(sid)] <
                        table.latency[static_cast<std::size_t>(best)])
      best = sid;
  }
  HIOS_ASSERT(best >= 0, "IOS never reached the full state");

  std::vector<int> path;
  for (int sid = best; sid > 0; sid = table.parent[static_cast<std::size_t>(sid)])
    path.push_back(sid);

  Schedule schedule(1);
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const auto ops = table.stage(*it);
    schedule.gpus[0].push_back(Stage{std::vector<graph::NodeId>(ops.begin(), ops.end())});
  }
  return schedule;
}

}  // namespace hios::sched
