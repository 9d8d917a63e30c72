// Planning workloads: back-to-back schedule() calls.
//
//   dag-hios  HIOS-LP and HIOS-MR on the paper's §V-A random layered DAGs
//             (512 ops, 22 layers, 1024 deps, table cost model, 4 GPUs),
//             twelve DAGs per seed.
//   zoo-plan  cold plans (profile_model + one of IOS / HIOS-LP / HIOS-MR)
//             for the five CNNs at the paper's input sizes on the dual-A40
//             NVLink platform.
#include <cmath>
#include <memory>
#include <optional>

#include "core/hios.h"
#include "util/thread_pool.h"
#include "span.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using hios::sched::ScheduleResult;

/// A plan the workload made once, kept for the correctness checks.
struct MadePlan {
  std::string label;
  std::size_t job = 0;  ///< a job index that makes this plan
  const hios::graph::Graph* graph = nullptr;
  const hios::cost::CostModel* cost = nullptr;
  std::shared_ptr<const hios::cost::ProfiledModel> profiled;  ///< owns graph/cost when profiled
  ScheduleResult result;
};

/// Runs a fixed job list in order, cycle after cycle. A job makes one
/// plan; jobs that repeat an earlier job's inputs share its plan id and
/// must reproduce its latency exactly. The loop stops at a cycle boundary
/// once the time is up and every job has run at least once, so the mix of
/// jobs behind each percentile is the same on every run.
class PlanWorkload : public Workload {
 public:
  void setup() override {
    build_inputs();
    made_.resize(num_plans());
    // One untimed plan first: the pool's threads start and lazy
    // allocations happen here rather than in the first timed call.
    make_plan(0);
  }

  LoopStats run(double seconds) override {
    LoopStats stats;
    const double t0 = wall_s();
    double round_start = t0;
    for (std::size_t n = 0;; ++n) {
      const std::size_t job = n % num_jobs();
      const double s = wall_s();
      MadePlan made = make_plan(job);
      stats.op_ms.push_back((wall_s() - s) * 1e3);
      std::optional<MadePlan>& first = made_[plan_id(job)];
      if (!first) {
        loop_tally_.op(!made.result.schedule.gpus.empty(), made.label + ": empty schedule");
        made.job = job;
        first = std::move(made);
      } else {
        // The schedulers are deterministic: a repeat must match exactly.
        loop_tally_.op(made.result.latency_ms == first->result.latency_ms,
                       made.label + ": latency changed between identical calls");
      }
      const std::size_t done = n + 1;
      if (done % cycle_length() != 0) continue;
      const double now = wall_s();
      stats.round_ops_per_s.push_back(static_cast<double>(cycle_length()) / (now - round_start));
      round_start = now;
      if (done >= num_jobs() && now - t0 >= seconds) break;
    }
    return stats;
  }

  void check(Tally& tally) override {
    for (const std::optional<MadePlan>& made : made_) {
      if (!made) {
        tally.check(false, "a plan was never made");
        continue;
      }
      const MadePlan& m = *made;
      const auto& g = *m.graph;
      const auto& cost = *m.cost;
      bool valid = true;
      try {
        hios::sched::check_schedule(g, m.result.schedule);
      } catch (const std::exception&) {
        valid = false;
      }
      tally.check(valid, m.label + ": invalid schedule");
      const auto eval = hios::sched::evaluate_schedule(g, m.result.schedule, cost);
      tally.check(eval && eval->latency_ms == m.result.latency_ms,
                  m.label + ": evaluate_schedule does not reproduce latency_ms");
      const auto sim = hios::sim::simulate_stages(g, m.result.schedule, cost);
      tally.check(sim && std::abs(sim->latency_ms - m.result.latency_ms) <=
                             1e-9 * std::max(1.0, m.result.latency_ms),
                  m.label + ": simulate_stages disagrees with latency_ms");
      // The latency must not depend on the pool size.
      const hios::util::ScopedThreads one(1);
      const MadePlan serial = make_plan(m.job);
      tally.check(serial.result.latency_ms == m.result.latency_ms,
                  m.label + ": latency differs at 1 thread");
    }
  }

  double plan_latency_ms() const override {
    std::vector<double> xs;
    for (const std::optional<MadePlan>& m : made_) {
      if (m) xs.push_back(m->result.latency_ms);
    }
    return geomean(xs);
  }

 protected:
  virtual void build_inputs() = 0;
  /// Jobs in one full pass over the inputs.
  virtual std::size_t num_jobs() const = 0;
  /// Jobs between possible stopping points (divides num_jobs()).
  virtual std::size_t cycle_length() const { return num_jobs(); }
  /// Distinct plans over a full pass, and the plan each job makes.
  virtual std::size_t num_plans() const { return num_jobs(); }
  virtual std::size_t plan_id(std::size_t job) const { return job; }
  virtual MadePlan make_plan(std::size_t job) = 0;

  static ScheduleResult schedule(const std::string& algorithm, const hios::graph::Graph& g,
                                 const hios::cost::CostModel& cost,
                                 const hios::sched::SchedulerConfig& config) {
    const Span span("sched.schedule");
    return hios::sched::make_scheduler(algorithm)->schedule(g, cost, config);
  }

 private:
  std::vector<std::optional<MadePlan>> made_;  ///< first plan per plan id
};

// --- dag-hios ---------------------------------------------------------------

class DagHios final : public PlanWorkload {
 public:
  explicit DagHios(const Options& o) : options_(o) {}

 private:
  void build_inputs() override {
    for (int i = 0; i < kGraphs; ++i) {
      hios::models::RandomDagParams p;
      p.num_ops = 512;
      p.num_layers = 22;
      p.num_deps = 1024;
      p.seed = options_.seed * 1000 + static_cast<uint64_t>(i);
      graphs_.push_back(hios::models::random_dag(p));
    }
    config_.num_gpus = 4;
  }

  // Every graph gets HIOS-LP and every other graph also HIOS-MR: 2:1 keeps
  // the median inside the HIOS-LP times and p90 inside the HIOS-MR ones,
  // rather than on the gap between the two.
  static constexpr int kGraphs = 12;

  std::size_t num_jobs() const override { return graphs_.size() * 3 / 2; }

  MadePlan make_plan(std::size_t job) override {
    MadePlan m;
    const std::size_t gi = job < graphs_.size() ? job : (job - graphs_.size()) * 2;
    const char* alg = job < graphs_.size() ? "hios-lp" : "hios-mr";
    m.label = std::string("dag ") + std::to_string(gi) + " " + alg;
    m.graph = &graphs_[gi];
    m.cost = &cost_;
    m.result = schedule(alg, graphs_[gi], cost_, config_);
    return m;
  }

  Options options_;
  std::vector<hios::graph::Graph> graphs_;
  hios::cost::TableCostModel cost_;
  hios::sched::SchedulerConfig config_;
};

// --- zoo-plan ---------------------------------------------------------------

class ZooPlan final : public PlanWorkload {
 public:
  explicit ZooPlan(const Options& o) : options_(o) {}

 private:
  // A cycle plans the five CNNs (RandWire with the paper's wiring) with
  // each algorithm, then one seeded RandWire wiring with HIOS-LP and
  // HIOS-MR; consecutive cycles rotate through kWirings wirings. IOS is
  // kept on the fixed wiring: its DP cost ranges over 10x between wirings,
  // which would make the tail percentiles a property of the seed.
  static constexpr std::size_t kWirings = 16;
  static constexpr std::size_t kFixed = 5;
  static constexpr std::size_t kPerCycle = kFixed * 3 + 2;
  static constexpr const char* kAlgorithms[3] = {"ios", "hios-lp", "hios-mr"};

  void build_inputs() override {
    using namespace hios::models;
    models_.push_back(make_inception_v3());
    models_.push_back(make_nasnet());
    models_.push_back(make_resnet50());
    models_.push_back(make_squeezenet());
    models_.push_back(make_randwire());
    for (std::size_t k = 0; k < kWirings; ++k) {
      RandwireOptions rw;
      rw.seed = options_.seed * 100 + k + 2;  // never the paper's wiring (seed 1)
      models_.push_back(make_randwire(rw));
    }
    platform_ = hios::cost::make_dual_a40_nvlink();
    config_.num_gpus = 2;
  }

  std::size_t num_jobs() const override { return kWirings * kPerCycle; }
  std::size_t cycle_length() const override { return kPerCycle; }
  std::size_t num_plans() const override { return kFixed * 3 + kWirings * 2; }
  std::size_t plan_id(std::size_t job) const override {
    const std::size_t slot = job % kPerCycle;
    return slot < kFixed * 3 ? slot : kFixed * 3 + (job / kPerCycle) * 2 + (slot - kFixed * 3);
  }
  std::size_t model_of(std::size_t job) const {
    const std::size_t slot = job % kPerCycle;
    return slot < kFixed * 3 ? slot / 3 : kFixed + job / kPerCycle;
  }
  const char* algorithm_of(std::size_t job) const {
    const std::size_t slot = job % kPerCycle;
    return slot < kFixed * 3 ? kAlgorithms[slot % 3] : kAlgorithms[1 + slot - kFixed * 3];
  }

  MadePlan make_plan(std::size_t job) override {
    const hios::ops::Model& model = models_[model_of(job)];
    const char* alg = algorithm_of(job);
    MadePlan m;
    {
      const Span span("cost.profile");
      m.profiled = std::make_shared<hios::cost::ProfiledModel>(
          hios::cost::profile_model(model, platform_));
    }
    m.label = model.name() + " " + alg;
    m.graph = &m.profiled->graph;
    m.cost = m.profiled->cost.get();
    m.result = schedule(alg, *m.graph, *m.cost, config_);
    return m;
  }

  Options options_;
  std::vector<hios::ops::Model> models_;
  hios::cost::Platform platform_;
  hios::sched::SchedulerConfig config_;
};

}  // namespace

std::unique_ptr<Workload> make_dag_hios(const Options& o) { return std::make_unique<DagHios>(o); }
std::unique_ptr<Workload> make_zoo_plan(const Options& o) { return std::make_unique<ZooPlan>(o); }

}  // namespace perfbench
