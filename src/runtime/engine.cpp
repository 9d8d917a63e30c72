#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "ops/kernels.h"
#include "runtime/channel.h"
#include "sched/validate.h"
#include "sim/fault_sim.h"
#include "util/rng.h"

namespace hios::runtime {

namespace {

/// A tensor in flight between vGPUs, stamped with its virtual arrival time
/// (producer stage finish + modelled transfer, including any fault retries).
/// A transfer whose retry budget runs out closes its channel instead.
struct Message {
  std::shared_ptr<const ops::Tensor> tensor;
  double ready_ms = 0.0;
};

}  // namespace

ops::Tensor make_input_tensor(const ops::Model& model, ops::OpId input_id) {
  HIOS_CHECK(model.is_input(input_id), "op " << input_id << " is not a model input");
  ops::Tensor tensor(model.output_shape(input_id));
  Rng rng(0x5eedULL + static_cast<uint64_t>(input_id));
  for (std::size_t i = 0; i < tensor.size(); ++i)
    tensor.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return tensor;
}

std::map<ops::OpId, ops::Tensor> execute_reference(
    const ops::Model& model, const std::map<ops::OpId, ops::Tensor>& inputs) {
  std::map<ops::OpId, ops::Tensor> results;
  // Model op ids are already topologically ordered (inputs precede users).
  for (ops::OpId id = 0; id < model.num_ops(); ++id) {
    if (model.is_input(id)) {
      auto it = inputs.find(id);
      results.emplace(id, it != inputs.end() ? it->second : make_input_tensor(model, id));
      continue;
    }
    std::vector<const ops::Tensor*> in_tensors;
    for (ops::OpId in : model.inputs(id)) in_tensors.push_back(&results.at(in));
    results.emplace(id, ops::execute_op(model.op(id), in_tensors,
                                        static_cast<uint64_t>(id)));
  }
  // Drop the input placeholders from the returned map.
  for (ops::OpId in : model.input_ids()) results.erase(in);
  return results;
}

ExecutionResult execute_schedule(const ops::Model& model, const graph::Graph& graph,
                                 const sched::Schedule& schedule,
                                 const cost::CostModel& cost,
                                 const std::map<ops::OpId, ops::Tensor>& inputs,
                                 const ExecOptions& options) {
  sched::check_schedule(graph, schedule);
  const std::size_t n = graph.num_nodes();
  const std::vector<int> gpu_of = schedule.gpu_assignment(n);
  const fault::FaultPlan no_faults;
  const fault::FaultPlan& plan = options.faults ? *options.faults : no_faults;

  const auto deadline =
      options.watchdog_ms > 0.0
          ? std::chrono::steady_clock::now() +
                std::chrono::milliseconds(static_cast<int64_t>(options.watchdog_ms))
          : std::chrono::steady_clock::time_point::max();

  // node <-> op id maps (graph node tags index into the model).
  std::vector<ops::OpId> op_of(n);
  std::unordered_map<ops::OpId, graph::NodeId> node_of;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(n); ++v) {
    op_of[static_cast<std::size_t>(v)] = static_cast<ops::OpId>(graph.node_tag(v));
    HIOS_CHECK(op_of[static_cast<std::size_t>(v)] >= 0 &&
                   op_of[static_cast<std::size_t>(v)] < model.num_ops(),
               "graph node " << v << " has no valid model op tag");
    node_of[op_of[static_cast<std::size_t>(v)]] = v;
  }

  // Shared read-only model inputs.
  std::map<ops::OpId, std::shared_ptr<const ops::Tensor>> shared_inputs;
  for (ops::OpId in : model.input_ids()) {
    auto it = inputs.find(in);
    shared_inputs[in] = std::make_shared<const ops::Tensor>(
        it != inputs.end() ? it->second : make_input_tensor(model, in));
  }

  // One channel per cross-GPU edge (matched MPI send/recv pairs), plus —
  // for the hang-proofing protocol — each GPU's outgoing channels grouped
  // by the stage that sends on them: a worker that stops early (fault,
  // blocked dependency, or exception) closes every channel from its stop
  // stage onward so consumers unblock instead of waiting forever. Closing
  // an already-sent channel is harmless: buffered messages drain first.
  std::unordered_map<graph::EdgeId, std::unique_ptr<Channel<Message>>> channels;
  const std::vector<int> stage_of = schedule.stage_index(n);
  std::vector<std::vector<std::vector<Channel<Message>*>>> out_channels(
      static_cast<std::size_t>(schedule.num_gpus));
  for (int g = 0; g < schedule.num_gpus; ++g)
    out_channels[static_cast<std::size_t>(g)].resize(
        schedule.gpus[static_cast<std::size_t>(g)].size());
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(graph.num_edges()); ++e) {
    const graph::Edge& edge = graph.edge(e);
    const int src_gpu = gpu_of[static_cast<std::size_t>(edge.src)];
    if (src_gpu == gpu_of[static_cast<std::size_t>(edge.dst)]) continue;
    auto chan = std::make_unique<Channel<Message>>();
    out_channels[static_cast<std::size_t>(src_gpu)]
                [static_cast<std::size_t>(stage_of[static_cast<std::size_t>(edge.src)])]
                    .push_back(chan.get());
    channels.emplace(e, std::move(chan));
  }

  // Every time, event and observation comes from the worker's VirtualGpu;
  // the worker itself moves tensors. Each worker writes only its own nodes'
  // slots of `produced`.
  std::vector<sim::VirtualGpu> vgpus;
  vgpus.reserve(static_cast<std::size_t>(schedule.num_gpus));
  for (int i = 0; i < schedule.num_gpus; ++i) vgpus.emplace_back(graph, cost, plan, i);
  std::vector<std::shared_ptr<const ops::Tensor>> produced(n);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(schedule.num_gpus));

  auto worker = [&](int me) {
    sim::VirtualGpu& vgpu = vgpus[static_cast<std::size_t>(me)];
    const auto& stages = schedule.gpus[static_cast<std::size_t>(me)];
    // First stage this worker did NOT fully send: its outgoing channels
    // (and all later ones) are closed when the worker exits early.
    std::size_t stop_stage = stages.size();
    try {
      std::unordered_map<graph::NodeId, std::shared_ptr<const ops::Tensor>> local;
      for (std::size_t si = 0; si < stages.size(); ++si) {
        const sched::Stage& stage = stages[si];
        // Receive every remote dependency of this stage (blocking recv per
        // edge). A closed channel means the tensor will never arrive and
        // blocks this worker for good.
        double start = vgpu.clock();
        for (graph::NodeId v : stage.ops) {
          for (graph::EdgeId e : graph.in_edges(v)) {
            const graph::Edge& edge = graph.edge(e);
            const int src_gpu = gpu_of[static_cast<std::size_t>(edge.src)];
            if (src_gpu == me) continue;
            Message msg;
            const RecvStatus st = channels.at(e)->recv_until(msg, deadline);
            if (st == RecvStatus::kTimeout) {
              throw WatchdogError("engine watchdog expired on GPU " + std::to_string(me) +
                                  " waiting for '" + graph.node_name(edge.src) + "' -> '" +
                                  graph.node_name(edge.dst) + "'");
            }
            if (st == RecvStatus::kClosed) {
              vgpu.block(edge.src, src_gpu);
              break;
            }
            start = std::max(start, msg.ready_ms);
            local[edge.src] = std::move(msg.tensor);  // cache for this consumer
          }
          if (vgpu.stopped()) break;
        }
        if (vgpu.stopped() || vgpu.fail_stop_before(start, static_cast<int>(si))) {
          stop_stage = si;
          break;
        }
        // Execute the stage's ops on real tensors (boundary ops were
        // computed before this run; inject their tensors instead).
        for (graph::NodeId v : stage.ops) {
          const ops::OpId op_id = op_of[static_cast<std::size_t>(v)];
          if (options.boundary) {
            auto it = options.boundary->find(op_id);
            if (it != options.boundary->end()) {
              local[v] = it->second;
              continue;
            }
          }
          std::vector<const ops::Tensor*> in_tensors;
          for (ops::OpId in : model.inputs(op_id)) {
            if (model.is_input(in)) {
              in_tensors.push_back(shared_inputs.at(in).get());
            } else {
              in_tensors.push_back(local.at(node_of.at(in)).get());
            }
          }
          local[v] = std::make_shared<const ops::Tensor>(
              ops::execute_op(model.op(op_id), in_tensors, static_cast<uint64_t>(op_id)));
        }
        vgpu.run_stage(stage.ops, static_cast<int>(si), start);
        for (graph::NodeId v : stage.ops) {
          vgpu.ran(v);
          produced[static_cast<std::size_t>(v)] = local.at(v);
          for (graph::EdgeId e : graph.out_edges(v)) {
            const int dst_gpu = gpu_of[static_cast<std::size_t>(graph.edge(e).dst)];
            if (dst_gpu == me) continue;
            if (const std::optional<double> arrival = vgpu.send(e, dst_gpu))
              channels.at(e)->send(Message{local.at(v), *arrival});
            else
              channels.at(e)->close();
          }
        }
      }
    } catch (...) {
      errors[static_cast<std::size_t>(me)] = std::current_exception();
      // Conservative: close everything this worker could still owe.
      stop_stage = 0;
    }
    // Hang-proofing: whatever channels this worker will never (or may not
    // have) fed are poisoned so every peer's recv returns instead of
    // blocking. Already-sent messages drain before the close is observed.
    for (std::size_t si = stop_stage; si < stages.size(); ++si)
      for (Channel<Message>* ch : out_channels[static_cast<std::size_t>(me)][si])
        ch->close();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(schedule.num_gpus));
  for (int i = 0; i < schedule.num_gpus; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  sim::FaultyRun run = sim::VirtualGpu::collect(vgpus, n);
  ExecutionResult result;
  result.latency_ms = run.makespan_ms;
  result.timeline = std::move(run.timeline);
  result.complete = run.complete;
  result.executed = std::move(run.executed);
  result.node_finish_ms = std::move(run.node_finish_ms);
  result.fault_events = std::move(run.observations);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(n); ++v) {
    if (!result.executed[static_cast<std::size_t>(v)]) continue;
    const ops::OpId op_id = op_of[static_cast<std::size_t>(v)];
    const auto& tensor = produced[static_cast<std::size_t>(v)];
    if (graph.out_degree(v) == 0) result.outputs.emplace(op_id, *tensor);
    if (options.faults) result.computed.emplace(op_id, tensor);
  }
  if (!result.complete && !options.allow_partial) {
    std::ostringstream os;
    os << "execution incomplete under fault injection: "
       << std::count(result.executed.begin(), result.executed.end(), char{0}) << " of " << n
       << " ops did not run;";
    for (const auto& obs : result.fault_events) os << ' ' << obs.detail << ';';
    throw Error(os.str());
  }
  return result;
}

}  // namespace hios::runtime
