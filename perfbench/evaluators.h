// The placement evaluators the workloads score through, and the spans they
// open when tracing is on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/graph.h"
#include "gnn/model.h"
#include "gnn/plan.h"
#include "optim/evaluator.h"
#include "support/rng.h"
#include "trace.h"

namespace perfbench {

namespace cn = chainnet;

/// Paper-sized ChainNet (Table IV: hidden 64, 8 iterations, f64) from a
/// fixed init seed. An untrained model costs the same per forward as a
/// trained one, and equal seeds give equal weights in every process.
inline std::unique_ptr<cn::core::ChainNet> make_model() {
  cn::support::Rng init(1);
  return std::make_unique<cn::core::ChainNet>(cn::core::ChainNetConfig::paper(),
                                              init);
}

/// Innermost oracle of every workload; owns its model. With tracing off a
/// call goes straight to optim::SurrogateEvaluator, the library path the
/// end-to-end metrics measure. With tracing on it takes the public steps
/// core::Surrogate takes, each in its own span: edge::build_graph into a
/// reused workspace, ChainNet::forward_values[_batch], then decode and sum.
/// Both routes return bit-identical values, which the workload checks test.
class SurrogateOracle final : public cn::optim::PlacementEvaluator {
 public:
  SurrogateOracle()
      : model_(make_model()), direct_(cn::core::Surrogate(*model_)) {}

  double total_throughput(const cn::edge::EdgeSystem& system,
                          const cn::edge::Placement& placement) override {
    record_evaluation();
    if (!Tracer::get().enabled()) {
      return direct_.total_throughput(system, placement);
    }
    double out = 0.0;
    traced(system, {&placement, 1}, {&out, 1});
    return out;
  }

  void total_throughput_batch(
      const cn::edge::EdgeSystem& system,
      std::span<const cn::edge::Placement> placements,
      std::span<double> out) override {
    for (std::size_t i = 0; i < placements.size(); ++i) record_evaluation();
    if (!Tracer::get().enabled()) {
      direct_.total_throughput_batch(system, placements, out);
      return;
    }
    traced(system, placements, out);
  }

  void set_plan_cache(std::shared_ptr<cn::gnn::PlanCache> cache) override {
    model_->set_plan_cache(std::move(cache));
  }

  cn::core::ChainNet& model() { return *model_; }

 private:
  void traced(const cn::edge::EdgeSystem& system,
              std::span<const cn::edge::Placement> placements,
              std::span<double> out) {
    const int width = static_cast<int>(placements.size());
    const ScopedSpan call("core.eval", Layer::kCore, width);
    if (workspaces_.size() < placements.size()) {
      workspaces_.resize(placements.size());
    }
    graphs_.clear();
    for (std::size_t b = 0; b < placements.size(); ++b) {
      const ScopedSpan build("edge.build_graph", Layer::kEdge, 1);
      graphs_.push_back(&cn::edge::build_graph(
          system, placements[b], model_->feature_mode(), workspaces_[b]));
    }
    std::vector<std::vector<cn::gnn::ChainValues>> values;
    {
      const ScopedSpan forward("core.forward", Layer::kCore, width);
      if (width == 1) {
        values.push_back(model_->forward_values(*graphs_.front()));
      } else {
        values = model_->forward_values_batch(graphs_);
      }
    }
    // Surrogate's readout: decode each chain's throughput ratio and sum in
    // chain order (a chain without a throughput head adds 0.0).
    const bool ratio = model_->ratio_outputs();
    for (std::size_t b = 0; b < placements.size(); ++b) {
      double total = 0.0;
      for (std::size_t i = 0; i < values[b].size(); ++i) {
        const auto& v = values[b][i];
        total += v.has_throughput
                     ? cn::gnn::decode_throughput(*graphs_[b],
                                                  static_cast<int>(i),
                                                  v.throughput, ratio)
                     : 0.0;
      }
      out[b] = total;
    }
  }

  std::unique_ptr<cn::core::ChainNet> model_;
  cn::optim::SurrogateEvaluator direct_;
  std::vector<cn::edge::GraphWorkspace> workspaces_;
  std::vector<const cn::edge::PlacementGraph*> graphs_;
};

/// Decorator installed through the EvalService factory, one per worker, so
/// whatever it records has a single writer. Opens a runtime-layer span per
/// call while tracing is on, and mirrors the inner evaluator's evaluation
/// count so EvalService::oracle_evaluations, which the optimizers read,
/// stays exact.
class TimedEvaluator final : public cn::optim::PlacementEvaluator {
 public:
  TimedEvaluator(std::unique_ptr<cn::optim::PlacementEvaluator> inner,
                 const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}

  double total_throughput(const cn::edge::EdgeSystem& system,
                          const cn::edge::Placement& placement) override {
    const ScopedSpan span(span_name_, Layer::kRuntime, 1);
    const double value = inner_->total_throughput(system, placement);
    evaluations_ = inner_->evaluations();
    return value;
  }

  void total_throughput_batch(
      const cn::edge::EdgeSystem& system,
      std::span<const cn::edge::Placement> placements,
      std::span<double> out) override {
    const ScopedSpan span(span_name_, Layer::kRuntime,
                          static_cast<int>(placements.size()));
    inner_->total_throughput_batch(system, placements, out);
    evaluations_ = inner_->evaluations();
  }

  void set_plan_cache(std::shared_ptr<cn::gnn::PlanCache> cache) override {
    inner_->set_plan_cache(std::move(cache));
  }

 private:
  std::unique_ptr<cn::optim::PlacementEvaluator> inner_;
  const char* span_name_;
};

}  // namespace perfbench
