// ChainNet — the paper's customized GNN surrogate (Sections V and VI).
//
// The model follows Algorithm 2 exactly:
//  * per-type encoders initialize service / fragment / device embeddings
//    from the Table-II features;
//  * each of N iterations walks every chain's execution sequence, updating
//    the recurrent service embedding with GRU phi_C (eq. 4-6) and the
//    fragment embedding with GRU phi_F (eq. 7-8), all messages read from
//    the previous iteration's fragment/device snapshots;
//  * device embeddings are then updated with GRU phi_D (eq. 9-10); a device
//    shared by F_k > 1 execution steps aggregates its per-step messages
//    with the multi-head attention f_multi of eq. 14-16;
//  * after the last iteration, MLP_tput reads the final service embedding
//    and MLP_latency reads the mean (or sum, when output modifications are
//    ablated) of the chain's fragment embeddings (eq. 12, Fig. 7).
//
// The ablation switches reproduce Table VI / Fig. 13:
//    ChainNet       : modified_inputs = true,  modified_outputs = true
//    ChainNet-alpha : modified_inputs = false, modified_outputs = false
//    ChainNet-beta  : modified_inputs = true,  modified_outputs = false
//    ChainNet-delta : modified_inputs = false, modified_outputs = true
#pragma once

#include <memory>

#include "gnn/model.h"
#include "support/rng.h"

namespace chainnet::core {

struct ChainNetConfig {
  int hidden = 32;      ///< embedding width (paper: 64)
  int iterations = 4;   ///< message-passing iterations N (paper: 8)
  int attention_heads = 2;  ///< heads of f_multi (Table IV)
  bool modified_inputs = true;   ///< Table II input ("md") features
  bool modified_outputs = true;  ///< ratio targets + mean latency readout
  /// Extra (non-paper) ablation: replace the attention of eq. 14-16 with a
  /// plain mean over per-step device messages.
  bool attention_aggregation = true;
  /// Numeric tier for plan replay (tensor/dtype.h). kF64 replays plans in
  /// double — bit-identical to the pre-tier engine and to the interpreted
  /// walk. kF32/kBf16 run the same replay template in float, through the
  /// f32 kernel table over lazily converted weight caches; those tiers are
  /// gated on ranking fidelity, not bit parity (DESIGN.md §15), and pinned
  /// to literal goldens (f64_golden_test). Training (forward()) and the
  /// interpreted reference always run in f64 regardless.
  tensor::DType dtype = tensor::DType::kF64;

  static ChainNetConfig paper() {
    ChainNetConfig c;
    c.hidden = 64;
    c.iterations = 8;
    return c;
  }
  static ChainNetConfig ablation_alpha() {
    ChainNetConfig c;
    c.modified_inputs = false;
    c.modified_outputs = false;
    return c;
  }
  static ChainNetConfig ablation_beta() {
    ChainNetConfig c;
    c.modified_outputs = false;
    return c;
  }
  static ChainNetConfig ablation_delta() {
    ChainNetConfig c;
    c.modified_inputs = false;
    return c;
  }
};

class ChainNet final : public gnn::GraphModel {
 public:
  ChainNet(const ChainNetConfig& config, support::Rng& rng);
  ~ChainNet() override;

  std::vector<gnn::ChainOutput> forward(
      const edge::PlacementGraph& g) override;
  /// Allocation-light inference path (no autodiff graph); used by the
  /// surrogate optimizer's hot loop. A width-1 call of forward_values_batch:
  /// replays the width-1 compiled execution plan (gnn/plan.h) resolved
  /// through the installed PlanCache. Matches forward() numerically — see
  /// the ChainNetFastInference tests — and the interpreted walk bit for bit
  /// (plan_test).
  std::vector<gnn::ChainValues> forward_values(
      const edge::PlacementGraph& g) override;
  /// Lock-stepped batched inference over B placements of the same system:
  /// per-chain hidden states are packed batch-major so every GRU update of
  /// Algorithm 2 is one GEMM with B columns, attention is scored across
  /// all device messages of the whole batch at once, and the readout MLPs
  /// run over C*B columns. Column b is bit-identical to forward_values on
  /// graphs[b] (pinned by chainnet_batch_test). Replays the width-B
  /// compiled plan in the configured dtype.
  std::vector<std::vector<gnn::ChainValues>> forward_values_batch(
      std::span<const edge::PlacementGraph* const> graphs) override;

  /// Reference executor: the interpreted Algorithm-2 graph walk the plans
  /// are compiled from, one placement at a time, always in f64 over the
  /// pre-fusion kernels (kernels::gemv_naive,
  /// GruCell::forward_values_reference). Kept public so the parity gates
  /// (plan_test, chainnet_batch_test, bench_infer) can check every lane of
  /// every replay width against it; production callers go through
  /// forward_values[_batch] (lint rule R7-plan-discipline).
  std::vector<gnn::ChainValues> forward_values_interpreted(
      const edge::PlacementGraph& g);

  /// Swaps in a shared plan cache (nullptr restores a private one). The
  /// per-model plan memo is dropped so subsequent forwards resolve through
  /// the new cache.
  void set_plan_cache(std::shared_ptr<gnn::PlanCache> cache) override;
  std::shared_ptr<gnn::PlanCache> plan_cache() const override;

  /// The configured numeric tier (ChainNetConfig::dtype).
  tensor::DType dtype() const override;

  edge::FeatureMode feature_mode() const override;
  bool ratio_outputs() const override;
  std::string name() const override;

  const ChainNetConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace chainnet::core
