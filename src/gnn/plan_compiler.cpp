#include "gnn/plan_compiler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace chainnet::gnn {

namespace {

/// Bump allocator over the plan arena; returns the region's offset in
/// doubles. Zero-sized regions are legal (a system with no steps).
struct ArenaPlanner {
  std::int64_t cursor = 0;
  std::int32_t region(std::int64_t doubles) {
    if (cursor + doubles > std::numeric_limits<std::int32_t>::max()) {
      throw std::invalid_argument("plan arena exceeds 2^31 doubles");
    }
    const auto off = static_cast<std::int32_t>(cursor);
    cursor += doubles;
    return off;
  }
};

int count_steps(const PlanTopology& topology) {
  std::int64_t steps = 0;
  for (const auto& seq : topology.sequences) {
    steps += static_cast<std::int64_t>(seq.size());
  }
  if (steps > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("plan topology has too many steps");
  }
  return static_cast<int>(steps);
}

/// Emits the per-iteration body: chain-pass GRU steps followed by the
/// device pass, with the fragment/device panels double-buffered across
/// iterations. `row` is the per-entity panel width h*W.
void emit_iterations(const PlanKey& key, const PlanLayout& layout,
                     std::int64_t row, std::vector<PlanOp>& ops,
                     std::vector<std::int32_t>& chain_final) {
  const auto C = static_cast<std::size_t>(key.topology.num_chains);
  // The chain state carries ACROSS iterations (the interpreted walk writes
  // hs back into service[i] at the end of each chain pass): iteration 0
  // starts from the encoded service row, every later iteration from the
  // chain's last service-at-step row of the previous one. The executor
  // stages in0 through layout.hs before the GRU, so a single-step chain —
  // whose carried row IS its output row — never aliases h with h_out.
  chain_final.assign(C, -1);
  for (std::size_t i = 0; i < C; ++i) {
    chain_final[i] = layout.service + static_cast<std::int32_t>(i * row);
  }
  for (int n = 0; n < key.shape.iterations; ++n) {
    const bool odd = (n % 2) != 0;
    const std::int32_t fr = odd ? layout.frag1 : layout.frag0;
    const std::int32_t fw = odd ? layout.frag0 : layout.frag1;
    const std::int32_t dr = odd ? layout.dev1 : layout.dev0;
    const std::int32_t dw = odd ? layout.dev0 : layout.dev1;
    for (std::size_t i = 0; i < C; ++i) {
      for (int s : key.topology.sequences[i]) {
        PlanOp op;
        op.kind = PlanOpKind::kBatchGruChainStep;
        op.a = s;
        op.in0 = chain_final[i];
        op.in1 = fr + static_cast<std::int32_t>(s * row);
        op.out = fw + static_cast<std::int32_t>(s * row);
        op.aux = dr;
        ops.push_back(op);
        chain_final[i] = layout.sas + static_cast<std::int32_t>(s * row);
      }
    }
    ops.push_back(
        PlanOp{PlanOpKind::kBatchGatherMessages, -1, fr, -1, -1, -1});
    ops.push_back(
        PlanOp{PlanOpKind::kBatchAggregateInit, -1, -1, -1, -1, -1});
    if (key.shape.attention_aggregation) {
      ops.push_back(
          PlanOp{PlanOpKind::kBatchAttentionJoints, -1, -1, dr, -1, -1});
      for (int a = 0; a < key.shape.attention_heads; ++a) {
        ops.push_back(
            PlanOp{PlanOpKind::kBatchAttentionHead, a, -1, -1, -1, -1});
      }
    }
    ops.push_back(PlanOp{PlanOpKind::kBatchGruDevice, -1, dr, -1, dw, -1});
  }
}

}  // namespace

PlanKey make_plan_key(const edge::PlacementGraph& g, const PlanShape& shape,
                      int width) {
  PlanKey key;
  key.topology.num_chains = g.num_chains;
  key.topology.sequences = g.sequences;
  key.shape = shape;
  key.width = width;
  return key;
}

std::shared_ptr<const Plan> compile_plan(const PlanKey& key) {
  if (key.width < 1 || key.shape.hidden <= 0 || key.shape.iterations <= 0 ||
      key.shape.attention_heads <= 0) {
    throw std::invalid_argument("compile_plan: invalid key");
  }
  const auto h = static_cast<std::int64_t>(key.shape.hidden);
  const auto W = static_cast<std::int64_t>(key.width);
  const auto C = static_cast<std::int64_t>(key.topology.num_chains);
  const auto S = static_cast<std::int64_t>(count_steps(key.topology));
  // Every used device hosts at least one of the S execution steps, so the
  // runtime device-column count D is bounded by S per placement.
  const std::int64_t dev_cap = S * W;
  const std::int64_t M = S * W;

  auto plan = std::make_shared<Plan>();
  plan->key = key;
  plan->meta.width = key.width;
  plan->meta.hidden = key.shape.hidden;
  plan->meta.iterations = key.shape.iterations;
  plan->meta.chains = static_cast<int>(C);
  plan->meta.steps = static_cast<int>(S);
  plan->meta.dev_cap = static_cast<int>(dev_cap);
  plan->meta.message_cap = static_cast<int>(M);

  ArenaPlanner arena;
  PlanLayout& L = plan->layout;
  const std::int64_t row = h * W;  // per-entity panel width
  L.service = arena.region(C * row);
  L.frag0 = arena.region(S * row);
  L.frag1 = arena.region(S * row);
  L.sas = arena.region(S * row);
  L.dev0 = arena.region(h * dev_cap);
  L.dev1 = arena.region(h * dev_cap);
  L.hs = arena.region(row);
  L.m_c = arena.region(2 * row);
  L.m_d = arena.region(2 * h * dev_cap);
  L.messages = arena.region(2 * h * M);
  if (key.shape.attention_aggregation) {
    L.joints = arena.region(3 * h * M);
    L.att_act = arena.region(h * M);
    L.scores = arena.region(M);
    L.transformed = arena.region(2 * h * M);
  }
  L.readout_in = arena.region(h * C * W);
  L.readout_out = arena.region(C * W);
  L.enc_in = arena.region(
      std::max({static_cast<std::int64_t>(edge::kServiceFeatureDim) * W,
                static_cast<std::int64_t>(edge::kFragmentFeatureDim) * W,
                static_cast<std::int64_t>(edge::kDeviceFeatureDim) *
                    dev_cap}));

  std::vector<PlanOp>& ops = plan->ops;
  for (std::int64_t i = 0; i < C; ++i) {
    PlanOp op;
    op.kind = PlanOpKind::kBatchEncodeService;
    op.a = static_cast<std::int32_t>(i);
    op.out = L.service + static_cast<std::int32_t>(i * row);
    ops.push_back(op);
  }
  for (std::int64_t s = 0; s < S; ++s) {
    PlanOp op;
    op.kind = PlanOpKind::kBatchEncodeFragment;
    op.a = static_cast<std::int32_t>(s);
    op.out = L.frag0 + static_cast<std::int32_t>(s * row);
    ops.push_back(op);
  }
  {
    PlanOp op;
    op.kind = PlanOpKind::kBatchEncodeDevices;
    op.out = L.dev0;
    ops.push_back(op);
  }

  emit_iterations(key, L, row, ops, plan->chain_final);

  // After the last iteration the live fragment buffer is frag[N % 2].
  const std::int32_t frag_final =
      (key.shape.iterations % 2) != 0 ? L.frag1 : L.frag0;
  ops.push_back(PlanOp{PlanOpKind::kBatchReadout, -1, -1, frag_final, -1, -1});

  plan->meta.scratch_elems = arena.cursor;
  plan->fingerprint = plan_fingerprint(key);
  return plan;
}

std::shared_ptr<const Plan> compile_plan(const edge::PlacementGraph& g,
                                         const PlanShape& shape, int width) {
  return compile_plan(make_plan_key(g, shape, width));
}

}  // namespace chainnet::gnn
