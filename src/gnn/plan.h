// Compiled execution plans for ChainNet inference.
//
// Algorithm 2's op order — which GRU fires on which buffer at which step —
// depends only on the *system* topology (chain count and execution
// sequences), never on the placement or the weights. A Plan captures that
// order once as a flat array of typed ops with pre-resolved offsets into a
// single arena-planned scratch buffer; `ChainNet::forward_values[_batch]`
// then replays the op list over the batched kernels instead of re-walking
// the heterogeneous graph per call. There is one op flavour: a single
// placement replays the width-1 plan, whose panels are one column wide.
// Placement-dependent geometry (which device column each step reads, the
// per-device message groups) is bound per replay from the graph, so a plan
// is reusable across every placement, every weight version, and every
// model instance that shares its (topology, shape, width) key.
//
// Plans are weight-independent: a serving hot-swap that replaces model
// weights never invalidates a plan; only a topology change compiles a new
// one. The interpreted walk survives as the reference executor
// (ChainNet::forward_values_interpreted, one placement at a time), and
// every lane of every replay width must match it bit for bit on that
// lane's graph (plan_test, bench_infer parity gate).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "edge/graph.h"
#include "tensor/dtype.h"

namespace chainnet::gnn {

/// One executable op of a compiled plan. Offsets index the plan's arena
/// (in elements of the plan's dtype); -1 marks an unused field. Field
/// roles per kind are documented at the emission site in plan_compiler.cpp.
enum class PlanOpKind : std::uint8_t {
  kBatchEncodeService,   ///< a=chain, out=service panel
  kBatchEncodeFragment,  ///< a=step, out=fragment panel
  kBatchEncodeDevices,   ///< out=device panel base
  kBatchGruChainStep,    ///< a=step, in0=h_in, in1=frag_prev panel,
                         ///< out=frag panel, aux=device read base
  kBatchGatherMessages,  ///< in0=frag read base
  kBatchAggregateInit,   ///< per-group copy / mean / zero into m_d
  kBatchAttentionJoints, ///< in1=dev read base
  kBatchAttentionHead,   ///< a=head index
  kBatchGruDevice,       ///< in0=dev read base, out=dev write base
  kBatchReadout,         ///< in1=final frag base
};

/// Name of an op kind, for Plan::dump() and the CLI plan dumper.
const char* plan_op_name(PlanOpKind kind);

struct PlanOp {
  PlanOpKind kind;
  std::int32_t a = -1;    ///< entity index (chain / step / head)
  std::int32_t in0 = -1;  ///< primary input offset
  std::int32_t in1 = -1;  ///< secondary input offset
  std::int32_t out = -1;  ///< output offset
  std::int32_t aux = -1;  ///< extra offset (device read-buffer base)
};

/// The topology half of a plan key: exactly the fields
/// validate_same_system_batch compares, i.e. what must match for two
/// placements to be lock-stepped through one schedule.
struct PlanTopology {
  int num_chains = 0;
  std::vector<std::vector<int>> sequences;

  bool operator==(const PlanTopology& other) const = default;
};

/// The model-shape half of a plan key: every config field that changes the
/// op list or the arena layout. modified_inputs is deliberately absent — it
/// only selects graph features and never changes plan structure, so models
/// differing only there share plans. dtype IS part of the key even though
/// the op list is dtype-invariant: the replay executor sizes and types its
/// arena by it (offsets are element-indexed, elements are 8 or 4 bytes), so
/// an f32 model must never replay through a plan another model compiled as
/// f64 — one compile per dtype, no cross-dtype reuse (pinned by plan_test).
struct PlanShape {
  int hidden = 0;
  int iterations = 0;
  int attention_heads = 0;
  bool modified_outputs = true;
  bool attention_aggregation = true;
  tensor::DType dtype = tensor::DType::kF64;

  bool operator==(const PlanShape& other) const = default;
};

struct PlanKey {
  PlanTopology topology;
  PlanShape shape;
  int width = 1;  ///< batch width class (exact B; 1 = one placement)

  bool operator==(const PlanKey& other) const = default;
};

/// Arena region offsets (in elements of the plan's dtype). The attention
/// panels are -1 when attention aggregation is ablated. frag0/frag1 and
/// dev0/dev1 are the double-buffered embedding panels: each iteration's
/// ops read one and write the other, which is what lets the compiler
/// delete the interpreted path's per-iteration snapshot copies.
struct PlanLayout {
  std::int32_t service = -1;
  std::int32_t frag0 = -1, frag1 = -1;
  std::int32_t sas = -1;  ///< service-at-step rows (eq. 8 / eq. 10 inputs)
  std::int32_t dev0 = -1, dev1 = -1;
  std::int32_t hs = -1;      ///< chain-state staging row (phi_c h input)
  std::int32_t m_c = -1;     ///< chain-pass message panel
  std::int32_t m_d = -1;     ///< aggregated device-message panel
  std::int32_t messages = -1, joints = -1, att_act = -1, scores = -1,
               transformed = -1;  ///< device-pass panels
  std::int32_t readout_in = -1, readout_out = -1;  ///< readout panels
  std::int32_t enc_in = -1;  ///< encoder input gather panel
};

struct PlanMeta {
  int width = 0;
  int hidden = 0;
  int iterations = 0;
  int chains = 0;
  int steps = 0;
  int dev_cap = 0;      ///< device-column capacity (runtime D <= dev_cap)
  int message_cap = 0;  ///< message columns M = steps * width
  /// Arena size in *elements* — doubles on the f64 tier, floats on the
  /// reduced tiers (the executor multiplies by the key's element width).
  std::int64_t scratch_elems = 0;
};

struct Plan {
  PlanKey key;
  std::uint64_t fingerprint = 0;
  PlanMeta meta;
  PlanLayout layout;
  std::vector<PlanOp> ops;
  /// Per-chain offset of the final service embedding (the row the
  /// throughput readout consumes): the chain's last sas row, or its
  /// encoded service row for an empty sequence.
  std::vector<std::int32_t> chain_final;

  /// Human-readable op listing (kind, offsets, scratch accounting) for the
  /// `chainnet plan --dump` subcommand and debugging.
  std::string dump() const;
};

/// FNV-1a fingerprint of (g's topology, shape, width). Allocation-free;
/// collisions are resolved by plan_key_matches.
std::uint64_t plan_fingerprint(const edge::PlacementGraph& g,
                               const PlanShape& shape, int width);
/// Same fingerprint from a materialized key (compiler side); equal to the
/// graph overload whenever plan_key_matches holds.
std::uint64_t plan_fingerprint(const PlanKey& key);

/// Exact key comparison against a graph's topology without materializing a
/// PlanKey (no allocation on the replay hot path).
bool plan_key_matches(const PlanKey& key, const edge::PlacementGraph& g,
                      const PlanShape& shape, int width);

/// Sharded cache of compiled plans, shared read-only across workers: one
/// EvalService (or one serve ModelRegistry) holds a single PlanCache and
/// every evaluator's model resolves plans through it. Lookups take one
/// shard lock; a miss compiles under that lock, so concurrent first
/// lookups of the same key produce exactly one compile and every caller
/// the same immutable Plan.
class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t compiles = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
  };

  explicit PlanCache(std::size_t max_entries_per_shard = 64);

  /// Returns the cached plan for (g's topology, shape, width), compiling
  /// and inserting it on first use. The returned plan is immutable and
  /// safe to hold across cache evictions (shared ownership).
  std::shared_ptr<const Plan> lookup_or_compile(const edge::PlacementGraph& g,
                                                const PlanShape& shape,
                                                int width);

  Stats stats() const;

 private:
  static constexpr std::size_t kShards = 8;
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const Plan> plan;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> entries;  ///< FIFO order, oldest first
    std::uint64_t hits = 0;
    std::uint64_t compiles = 0;
    std::uint64_t evictions = 0;
  };
  std::size_t max_entries_per_shard_;
  Shard shards_[kShards];
};

}  // namespace chainnet::gnn
