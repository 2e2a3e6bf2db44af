#include "gnn/plan.h"

#include <utility>

#include "gnn/plan_compiler.h"

namespace chainnet::gnn {

const char* plan_op_name(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kBatchEncodeService: return "BatchEncodeService";
    case PlanOpKind::kBatchEncodeFragment: return "BatchEncodeFragment";
    case PlanOpKind::kBatchEncodeDevices: return "BatchEncodeDevices";
    case PlanOpKind::kBatchGruChainStep: return "BatchGruChainStep";
    case PlanOpKind::kBatchGatherMessages: return "BatchGatherMessages";
    case PlanOpKind::kBatchAggregateInit: return "BatchAggregateInit";
    case PlanOpKind::kBatchAttentionJoints: return "BatchAttentionJoints";
    case PlanOpKind::kBatchAttentionHead: return "BatchAttentionHead";
    case PlanOpKind::kBatchGruDevice: return "BatchGruDevice";
    case PlanOpKind::kBatchReadout: return "BatchReadout";
  }
  return "?";
}

std::string Plan::dump() const {
  std::string out;
  out += "plan width=" + std::to_string(meta.width);
  out += " chains=" + std::to_string(meta.chains);
  out += " steps=" + std::to_string(meta.steps);
  out += " hidden=" + std::to_string(meta.hidden);
  out += " iterations=" + std::to_string(meta.iterations);
  out += " heads=" + std::to_string(key.shape.attention_heads);
  out += key.shape.attention_aggregation ? " attention=on" : " attention=off";
  out += " dtype=";
  out += tensor::dtype_name(key.shape.dtype);
  out += "\nscratch: " + std::to_string(meta.scratch_elems) + " elems (" +
         std::to_string(meta.scratch_elems *
                        static_cast<std::int64_t>(
                            tensor::dtype_element_bytes(key.shape.dtype))) +
         " bytes), dev_cap=" + std::to_string(meta.dev_cap) +
         ", ops=" + std::to_string(ops.size());
  out += "\nfingerprint: " + std::to_string(fingerprint) + "\n";
  const auto field = [](const char* name, std::int32_t v) {
    return v < 0 ? std::string()
                 : (" " + std::string(name) + "=" + std::to_string(v));
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    out += "[" + std::to_string(i) + "] " + plan_op_name(op.kind);
    out += field("a", op.a);
    out += field("in0", op.in0);
    out += field("in1", op.in1);
    out += field("out", op.out);
    out += field("aux", op.aux);
    out += "\n";
  }
  return out;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline void fnv_mix(std::uint64_t& fp, std::uint64_t v) {
  // Byte-at-a-time FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    fp ^= (v >> (8 * i)) & 0xffULL;
    fp *= kFnvPrime;
  }
}

std::uint64_t fingerprint_of(int num_chains,
                             const std::vector<std::vector<int>>& sequences,
                             const PlanShape& shape, int width) {
  std::uint64_t fp = kFnvOffset;
  fnv_mix(fp, static_cast<std::uint64_t>(width));
  fnv_mix(fp, static_cast<std::uint64_t>(shape.hidden));
  fnv_mix(fp, static_cast<std::uint64_t>(shape.iterations));
  fnv_mix(fp, static_cast<std::uint64_t>(shape.attention_heads));
  fnv_mix(fp, (shape.modified_outputs ? 2ULL : 0ULL) |
                  (shape.attention_aggregation ? 1ULL : 0ULL) |
                  (static_cast<std::uint64_t>(shape.dtype) << 2));
  fnv_mix(fp, static_cast<std::uint64_t>(num_chains));
  for (const auto& seq : sequences) {
    fnv_mix(fp, static_cast<std::uint64_t>(seq.size()));
    for (int s : seq) fnv_mix(fp, static_cast<std::uint64_t>(s));
  }
  return fp;
}

}  // namespace

std::uint64_t plan_fingerprint(const edge::PlacementGraph& g,
                               const PlanShape& shape, int width) {
  return fingerprint_of(g.num_chains, g.sequences, shape, width);
}

std::uint64_t plan_fingerprint(const PlanKey& key) {
  return fingerprint_of(key.topology.num_chains, key.topology.sequences,
                        key.shape, key.width);
}

bool plan_key_matches(const PlanKey& key, const edge::PlacementGraph& g,
                      const PlanShape& shape, int width) {
  return key.width == width && key.shape == shape &&
         key.topology.num_chains == g.num_chains &&
         key.topology.sequences == g.sequences;
}

PlanCache::PlanCache(std::size_t max_entries_per_shard)
    : max_entries_per_shard_(max_entries_per_shard == 0
                                 ? 1
                                 : max_entries_per_shard) {}

std::shared_ptr<const Plan> PlanCache::lookup_or_compile(
    const edge::PlacementGraph& g, const PlanShape& shape, int width) {
  const std::uint64_t fp = plan_fingerprint(g, shape, width);
  Shard& shard = shards_[fp % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  for (const Entry& entry : shard.entries) {
    if (entry.fingerprint == fp &&
        plan_key_matches(entry.plan->key, g, shape, width)) {
      ++shard.hits;
      return entry.plan;
    }
  }
  // Compile under the shard lock: concurrent first lookups of one key must
  // produce exactly one compile (plan_test pins concurrent == serial).
  auto plan = compile_plan(g, shape, width);
  ++shard.compiles;
  if (shard.entries.size() >= max_entries_per_shard_) {
    shard.entries.erase(shard.entries.begin());
    ++shard.evictions;
  }
  shard.entries.push_back(Entry{fp, plan});
  return plan;
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.compiles += shard.compiles;
    stats.evictions += shard.evictions;
    stats.entries += shard.entries.size();
  }
  return stats;
}

}  // namespace chainnet::gnn
