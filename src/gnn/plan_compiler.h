// Topology-time compiler from a placement graph's system topology to a
// flat Plan op list with arena-planned scratch offsets (see plan.h). This
// file and the reference executor are the only places allowed to walk the
// graph structure interpretively (lint rule R7-plan-discipline).
#pragma once

#include <memory>

#include "edge/graph.h"
#include "gnn/plan.h"

namespace chainnet::gnn {

/// Materializes the cache key for (g's topology, shape, width).
PlanKey make_plan_key(const edge::PlacementGraph& g, const PlanShape& shape,
                      int width);

/// Compiles the full op list and arena layout for a key. Every width emits
/// the same ops; the width only sets the panel column count.
std::shared_ptr<const Plan> compile_plan(const PlanKey& key);

/// Convenience: key + compile in one call.
std::shared_ptr<const Plan> compile_plan(const edge::PlacementGraph& g,
                                         const PlanShape& shape, int width);

}  // namespace chainnet::gnn
