// Cost-based join reordering: bottom-up dynamic programming over the
// maximal ⋈ region of an expression (see reorder.cc for the model).

#ifndef TRIAL_CORE_PLAN_REORDER_H_
#define TRIAL_CORE_PLAN_REORDER_H_

#include <functional>

#include "core/expr.h"
#include "core/plan/plan.h"

namespace trial {
namespace plan {

/// Lowers the maximal join region rooted at `e` (which must be kJoin)
/// into a cost-chosen bushy tree of MergeJoin / IndexProbeJoin /
/// HashJoin operators.  `lower_leaf` lowers each non-join subexpression
/// of the region (the region's leaves).  Returns nullptr when the
/// region is too large for exhaustive enumeration — the caller then
/// falls back to lowering the written order pairwise.
///
/// `hints.feedback` substitutes observed cardinalities (keyed by the
/// region signature + DP leaf mask, see adapt.h) for the statistical
/// estimates of matching subsets.  Emitted nodes carry their DP leaf
/// mask in PlanNode::region_mask.  `opaque` names the joins below `e`
/// that end the region: they become leaves, lowered by `lower_leaf`
/// like any other (the planner's shared subexpressions).
PlanPtr ReorderJoinRegion(
    const Expr& e, const TripleStore& store,
    const std::function<PlanPtr(const Expr&)>& lower_leaf,
    const std::function<bool(const Expr&)>& opaque,
    const PlanningHints& hints = {});

}  // namespace plan
}  // namespace trial

#endif  // TRIAL_CORE_PLAN_REORDER_H_
