// Reachability fast paths: Procedures 3 and 4 of the paper
// (Proposition 5, the reachTA= fragment), in sparse form.
//
// Both compute a Kleene star (R ⋈^{1,2,3'}_θ)* in O(|O|·|T|) style time:
//  * SpecA (θ = {3=1'}):    "reachable by an arbitrary path";
//  * SpecB (θ = {3=1',2=2'}): "…by a path labeled with the same element".
//
// The planner runs both stars on the interval reachability index
// (core/reach/reach_index.h); these serial kernels are the paper's
// procedures as written, the reference the index is tested and
// benchmarked against.

#ifndef TRIAL_CORE_FAST_REACH_H_
#define TRIAL_CORE_FAST_REACH_H_

#include "storage/triple_set.h"

namespace trial {

/// (R ⋈^{1,2,3'}_{3=1'})* — Procedure 3, sparse: build the projected
/// reachability graph { i -> j : (i,·,j) ∈ R }, take its
/// reflexive-transitive closure from every needed source, and emit
/// (i, k, l) for every (i, k, j) ∈ R and l reachable from j.
TripleSet StarReachAnyPath(const TripleSet& base);

/// (R ⋈^{1,2,3'}_{3=1',2=2'})* — Procedure 4, sparse: same computation
/// restricted to the subgraph of triples sharing each middle element.
TripleSet StarReachSameMiddle(const TripleSet& base);

}  // namespace trial

#endif  // TRIAL_CORE_FAST_REACH_H_
