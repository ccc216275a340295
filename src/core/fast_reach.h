// Reachability fast paths: Procedures 3 and 4 of the paper
// (Proposition 5, the reachTA= fragment), in sparse form.
//
// Both compute a Kleene star (R ⋈^{1,2,3'}_θ)* in O(|O|·|T|) style time:
//  * SpecA (θ = {3=1'}):    "reachable by an arbitrary path";
//  * SpecB (θ = {3=1',2=2'}): "…by a path labeled with the same element".

#ifndef TRIAL_CORE_FAST_REACH_H_
#define TRIAL_CORE_FAST_REACH_H_

#include <cstddef>

#include "storage/triple_set.h"
#include "util/parallel.h"
#include "util/status.h"

namespace trial {

/// (R ⋈^{1,2,3'}_{3=1'})* — Procedure 3, sparse: build the projected
/// reachability graph { i -> j : (i,·,j) ∈ R }, take its
/// reflexive-transitive closure from every needed source, and emit
/// (i, k, l) for every (i, k, j) ∈ R and l reachable from j.
///
/// With exec.num_threads > 1 the per-source frontier expansions (every
/// source's DFS is independent) and the output emission run on the
/// thread pool in deterministic chunks; results are identical to the
/// serial path for any thread count.
TripleSet StarReachAnyPath(const TripleSet& base, const ExecOptions& exec = {});

/// (R ⋈^{1,2,3'}_{3=1',2=2'})* — Procedure 4, sparse: same computation
/// restricted to the subgraph of triples sharing each middle element.
/// Parallelism is per middle group (groups are independent).
TripleSet StarReachSameMiddle(const TripleSet& base,
                              const ExecOptions& exec = {});

/// The two procedures under a result-size guard: kResourceExhausted as
/// soon as the emitted output passes `max_result_triples`, without
/// building the rest of it.  Rows are counted as emitted, before
/// duplicates merge — the executor's join guards count the same way.
Result<TripleSet> StarReachAnyPath(const TripleSet& base,
                                   const ExecOptions& exec,
                                   size_t max_result_triples);
Result<TripleSet> StarReachSameMiddle(const TripleSet& base,
                                      const ExecOptions& exec,
                                      size_t max_result_triples);

}  // namespace trial

#endif  // TRIAL_CORE_FAST_REACH_H_
