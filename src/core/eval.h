// Evaluator interface: QueryComputation (Section 5).
//
// Three interchangeable engines implement the same semantics and are
// cross-checked against each other by the property tests:
//
//  * Naive  — the paper's nested-loop algorithm (Procedures 1 and 2) on
//             sorted triple vectors; O(|e|·|T|²) joins, O(|e|·|T|³) stars.
//  * Matrix — Theorem 3's algorithm verbatim on the dense n×n×n bit
//             tensor ("array representation"); faithful but bounded to
//             small object counts.
//  * Smart  — hash joins on the θ/η equality columns, selection pushdown
//             and semi-naive (delta) fixpoints, plus the Proposition 4/5
//             fast paths when the fragment analyzer proves the expression
//             lies in TriAL= / reachTA=.

#ifndef TRIAL_CORE_EVAL_H_
#define TRIAL_CORE_EVAL_H_

#include <cstddef>
#include <memory>

#include "core/exec_limits.h"
#include "core/expr.h"
#include "storage/triple_store.h"
#include "util/status.h"

namespace trial {

/// Resource guards for evaluation: the shared ExecLimits
/// (max_result_triples, max_rounds, adaptive) under the TriAL engines'
/// historical name.  DatalogOptions derives from the same base, so the
/// guard plumbing is defined exactly once.
struct EvalOptions : ExecLimits {};

/// Abstract QueryComputation engine: e, T  ->  e(T).
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Computes e(T).  Errors: kNotFound (unknown relation name),
  /// kInvalidArgument (non-unary selection condition),
  /// kResourceExhausted (guards exceeded).
  virtual Result<TripleSet> Eval(const ExprPtr& e,
                                 const TripleStore& store) = 0;

  /// Engine name for reporting.
  virtual const char* name() const = 0;
};

/// The paper's nested-loop engine.
std::unique_ptr<Evaluator> MakeNaiveEvaluator(EvalOptions opts = {});

/// Theorem 3's dense-tensor engine.  Object count is limited by memory
/// (n^3/8 bytes per materialized relation).
std::unique_ptr<Evaluator> MakeMatrixEvaluator(EvalOptions opts = {});

/// Hash-join + semi-naive engine with TriAL= / reachTA= fast paths.
std::unique_ptr<Evaluator> MakeSmartEvaluator(EvalOptions opts = {});

/// Checks structural validity of an expression independent of a store:
/// selection conditions must be unary.  (Unknown relation names are
/// reported at evaluation time, when the store is known.)
Status ValidateExpr(const ExprPtr& e);

/// Objects occurring in at least one triple of the store ("occurs in our
/// triplestore database", the domain of the universal relation U).
std::vector<ObjId> ActiveObjects(const TripleStore& store);

/// Materializes U — all triples over ActiveObjects — guarded by
/// `max_result_triples` (kResourceExhausted when |O|^3 exceeds it; the
/// comparison is done in double, since n^3 overflows size_t past ~2.6M
/// objects).  Shared by the naive engine and the plan executor so the
/// guard semantics cannot diverge.
Result<TripleSet> MaterializeUniverse(const TripleStore& store,
                                      size_t max_result_triples);

/// Selection σ_{cond}(in) with index pushdown, shared by the engines:
/// equality-to-constant θ atoms bind columns, which route through the
/// access-path API (TripleSet::Lookup / LookupPair) instead of a linear
/// scan; the full condition is re-verified on every candidate.  The
/// result is born in the order its candidates came in, unsorted: OSP
/// for a POS range with only p pinned, SPO for every other range, the
/// scanned order for a scan.  SPO is sorted only if a reader needs it.
/// Pre: `cond` is unary (ValidateExpr enforces this).
/// `strategy_out`, when non-null, receives the route actually taken —
/// "index" (range probe), "scan" (linear filter) or "empty"
/// (contradictory constants) — for the plan executor's EXPLAIN output.
TripleSet SelectIndexed(const TripleSet& in, const CondSet& cond,
                        const TripleStore& store,
                        const char** strategy_out = nullptr);

/// π_{1,3}: the pairs (s, o) of a triple set, as triples (s, s, o) are
/// NOT produced — this is the API-edge projection used when comparing
/// TriAL* with binary graph queries (Section 6.2); it leaves the algebra.
std::vector<std::pair<ObjId, ObjId>> ProjectSO(const TripleSet& set);

}  // namespace trial

#endif  // TRIAL_CORE_EVAL_H_
