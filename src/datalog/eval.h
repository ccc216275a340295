// Evaluation of TripleDatalog¬ / ReachTripleDatalog¬ programs over a
// triplestore, on two routes.
//
// The plan route.  By Proposition 2 and Theorem 2 a nonrecursive
// TripleDatalog¬ program, or a ReachTripleDatalog¬ program, is exactly
// the TriAL(*) expression ProgramToTriAL builds.  EvalProgram plans that
// expression (PlanProgram) and runs it on the plan executor like any
// TriAL query: DP join reordering, the Procedure 3/4 and reach-index
// stars, EXPLAIN / EXPLAIN ANALYZE and the span trace all apply.  The
// translation hands one Expr to every use of a predicate; the planner
// plans and runs such a shared subexpression once (SharedScan), so each
// predicate is computed once, as on the direct route.
//
// The direct route (EvalProgramAll, and EvalProgram's fallback) computes
// predicates bottom-up in dependency order with a greedy atom order and
// a nested matcher; recursive predicates are saturated by fixpoint
// iteration (least-fixpoint semantics, Section 4).  Negated atoms use
// the active-domain complement — the same U that the algebra's
// complement is defined against — and variables bound only by negated
// literals range over the active domain.  EvalProgram falls back to it
// (counting datalog.fallbacks) for three kinds of program:
//
//   * general recursion (AnalyzeProgram's kGeneralRecursive): it lies
//     outside TriAL* and has no translation;
//   * any negated atom: it translates to a complement U − e, which the
//     executor would materialize as |adom|³ triples, where the direct
//     matcher only probes;
//   * a program the translator rejects, e.g. a ~ literal on an object
//     that is not in the store.
//
// Both routes return the same answer, byte for byte, at every thread
// count (datalog_test checks this against the naive TriAL engine too).

#ifndef TRIAL_DATALOG_EVAL_H_
#define TRIAL_DATALOG_EVAL_H_

#include <map>
#include <string>

#include "core/exec_limits.h"
#include "core/plan/plan.h"
#include "datalog/ast.h"
#include "storage/triple_store.h"
#include "util/parallel.h"
#include "util/status.h"

namespace trial {
namespace datalog {

/// Evaluation limits: the shared ExecLimits.  On the plan route they are
/// the executor's: max_result_triples caps every operator's output —
/// joins, unions and all stars stop as soon as they pass it — and the
/// answer; max_rounds caps FixpointStar rounds (the Procedure 3/4 and
/// reach-index stars run no rounds); exec parallelizes the kernels;
/// adaptive plans with the FeedbackCache.  On the direct route
/// max_result_triples caps every derived predicate, max_rounds caps
/// fixpoint iteration, and each (fixpoint round's) rule evaluation
/// chunks the leading positive atom's match range over the thread
/// pool, with per-chunk derivation buffers merged in chunk order.
/// Answers are identical for every thread count on both routes.
struct DatalogOptions : ExecLimits {};

/// The physical plan of `answer_pred`'s TriAL(*) translation, ready for
/// plan::ExecutePlan and Explain / ExplainAnalyze.  A non-OK status names
/// the reason the program must run on the direct route instead:
/// kUnimplemented for general recursion and negated atoms, else the
/// analysis or translation error (kInvalidArgument, kNotFound).
Result<plan::PlanPtr> PlanProgram(const Program& program,
                                  const TripleStore& store,
                                  const std::string& answer_pred = "ans");

/// Evaluates the program; returns the value of `answer_pred`.  Takes the
/// plan route when PlanProgram succeeds — ExecutePlan with `opts`, or
/// plan::ExecuteAdaptive when opts.adaptive is set — and the direct
/// route otherwise.  The result is normalized on either route.
Result<TripleSet> EvalProgram(const Program& program,
                              const TripleStore& store,
                              const std::string& answer_pred = "ans",
                              const DatalogOptions& opts = {});

/// Evaluates the program on the direct route; returns all IDB predicate
/// values.
Result<std::map<std::string, TripleSet>> EvalProgramAll(
    const Program& program, const TripleStore& store,
    const DatalogOptions& opts = {});

}  // namespace datalog
}  // namespace trial

#endif  // TRIAL_DATALOG_EVAL_H_
