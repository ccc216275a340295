// Evaluation of TripleDatalog¬ / ReachTripleDatalog¬ programs over a
// triplestore, on the plan layer.
//
// By Proposition 2 and Theorem 2 a nonrecursive or Reach TripleDatalog¬
// program is exactly the TriAL(*) expression ProgramToTriAL builds;
// ProgramToPlanInput adds a semi-naive fixpoint per general-recursive
// predicate (to_trial.h).  PlanProgram plans that and EvalProgram runs
// it like any TriAL query, EXPLAIN and the span trace included.  A
// predicate used several times is computed once (SharedScan).
//
// Semantics (Section 4): least fixpoints, inflationary where a
// recursive predicate reads itself negated; negated atoms and variables
// bound only by them range over the active domain.

#ifndef TRIAL_DATALOG_EVAL_H_
#define TRIAL_DATALOG_EVAL_H_

#include <string>

#include "core/exec_limits.h"
#include "core/plan/plan.h"
#include "datalog/ast.h"
#include "storage/triple_store.h"
#include "util/status.h"

namespace trial {
namespace datalog {

/// Evaluation limits: the shared ExecLimits, applied by the executor.
/// max_result_triples caps every operator's output — joins, unions,
/// fixpoints and all stars stop as soon as they pass it — and the
/// answer; max_rounds caps FixpointStar rounds (the reach-index stars
/// run no rounds); adaptive plans with the FeedbackCache.
struct DatalogOptions : ExecLimits {};

/// The physical plan computing `answer_pred`, for plan::ExecutePlan and
/// Explain / ExplainAnalyze.  Fails only where ProgramToPlanInput does.
Result<plan::PlanPtr> PlanProgram(const Program& program,
                                  const TripleStore& store,
                                  const std::string& answer_pred = "ans");

/// Evaluates the program; returns the value of `answer_pred`.  Runs
/// PlanProgram's plan with ExecutePlan and `opts`, or plans and runs it
/// through plan::ExecuteAdaptive when opts.adaptive is set.  The result
/// is normalized.
Result<TripleSet> EvalProgram(const Program& program,
                              const TripleStore& store,
                              const std::string& answer_pred = "ans",
                              const DatalogOptions& opts = {});

}  // namespace datalog
}  // namespace trial

#endif  // TRIAL_DATALOG_EVAL_H_
