#include "datalog/eval.h"

#include "core/plan/adapt.h"
#include "datalog/to_trial.h"
#include "util/metrics.h"

namespace trial {
namespace datalog {
namespace {

// The rounds the plan's fixpoints ran.
uint64_t FixpointRounds(const plan::PlanNode& n) {
  uint64_t rounds = n.op == plan::PlanOp::kFixpointStar ? n.runtime.rounds : 0;
  for (const plan::PlanPtr& c : n.children) rounds += FixpointRounds(*c);
  return rounds;
}

}  // namespace

Result<plan::PlanPtr> PlanProgram(const Program& program,
                                  const TripleStore& store,
                                  const std::string& answer_pred) {
  TRIAL_ASSIGN_OR_RETURN(ProgramPlanInput in,
                         ProgramToPlanInput(program, store, answer_pred));
  plan::PlanningHints hints;
  hints.fixpoints = &in.fixpoints;
  return plan::PlanExpr(in.answer, store, hints);
}

Result<TripleSet> EvalProgram(const Program& program, const TripleStore& store,
                              const std::string& answer_pred,
                              const DatalogOptions& opts) {
  const bool metrics = MetricsEnabled();
  const uint64_t t0 = metrics ? MonotonicNanos() : 0;
  plan::PlanPtr pl;
  Result<TripleSet> result = TripleSet();
  if (opts.adaptive) {
    TRIAL_ASSIGN_OR_RETURN(ProgramPlanInput in,
                           ProgramToPlanInput(program, store, answer_pred));
    plan::AdaptiveResult ar;
    result = plan::ExecuteAdaptive(in.answer, store, opts, /*profile=*/false,
                                   &ar, /*fb=*/nullptr, &in.fixpoints);
    pl = std::move(ar.plan);
  } else {
    TRIAL_ASSIGN_OR_RETURN(pl, PlanProgram(program, store, answer_pred));
    result = plan::ExecutePlan(*pl, store, opts);
    // The answer is returned normalized, so counting it here is free.
    if (result.ok()) plan::RecordRootRows(*pl, *result);
  }
  if (!result.ok()) return result.status();
  // The executor caps every operator that builds a result; this catches
  // an answer that is a stored relation read whole.
  const size_t rows = result->size();
  if (rows > opts.max_result_triples) {
    return Status::ResourceExhausted("predicate " + answer_pred +
                                     " too large");
  }
  if (metrics) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("datalog.programs")->Increment();
    reg.GetCounter("datalog.fixpoint_rounds")->Add(FixpointRounds(*pl));
    reg.GetHistogram("datalog.derived_rows")->Observe(rows);
    reg.GetHistogram("datalog.program_ns")->Observe(MonotonicNanos() - t0);
  }
  return result;
}

}  // namespace datalog
}  // namespace trial
