// Shared engine resource limits.
//
// Every evaluation entry point — the three TriAL engines, the plan
// executor and the Datalog engine — carries the same three knobs: a
// result-size guard, a fixpoint round guard and the parallel ExecOptions.
// They were historically duplicated between EvalOptions and
// DatalogOptions under diverging names (max_star_rounds vs
// max_fixpoint_rounds, ...); this is the one definition.

#ifndef TRIAL_CORE_EXEC_LIMITS_H_
#define TRIAL_CORE_EXEC_LIMITS_H_

#include <cstddef>

#include "util/parallel.h"

namespace trial {

/// Resource guards + parallel knobs shared by every engine.
struct ExecLimits {
  /// Abort with kResourceExhausted when any intermediate (TriAL) or
  /// derived (Datalog) result exceeds this many triples — guards U /
  /// complement and runaway joins on large stores.
  size_t max_result_triples = 50'000'000;

  /// Abort a fixpoint (Kleene star / recursive predicate) after this
  /// many rounds.  The theoretical bound |T| <= n^3 always terminates
  /// first; this is a safety net.
  size_t max_rounds = 10'000'000;

  /// Learn from execution: the smart evaluator plans each query with
  /// the process FeedbackCache's observed cardinalities and records what
  /// the executed plan produced (plan::ExecuteAdaptive), so later plans
  /// of an expression it has run start from the true counts.  Join
  /// *order* may change between executions; results are byte-identical
  /// to the plain plan at any thread count.
  bool adaptive = false;

  /// Parallel execution knobs, honored by the plan executor's join and
  /// fixpoint kernels, the Procedure 3/4 fast paths and the Datalog
  /// leading-atom matcher; the naive and matrix reference engines stay
  /// serial.  Results are identical for every thread count (chunked
  /// execution, in-order merge).
  ExecOptions exec;
};

}  // namespace trial

#endif  // TRIAL_CORE_EXEC_LIMITS_H_
