// Shared engine resource limits.
//
// Every evaluation entry point — the three TriAL engines, the plan
// executor and the Datalog engine — carries the same knobs: a
// result-size guard and a fixpoint round guard.
// They were historically duplicated between EvalOptions and
// DatalogOptions under diverging names (max_star_rounds vs
// max_fixpoint_rounds, ...); this is the one definition.

#ifndef TRIAL_CORE_EXEC_LIMITS_H_
#define TRIAL_CORE_EXEC_LIMITS_H_

#include <cstddef>

namespace trial {

/// A thread count no engine reads: query execution is serial.  The
/// field exists only because the end-to-end benchmark
/// (perfbench/src/main.cc) assigns it; drop it when that benchmark
/// next changes.
struct ExecOptions {
  size_t num_threads = 1;
};

/// Resource guards shared by every engine.
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
  /// to the plain plan.
  bool adaptive = false;

  /// Unread; see ExecOptions.
  ExecOptions exec;
};

}  // namespace trial

#endif  // TRIAL_CORE_EXEC_LIMITS_H_
