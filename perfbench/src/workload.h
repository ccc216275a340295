// Workload definitions for the end-to-end TriAL benchmark: the seeded
// N-Triples document each workload loads, the op mix it runs, and the
// write batches of the write-probe ops.
//
// Everything here is derived from the workload seed; the engine only
// ever sees the generated document, query texts and write batches.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/triple_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

enum class OpKind {
  kTriAL,         ///< ParseTriAL -> Optimize -> Evaluator::Eval -> decode
  kDatalog,       ///< datalog::ParseProgram -> EvalProgram -> decode
  kShortestPath,  ///< plan::PlanShortestPath -> ExecutePlan -> decode
};

/// One distinct read op of a mix.
struct ReadOp {
  OpKind kind = OpKind::kTriAL;
  std::string tmpl;   ///< template name: the unit of query_geomean_ms
  std::string text;   ///< TriAL expression or Datalog program
  std::string src;    ///< shortest path: source object name
  std::string dst;    ///< shortest path: destination object name
  size_t weight = 1;  ///< occurrences per pass of the mix
};

/// The knobs and inputs of one workload.
struct Workload {
  std::string name;
  uint64_t seed = 1;
  std::string document;         ///< N-Triples text loaded at set-up
  size_t triples = 0;           ///< sp2b_read: triples in the document
  size_t exec_threads = 1;      ///< ExecOptions::num_threads, never 0
  /// Set-ups per round of a run: the measured store's, then one
  /// between each of the pieces the round's warm slice is cut into
  /// (setup_s is the median over all of them).
  size_t setups_per_round = 1;
  bool adaptive = false;        ///< ExecLimits::adaptive
  /// Index into `reads` of the correlated chain whose adaptive result
  /// is checked against the static plan (-1: no such check).
  int correlated_op = -1;
  /// Index into `reads` of the Datalog op whose result is checked
  /// against smart Eval of ProgramToTriAL (-1: none).
  int datalog_op = -1;
  std::vector<ReadOp> reads;    ///< filled by MakeReads
};

/// The document and knobs of workload `name` for `seed`.  Errors with
/// kInvalidArgument on an unknown name.
trial::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Draws the op mix of `w` from its seed.  Constants are drawn from the
/// generated vocabulary and kept only when they occur in `store` (the
/// loaded document), so no op fails on an unknown name.
void MakeReads(const trial::TripleStore& store, Workload* w);

/// One pass of the mix: every read op `weight` times, in a seeded
/// shuffle, so a slow stretch of the host hits every template alike.
std::vector<int> MakePass(const Workload& w, trial::Rng* rng);

/// A write op's batch: 16 new triples on one fresh subject, with fresh
/// objects and four fresh predicates, so the batch joins nothing the
/// read templates are anchored on and every read answer is unchanged
/// by writes.  `k` numbers the write; names are unique per k.
struct WriteBatch {
  std::string subject;
  std::vector<std::array<std::string, 3>> triples;
};
WriteBatch MakeWriteBatch(size_t k, trial::Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
