// Plan-optimizer benchmarks (google-benchmark): the order-preserving
// merge join against the per-call hash join on the same inputs, and the
// DP join reorderer's bushy order against the written order on a
// Zipf-skewed 3-relation join.  Both A/B pairs run the same executor on
// explicit plan trees, so the deltas isolate plan choice — kernel and
// order — rather than engine overheads.
//
// When TRIAL_BENCH_JSON names a file, the google-benchmark JSON
// reporter writes the results there (same mechanism as
// bench_join_kernels), so the committed BENCH_plan_opt.json baseline is
// regenerated by the bench itself:
//
//   TRIAL_BENCH_JSON=BENCH_plan_opt.json ./bench_plan_opt

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/plan/plan.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace trial {
namespace {

// Uniform store (same shape as bench_join_kernels' MakeStore),
// pre-normalized so first-touch sorts don't pollute single-iteration
// rows.  Permutations are NOT pre-built: their lazy, store-shared
// builds are part of what the merge rows amortize.  Uniform rather
// than Zipf here on purpose: under heavy skew both kernels spend their
// time emitting the same giant equal-key cross products, which masks
// the per-tuple kernel difference this pair isolates.
TripleStore MakeUniformStore(size_t triples) {
  RandomStoreOptions opts;
  opts.num_objects = triples / 8 + 4;
  opts.num_triples = triples;
  opts.seed = 97;
  TripleStore store = RandomTripleStore(opts);
  store.FindRelation("E")->triples();
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  return store;
}

plan::PlanPtr Scan(const std::string& rel) {
  auto n = std::make_unique<plan::PlanNode>();
  n->op = plan::PlanOp::kIndexScan;
  n->rel_name = rel;
  return n;
}

// A join node pinned to the hash kernel (the pre-merge-join executor's
// only choice when neither side is selective enough to probe).
plan::PlanPtr HashJoinNode(plan::PlanPtr l, plan::PlanPtr r, JoinSpec spec) {
  auto n = std::make_unique<plan::PlanNode>();
  n->op = plan::PlanOp::kHashJoin;
  n->spec = std::move(spec);
  n->children.push_back(std::move(l));
  n->children.push_back(std::move(r));
  return n;
}

JoinSpec Composition() {
  return Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)});
}

// ---- merge vs hash on the sorted permutations ---------------------------
//
// The composition self-join E ⋈_{3=1'} E: both runs are index-ordered
// (OSP on the left, the SPO base on the right), so the merge join walks
// them in step where the hash join rebuilds an |E|-entry table on every
// call.

void BM_SelfJoinMergePlan(benchmark::State& state) {
  TripleStore store = MakeUniformStore(static_cast<size_t>(state.range(0)));
  ExprPtr e = Expr::Join(Expr::Rel("E"), Expr::Rel("E"), Composition());
  plan::PlanPtr p = plan::PlanExpr(e, store);
  for (auto _ : state) {
    auto r = plan::ExecutePlan(*p, store);
    benchmark::DoNotOptimize(r);
  }
  // The planner must actually have chosen the merge kernel, or this
  // row measures the wrong thing.
  if (p->op != plan::PlanOp::kMergeJoin) {
    state.SkipWithError("planner did not choose MergeJoin");
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelfJoinMergePlan)->Range(4096, 65536)->Complexity();

void BM_SelfJoinHashPlan(benchmark::State& state) {
  TripleStore store = MakeUniformStore(static_cast<size_t>(state.range(0)));
  plan::PlanPtr p = HashJoinNode(Scan("E"), Scan("E"), Composition());
  for (auto _ : state) {
    auto r = plan::ExecutePlan(*p, store);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelfJoinHashPlan)->Range(4096, 65536)->Complexity();

// ---- DP reordering on a 3-relation Zipf join ----------------------------
//
// Written order: (big ⋈ big) ⋈ tiny — the worst composition, its
// intermediate is ~|E|²/d rows.  The DP pulls the 32-triple relation
// into the first join, keeping every intermediate tiny-scale.

TripleStore MultiJoinStore(size_t triples) {
  RandomStoreOptions opts;
  opts.num_objects = triples / 8 + 4;
  opts.num_triples = triples;
  opts.num_relations = 2;  // "E", "E1": the big sides
  opts.zipf_p = 1.1;
  opts.zipf_o = 0.9;
  opts.seed = 29;
  TripleStore store = RandomTripleStore(opts);
  Rng rng(31);
  RelId tiny = store.AddRelation("tiny");
  auto obj = [&] {
    return store.InternObject("o" + std::to_string(rng.Below(opts.num_objects)));
  };
  for (int i = 0; i < 32; ++i) store.Add(tiny, obj(), obj(), obj());
  for (RelId r = 0; r < store.NumRelations(); ++r) {
    store.Relation(r).triples();
    store.RelationStats(r);
  }
  return store;
}

void BM_MultiJoinWrittenOrder(benchmark::State& state) {
  TripleStore store = MultiJoinStore(static_cast<size_t>(state.range(0)));
  // The written order as the pre-reorderer planner lowered it: pairwise
  // joins in expression order (strategies still re-decided at runtime).
  plan::PlanPtr p = HashJoinNode(
      HashJoinNode(Scan("E"), Scan("E1"), Composition()), Scan("tiny"),
      Composition());
  for (auto _ : state) {
    auto r = plan::ExecutePlan(*p, store);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MultiJoinWrittenOrder)->Range(2048, 16384)->Complexity();

void BM_MultiJoinReordered(benchmark::State& state) {
  TripleStore store = MultiJoinStore(static_cast<size_t>(state.range(0)));
  ExprPtr e = Expr::Join(
      Expr::Join(Expr::Rel("E"), Expr::Rel("E1"), Composition()),
      Expr::Rel("tiny"), Composition());
  plan::PlanPtr p = plan::PlanExpr(e, store);
  for (auto _ : state) {
    auto r = plan::ExecutePlan(*p, store);
    benchmark::DoNotOptimize(r);
  }
  // The DP must have moved "tiny" off the root, or the row is mislabeled.
  if (p->children[0]->rel_name == "tiny" ||
      p->children[1]->rel_name == "tiny") {
    state.SkipWithError("reorderer kept the written order");
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MultiJoinReordered)->Range(2048, 16384)->Complexity();

}  // namespace
}  // namespace trial

// BENCHMARK_MAIN, plus TRIAL_BENCH_JSON support: the env var is turned
// into --benchmark_out flags before Initialize consumes the arg list.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, format_flag;
  if (const char* path = std::getenv("TRIAL_BENCH_JSON")) {
    out_flag = std::string("--benchmark_out=") + path;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
