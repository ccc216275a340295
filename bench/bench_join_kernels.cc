// Micro-benchmarks of the evaluator kernels (google-benchmark): the
// hash-join vs nested-loop join, the semi-naive star, selective probe
// joins, the galloping merge join against the probe and hash kernels,
// the triple sort kernel, and set operations on TripleSets.
//
// When TRIAL_BENCH_JSON names a file, the google-benchmark JSON
// reporter writes the results there (the same mechanism as
// bench_reachta / bench_bulk_load), so the committed
// BENCH_join_kernels.json baseline is regenerated by the bench itself:
//
//   TRIAL_BENCH_JSON=BENCH_join_kernels.json ./bench_join_kernels

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/plan/plan.h"
#include "graph/generators.h"
#include "storage/triple_index.h"
#include "util/rng.h"

namespace trial {
namespace {

TripleStore MakeStore(size_t triples) {
  RandomStoreOptions opts;
  opts.num_objects = triples / 8 + 4;
  opts.num_triples = triples;
  opts.seed = 97;
  TripleStore store = RandomTripleStore(opts);
  // Force the one-time lazy normalization (sort) of the relation at
  // setup, so single-iteration rows (MinTime-capped sweeps)
  // measure the join kernels rather than the first-touch sort.  Index
  // permutations are deliberately NOT built here — their lazy,
  // amortization-gated builds are part of what the probe benches
  // measure.
  store.FindRelation("E")->triples();
  return store;
}

ExprPtr CompositionJoin() {
  return Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                    Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
}

void BM_NestedLoopJoin(benchmark::State& state) {
  TripleStore store = MakeStore(static_cast<size_t>(state.range(0)));
  auto engine = MakeNaiveEvaluator();
  ExprPtr e = CompositionJoin();
  for (auto _ : state) {
    auto r = engine->Eval(e, store);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NestedLoopJoin)->Range(128, 2048)->Complexity();

void BM_HashJoin(benchmark::State& state) {
  TripleStore store = MakeStore(static_cast<size_t>(state.range(0)));
  auto engine = MakeSmartEvaluator();
  ExprPtr e = CompositionJoin();
  for (auto _ : state) {
    auto r = engine->Eval(e, store);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HashJoin)->Range(128, 16384)->Complexity();

void BM_SemiNaiveStar(benchmark::State& state) {
  TripleStore store = MakeStore(static_cast<size_t>(state.range(0)));
  auto engine = MakeSmartEvaluator();
  // A non-reach spec forces the generic semi-naive path.
  ExprPtr e = Expr::StarRight(
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2p, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
  for (auto _ : state) {
    auto r = engine->Eval(e, store);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SemiNaiveStar)->Range(128, 2048);

// ---- selective single-column joins ------------------------------------
//
// The workload the permutation indexes exist for: a narrow selection
// joined against a large base relation, on a Zipf-skewed store so key
// frequencies vary sharply.  The smart engine answers these with index
// range probes against the (cached, store-shared) permutation of E
// instead of rebuilding a hash table over all of E on every evaluation.

TripleStore MakeSkewedStore(size_t triples) {
  RandomStoreOptions opts;
  opts.num_objects = triples / 8 + 4;
  opts.num_triples = triples;
  opts.zipf_s = 1.1;
  opts.zipf_o = 1.1;
  opts.seed = 97;
  return RandomTripleStore(opts);
}

// A low-frequency subject constant that is guaranteed to occur: the
// largest subject id present is the deepest Zipf rank actually drawn,
// so its run in the SPO order is a handful of triples.  (The median
// *triple*'s subject would be a hot key — most rows belong to few keys.)
ObjId ColdSubject(const TripleStore& store) {
  const TripleSet& rel = *store.FindRelation("E");
  return rel.triples().back().s;
}

// σ_{1=c}(E) ⋈^{1,2,3'}_{3=1'} E — the join key binds the right side's
// subject column, served by the SPO order directly.
void BM_SelectiveJoin(benchmark::State& state) {
  TripleStore store = MakeSkewedStore(static_cast<size_t>(state.range(0)));
  auto engine = MakeSmartEvaluator();
  ExprPtr e = Expr::Join(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P1, ColdSubject(store))})),
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
  for (auto _ : state) {
    auto r = engine->Eval(e, store);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectiveJoin)->Range(128, 65536)->Complexity();

// σ_{1=c}(E) ⋈^{1,2,3'}_{3=3'} E — the key binds the right side's
// object column, exercising the lazily-built OSP permutation.
void BM_SelectiveJoinObjKey(benchmark::State& state) {
  TripleStore store = MakeSkewedStore(static_cast<size_t>(state.range(0)));
  auto engine = MakeSmartEvaluator();
  ExprPtr e = Expr::Join(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P1, ColdSubject(store))})),
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P3p)}));
  for (auto _ : state) {
    auto r = engine->Eval(e, store);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectiveJoinObjKey)->Range(128, 65536)->Complexity();

// σ_{3=c}(E) alone: constant-selection pushdown through the OSP index
// versus the former linear filter.
void BM_IndexedSelect(benchmark::State& state) {
  TripleStore store = MakeSkewedStore(static_cast<size_t>(state.range(0)));
  const TripleSet& rel = *store.FindRelation("E");
  ObjId c = 0;  // the largest object id present: the coldest Zipf rank
  for (const Triple& t : rel) c = std::max(c, t.o);
  auto engine = MakeSmartEvaluator();
  ExprPtr e = Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P3, c)}));
  for (auto _ : state) {
    auto r = engine->Eval(e, store);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexedSelect)->Range(1024, 65536)->Complexity();

// ---- the galloping merge join ---------------------------------------------
//
// σ_{2=c}(S) ⋈^{1,2,3'}_{3=1'} E.  E is a 2^20-row SPO run over 2^18
// subjects; S is |E|/ratio rows of the single predicate c, so the
// selection is a whole POS range, born sorted on its object, and a
// quarter of its objects are E subjects.  The first argument is the
// ratio (1 to 256).  The second picks the kernel: 0 = the planned
// MergeJoin (via=OSP/SPO), whose cursors gallop; 1 = the same plan run
// as a HashJoin node, whose executor probes E's SPO run once per row or
// hashes E, whichever its size rule (PreferIndexProbe) picks; the
// "probe" counter says which.

TripleStore MakeMergeStore(size_t ratio) {
  constexpr ObjId kRows = ObjId{1} << 20;
  constexpr ObjId kSubjects = ObjId{1} << 18;
  constexpr ObjId kPred = 7;
  Rng rng(151);
  TripleStore store;
  const RelId e = store.AddRelation("E");
  const RelId s = store.AddRelation("S");
  std::vector<Triple> rows(kRows);
  for (Triple& t : rows) {
    t = Triple{static_cast<ObjId>(rng.Below(kSubjects)),
               static_cast<ObjId>(rng.Below(64)),
               static_cast<ObjId>(rng.Below(kRows))};
  }
  store.BulkAppend(e, std::move(rows));
  std::vector<Triple> sel(kRows / ratio);
  for (Triple& t : sel) {
    t = Triple{static_cast<ObjId>(rng.Below(kRows)), kPred,
               static_cast<ObjId>(rng.Below(4 * kSubjects))};
  }
  store.BulkAppend(s, std::move(sel));
  store.FindRelation("E")->triples();
  store.FindRelation("S")->Materialize(IndexOrder::kPOS);
  return store;
}

void BM_GallopMergeJoin(benchmark::State& state) {
  const size_t ratio = static_cast<size_t>(state.range(0));
  const bool merge = state.range(1) == 0;
  TripleStore store = MakeMergeStore(ratio);
  ExprPtr e = Expr::Join(
      Expr::Select(Expr::Rel("S"), Where({EqConst(Pos::P2, 7)})),
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
  plan::PlanPtr p = plan::PlanExpr(e, store);
  if (p->op != plan::PlanOp::kMergeJoin) {
    state.SkipWithError("the planner did not choose a merge join");
    return;
  }
  if (!merge) p->op = plan::PlanOp::kHashJoin;
  for (auto _ : state) {
    auto r = plan::ExecutePlan(*p, store);
    benchmark::DoNotOptimize(r);
  }
  // Counted outside the timed loop: size() sorts the staged output.
  auto r = plan::ExecutePlan(*p, store);
  state.counters["rows"] = r.ok() ? static_cast<double>(r->size()) : -1;
  state.counters["probe"] =
      p->runtime.strategy != nullptr &&
              std::string(p->runtime.strategy) == "probe"
          ? 1
          : 0;
}
BENCHMARK(BM_GallopMergeJoin)
    ->ArgsProduct({{1, 4, 16, 64, 256}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ---- the triple sort kernel ----------------------------------------------
//
// SortTriples (LSD radix, 11-bit digits) against the std::sort it
// replaced, on shuffled rows whose ids span an sp2b_read-sized
// dictionary (~2.6e5 ids, 18 bits).  The sizes are the staged outputs
// of sp2b_read's `correlated` query: 66k, 413k and 828k rows.  The
// second argument picks the kernel: 0 = std::sort (reference),
// 1 = SortTriples.

void BM_SortTriples(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool radix = state.range(1) != 0;
  Rng rng(131);
  std::vector<Triple> input(n);
  for (Triple& t : input) {
    t = Triple{static_cast<ObjId>(rng.Below(263819)),
               static_cast<ObjId>(rng.Below(263819)),
               static_cast<ObjId>(rng.Below(263819))};
  }
  std::vector<Triple> v;
  for (auto _ : state) {
    state.PauseTiming();
    v = input;
    state.ResumeTiming();
    if (radix) {
      SortTriples(&v, IndexOrder::kSPO);
    } else {
      std::sort(v.begin(), v.end());
    }
    benchmark::DoNotOptimize(v.data());
  }
  state.counters["radix"] = radix ? 1 : 0;
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SortTriples)
    ->ArgsProduct({{66000, 413000, 828000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_TripleSetUnion(benchmark::State& state) {
  TripleStore a = MakeStore(static_cast<size_t>(state.range(0)));
  RandomStoreOptions opts;
  opts.num_objects = static_cast<size_t>(state.range(0)) / 8 + 4;
  opts.num_triples = static_cast<size_t>(state.range(0));
  opts.seed = 101;
  TripleStore b = RandomTripleStore(opts);
  const TripleSet& x = *a.FindRelation("E");
  const TripleSet& y = *b.FindRelation("E");
  for (auto _ : state) {
    TripleSet u = TripleSet::Union(x, y);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_TripleSetUnion)->Range(1024, 65536);

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
