// Micro-benchmarks of the evaluator kernels: the nested-loop join, the
// semi-naive fixpoint star, selective probe joins, the galloping merge
// join against the probe and hash kernels, the triple sort kernel, and
// set operations on TripleSets.  Every cell is the best of three
// TimeStable runs.
//
// TRIAL_BENCH_JSON=BENCH_join_kernels.json regenerates the committed
// baseline.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
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
  // setup, so the rows measure the join kernels rather than the
  // first-touch sort.  Index permutations are deliberately NOT built
  // here — their lazy, amortization-gated builds are part of what the
  // probe benches measure.
  store.FindRelation("E")->triples();
  return store;
}

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

// σ_{1=c}(E) ⋈^{1,2,3'}_{3=key} E with c a cold subject.
ExprPtr SelectiveJoin(const TripleStore& store, Pos key) {
  return Expr::Join(
      Expr::Select(Expr::Rel("E"),
                   Where({EqConst(Pos::P1, ColdSubject(store))})),
      Expr::Rel("E"), Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, key)}));
}

// A table of `engine`'s Eval time on expr(make(n)) for each size n,
// with its fitted growth exponent.
void EvalSweep(const char* name, Evaluator& engine,
               std::initializer_list<size_t> sizes,
               TripleStore (*make)(size_t),
               const std::function<ExprPtr(const TripleStore&)>& expr) {
  std::printf("\n--- %s ---\n", name);
  bench::Table& table = bench::AddTable(name, {"triples", "us"});
  std::vector<double> xs, ts;
  for (size_t n : bench::Sweep(sizes)) {
    TripleStore store = make(n);
    ExprPtr e = expr(store);
    double t = bench::TimeBest([&] { (void)engine.Eval(e, store); });
    table.AddRow({n, t * 1e6});
    xs.push_back(static_cast<double>(n));
    ts.push_back(t);
  }
  table.Print();
  bench::ReportFit(name, xs, ts);
}

// ---- the galloping merge join ---------------------------------------------
//
// σ_{2=c}(S) ⋈^{1,2,3'}_{3=1'} E.  E is a 2^20-row SPO run over 2^18
// subjects; S is |E|/ratio rows of the single predicate c, so the
// selection is a whole POS range, born sorted on its object, and a
// quarter of its objects are E subjects.  The ratio runs 1 to 256.
// Each ratio times two kernels: "merge" = the planned MergeJoin
// (via=OSP/SPO), whose cursors gallop; "hash" = the same plan run as a
// HashJoin node, whose executor probes E's SPO run once per row or
// hashes E, whichever its size rule (PreferIndexProbe) picks; the
// "probe" column says which.

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

void RunGallopMergeJoin() {
  std::printf("\n--- gallop_merge_join ---\n");
  bench::Table& table = bench::AddTable(
      "gallop_merge_join", {"ratio", "plan", "ms", "rows", "probe"});
  for (size_t ratio : bench::Sweep({1, 4, 16, 64, 256})) {
    TripleStore store = MakeMergeStore(ratio);
    ExprPtr e = Expr::Join(
        Expr::Select(Expr::Rel("S"), Where({EqConst(Pos::P2, 7)})),
        Expr::Rel("E"),
        Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
    plan::PlanPtr p = plan::PlanExpr(e, store);
    bench::Require(p->op == plan::PlanOp::kMergeJoin,
                   "planner must choose MergeJoin");
    for (plan::PlanOp op : {plan::PlanOp::kMergeJoin, plan::PlanOp::kHashJoin}) {
      p->op = op;
      double t = bench::TimeBest([&] { (void)plan::ExecutePlan(*p, store); });
      // Counted outside the timed runs: size() sorts the staged output.
      auto r = plan::ExecutePlan(*p, store);
      bench::Require(r.ok(), "gallop_merge_join failed");
      const bool probe = p->runtime.strategy != nullptr &&
                         std::string(p->runtime.strategy) == "probe";
      table.AddRow({ratio, op == plan::PlanOp::kMergeJoin ? "merge" : "hash",
                    t * 1e3, r->size(), probe ? 1 : 0});
    }
  }
  table.Print();
}

// ---- the triple sort kernel ----------------------------------------------
//
// SortTriples (LSD radix, 11-bit digits) against the std::sort it
// replaced, on shuffled rows whose ids span an sp2b_read-sized
// dictionary (~2.6e5 ids, 18 bits).  The sizes are the staged outputs
// of sp2b_read's `correlated` query: 66k, 413k and 828k rows.  The
// radix column picks the kernel: 0 = std::sort (reference),
// 1 = SortTriples.

void RunSortTriples() {
  std::printf("\n--- sort_triples ---\n");
  bench::Table& table = bench::AddTable(
      "sort_triples", {"triples", "radix", "ms", "triples_per_s"});
  for (size_t n : bench::Sweep({66000, 413000, 828000})) {
    Rng rng(131);
    std::vector<Triple> input(n);
    for (Triple& t : input) {
      t = Triple{static_cast<ObjId>(rng.Below(263819)),
                 static_cast<ObjId>(rng.Below(263819)),
                 static_cast<ObjId>(rng.Below(263819))};
    }
    std::vector<Triple> v;
    for (bool radix : {false, true}) {
      // The input copy runs before each repetition, outside the timing.
      double t = bench::TimeBest(
          [&] {
            if (radix) {
              SortTriples(&v, IndexOrder::kSPO);
            } else {
              std::sort(v.begin(), v.end());
            }
          },
          [&] { v = input; });
      table.AddRow({n, radix ? 1 : 0, t * 1e3,
                    bench::Cell(static_cast<double>(n) / t, 0)});
    }
  }
  table.Print();
}

void RunTripleSetUnion() {
  std::printf("\n--- triple_set_union ---\n");
  bench::Table& table = bench::AddTable("triple_set_union", {"triples", "us"});
  for (size_t n : bench::Sweep({1024, 4096, 32768, 65536})) {
    TripleStore a = MakeStore(n);
    RandomStoreOptions opts;
    opts.num_objects = n / 8 + 4;
    opts.num_triples = n;
    opts.seed = 101;
    TripleStore b = RandomTripleStore(opts);
    const TripleSet& x = *a.FindRelation("E");
    const TripleSet& y = *b.FindRelation("E");
    double t = bench::TimeBest([&] { TripleSet::Union(x, y); });
    table.AddRow({n, t * 1e6});
  }
  table.Print();
}

void Run() {
  bench::Banner("evaluator kernels",
                "joins, stars, selective probes, merge vs probe vs hash, "
                "the triple sort and set union, each swept over its input");
  auto naive = MakeNaiveEvaluator();
  auto smart = MakeSmartEvaluator();
  const JoinSpec composition =
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)});
  EvalSweep("nested_loop_join", *naive, {128, 512, 2048}, MakeStore,
            [&](const TripleStore&) {
              return Expr::Join(Expr::Rel("E"), Expr::Rel("E"), composition);
            });
  // A non-reach spec plans the semi-naive FixpointStar.
  EvalSweep("fixpoint_star", *smart, {128, 512, 2048}, MakeStore,
            [](const TripleStore&) {
              return Expr::StarRight(
                  Expr::Rel("E"), Spec(Pos::P1, Pos::P2p, Pos::P3p,
                                       {Eq(Pos::P3, Pos::P1p)}));
            });
  // The key binds the right side's subject column, served by the SPO
  // order directly.
  EvalSweep("selective_join", *smart, {128, 512, 4096, 32768, 65536},
            MakeSkewedStore,
            [](const TripleStore& s) { return SelectiveJoin(s, Pos::P1p); });
  // The key binds the right side's object column, exercising the
  // lazily-built OSP permutation.
  EvalSweep("selective_join_obj_key", *smart, {128, 512, 4096, 32768, 65536},
            MakeSkewedStore,
            [](const TripleStore& s) { return SelectiveJoin(s, Pos::P3p); });
  // σ_{3=c}(E) alone, c the coldest object: constant-selection pushdown
  // through the OSP index.
  EvalSweep("indexed_select", *smart, {1024, 4096, 32768, 65536},
            MakeSkewedStore, [](const TripleStore& s) {
              ObjId c = 0;
              for (const Triple& t : *s.FindRelation("E")) {
                c = std::max(c, t.o);
              }
              return Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P3, c)}));
            });
  RunGallopMergeJoin();
  RunSortTriples();
  RunTripleSetUnion();
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return trial::bench::Finish(
      "bench_join_kernels",
      "evaluator kernel micro-benchmarks, best of three: nested-loop join, "
      "fixpoint star, selective probe joins, indexed select, galloping "
      "merge join vs the probe/hash kernels (1:1 to 1:256), SortTriples vs "
      "std::sort, TripleSet union");
}
