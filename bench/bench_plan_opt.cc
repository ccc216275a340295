// Plan-optimizer benchmarks: the order-preserving merge join against
// the per-call hash join on the same inputs, and the DP join
// reorderer's bushy order against the written order on a Zipf-skewed
// 3-relation join.  Both A/B pairs run the same executor on explicit
// plan trees, so the deltas isolate plan choice — kernel and order —
// rather than engine overheads.  Every cell is the best of three
// TimeStable runs.
//
// TRIAL_BENCH_JSON=BENCH_plan_opt.json regenerates the committed
// baseline.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/builder.h"
#include "core/plan/plan.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace trial {
namespace {

// Uniform store (same shape as bench_join_kernels' MakeStore),
// pre-normalized so first-touch sorts don't pollute the timed runs.
// Permutations are NOT pre-built: their lazy, store-shared builds are
// part of what the merge rows amortize.  Uniform rather than Zipf here
// on purpose: under heavy skew both kernels spend their time emitting
// the same giant equal-key cross products, which masks the per-tuple
// kernel difference this pair isolates.
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

void RunSelfJoin() {
  std::printf("\n--- self_join: planned merge vs pinned hash ---\n");
  bench::Table& table = bench::AddTable(
      "self_join", {"triples", "merge_ms", "hash_ms", "hash_over_merge"});
  std::vector<double> sizes, t_merge, t_hash;
  for (size_t n : bench::Sweep({4096, 32768, 65536})) {
    TripleStore store = MakeUniformStore(n);
    ExprPtr e = Expr::Join(Expr::Rel("E"), Expr::Rel("E"), Composition());
    plan::PlanPtr merge = plan::PlanExpr(e, store);
    // The planner must actually choose the merge kernel, or this row
    // measures the wrong thing.
    bench::Require(merge->op == plan::PlanOp::kMergeJoin,
                   "planner must choose MergeJoin");
    plan::PlanPtr hash = HashJoinNode(Scan("E"), Scan("E"), Composition());
    double tm = bench::TimeBest([&] { (void)plan::ExecutePlan(*merge, store); });
    double th = bench::TimeBest([&] { (void)plan::ExecutePlan(*hash, store); });
    table.AddRow({n, tm * 1e3, th * 1e3, bench::Cell(th / tm, 2)});
    sizes.push_back(static_cast<double>(n));
    t_merge.push_back(tm);
    t_hash.push_back(th);
  }
  table.Print();
  bench::ReportFit("planned merge join", sizes, t_merge);
  bench::ReportFit("pinned hash join", sizes, t_hash);
}

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

void RunMultiJoin() {
  std::printf("\n--- multi_join: written order vs DP-reordered ---\n");
  bench::Table& table = bench::AddTable(
      "multi_join",
      {"triples", "written_ms", "reordered_ms", "written_over_reordered"});
  std::vector<double> sizes, t_written, t_reordered;
  for (size_t n : bench::Sweep({2048, 4096, 16384})) {
    TripleStore store = MultiJoinStore(n);
    // The written order as the pre-reorderer planner lowered it: pairwise
    // joins in expression order (strategies still re-decided at runtime).
    plan::PlanPtr written = HashJoinNode(
        HashJoinNode(Scan("E"), Scan("E1"), Composition()), Scan("tiny"),
        Composition());
    ExprPtr e = Expr::Join(
        Expr::Join(Expr::Rel("E"), Expr::Rel("E1"), Composition()),
        Expr::Rel("tiny"), Composition());
    plan::PlanPtr reordered = plan::PlanExpr(e, store);
    // The DP must move "tiny" off the root, or the row is mislabeled.
    bench::Require(reordered->children[0]->rel_name != "tiny" &&
                       reordered->children[1]->rel_name != "tiny",
                   "reorderer must move tiny");
    double tw =
        bench::TimeBest([&] { (void)plan::ExecutePlan(*written, store); });
    double tr =
        bench::TimeBest([&] { (void)plan::ExecutePlan(*reordered, store); });
    table.AddRow({n, tw * 1e3, tr * 1e3, bench::Cell(tw / tr, 1)});
    sizes.push_back(static_cast<double>(n));
    t_written.push_back(tw);
    t_reordered.push_back(tr);
  }
  table.Print();
  bench::ReportFit("written order", sizes, t_written);
  bench::ReportFit("DP-reordered", sizes, t_reordered);
}

}  // namespace
}  // namespace trial

int main() {
  trial::bench::Banner("plan optimizer: join kernel and join order",
                       "the planner's merge join and DP join order beat the "
                       "hash join and the written order on the same inputs");
  trial::RunSelfJoin();
  trial::RunMultiJoin();
  return trial::bench::Finish(
      "bench_plan_opt",
      "plan choice A/B on one executor: planned merge join vs pinned hash "
      "join on the uniform composition self-join; written order vs the DP "
      "reorderer's plan on a Zipf-skewed 3-relation join");
}
