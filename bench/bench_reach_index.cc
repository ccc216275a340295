// Interval reachability index vs the Procedure 3 fast path, on the
// same transport workloads as bench_reachta — an A/B that only means
// anything when both columns come from the same host and build, which
// the JSON notes explicitly.
//
// Four sections:
//   * build:     one-time index construction cost (SCC contraction +
//                interval labeling), reported separately so the star
//                comparison is warm-index vs Procedure 3;
//   * star:      full (R JOIN[1,2,3'; 3=1'])* materialization through
//                the warm index (closure expansion) against Procedure
//                3's per-source DFS, outputs verified byte-identical;
//   * walks:     the other walk stars on stores of perfbench's graph_nav
//                shape (30-city regions, ending at its ~50k triples):
//                the lift (E JOIN[1,3',3; 2=1'])* through the warm s→o
//                index against the semi-naive FixpointStar, and the
//                same-middle star through the warm label-product index
//                against Procedure 4.  Derived-base rows run the any-path
//                and same-middle stars over the lift's output, a fresh
//                set with no cached index: cold build + walk (the
//                route the planner takes there) against Procedures
//                3 / 4;
//   * dijkstra:  one weighted shortest-path query (integer rho on the
//                service predicates) across the city line — the
//                DijkstraScan operator's kernel, benchmarked end to end.
//                The sweep ends at the size of perfbench's graph_nav
//                store (~50k triples) and asks a near and a far
//                destination: the search walks SPO ranges, so query_ms
//                follows the settled nodes, not |T|.
//
// When TRIAL_BENCH_JSON names a file, measurements are written in the
// BENCH_reach_index.json schema (the committed baseline regenerates
// from the bench itself).  Every kernel here is serial.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/builder.h"
#include "core/fast_reach.h"
#include "core/plan/plan.h"
#include "core/reach/dijkstra.h"
#include "core/reach/reach_index.h"
#include "graph/generators.h"
#include "storage/data_value.h"
#include "util/parallel.h"

namespace trial {
namespace {

struct StarRow {
  size_t num_triples = 0;
  size_t num_objects = 0;
  double build_ms = 0;      // one-time index construction
  double procedure_ms = 0;  // Procedure 3
  double indexed_ms = 0;    // warm-index EmitStar
  size_t output_triples = 0;
};

struct DijkstraRow {
  size_t num_triples = 0;
  std::string src, dst;
  double query_ms = 0;
  long long distance = 0;
  size_t path_edges = 0;
  size_t settled = 0;
};

// One walk star at one store size: the route it takes today against
// the route it replaced, outputs verified identical.
struct WalkRow {
  size_t num_triples = 0;
  const char* walk = "";      // lift / same-middle / any-path
  const char* base = "";      // stored / derived
  const char* baseline = "";  // the replaced route
  double baseline_ms = 0;
  double build_ms = 0;    // index construction alone
  double indexed_ms = 0;  // warm-index walk (stored) or build + walk
  size_t output_triples = 0;
};

std::vector<StarRow> g_star;
std::vector<WalkRow> g_walk;
std::vector<DijkstraRow> g_dijkstra;

TripleStore MakeStore(size_t n) {
  TransportOptions opts;
  opts.num_cities = n / 4;
  opts.num_services = n / 16 + 2;
  opts.num_companies = 4;
  opts.hierarchy_depth = 2;
  opts.seed = 17;
  return TransportNetwork(opts);
}

// Best-of-3 TimeStable: the minimum is the noise-robust statistic on a
// shared host, where one descheduled run can
// inflate a cell by 50%.
double TimeBest(const std::function<void()>& fn) {
  double best = bench::TimeStable(fn);
  for (int i = 0; i < (bench::SmokeMode() ? 0 : 2); ++i) {
    best = std::min(best, bench::TimeStable(fn));
  }
  return best;
}

void RunStar() {
  std::printf("\n--- star: warm interval index vs Procedure 3 ---\n");
  TablePrinter table({"|T|", "|O|", "build_ms", "proc_ms", "idx_ms",
                      "speedup", "out"});
  std::vector<double> sizes, t_proc, t_idx;
  for (size_t n : bench::Sweep({250, 500, 1000, 2000, 4000})) {
    TripleStore store = MakeStore(n);
    const TripleSet& base = *store.FindRelation("E");
    base.Materialize(IndexOrder::kSPO);

    double build_ms = TimeBest([&] { reach::ReachIndex::Build(base); }) * 1e3;
    auto idx = reach::ReachIndex::Build(base);
    TripleSet want = StarReachAnyPath(base);
    // Warm the memoized closures once so the timed runs measure steady
    // state (the cached-index regime the planner routes to).
    auto warm = idx->EmitStar(base, SIZE_MAX);
    if (!warm.ok() || *warm != want) {
      std::fprintf(stderr, "FATAL: indexed star differs from Procedure 3\n");
      std::exit(1);
    }
    double tp = TimeBest([&] { StarReachAnyPath(base); });
    double ti = TimeBest([&] { (void)idx->EmitStar(base, SIZE_MAX); });
    t_proc.push_back(tp);
    t_idx.push_back(ti);
    g_star.push_back({store.TotalTriples(), store.NumObjects(), build_ms,
                      tp * 1e3, ti * 1e3, want.size()});
    table.AddRow({TablePrinter::Fmt(store.TotalTriples()),
                  TablePrinter::Fmt(store.NumObjects()),
                  TablePrinter::Fmt(build_ms), TablePrinter::Fmt(tp * 1e3),
                  TablePrinter::Fmt(ti * 1e3), TablePrinter::Fmt(tp / ti),
                  TablePrinter::Fmt(want.size())});
    sizes.push_back(static_cast<double>(store.TotalTriples()));
  }
  table.Print();
  bench::ReportFit("Procedure 3", sizes, t_proc);
  bench::ReportFit("warm interval index", sizes, t_idx);
}

// `regions` copies of a 30-city Figure 1 network in one relation E, as
// perfbench's graph_nav builds it: the companies and part_of are
// shared, every other name is per region.
TripleStore MakeRegions(size_t regions) {
  TripleStore all;
  const RelId e = all.AddRelation("E");
  for (size_t k = 0; k < regions; ++k) {
    TransportOptions t;
    t.num_cities = 30;
    t.num_services = 6;
    t.seed = 100 + k;
    TripleStore region = TransportNetwork(t);
    auto name = [&](ObjId id) {
      std::string n(region.ObjectName(id));
      if (n.rfind("co", 0) == 0 || n == "part_of") return n;
      return "r" + std::to_string(k) + "/" + n;
    };
    for (const Triple& tr : region.Relation(0)) {
      all.Add(e, all.InternObject(name(tr.s)), all.InternObject(name(tr.p)),
              all.InternObject(name(tr.o)));
    }
  }
  return all;
}

void CheckSame(const TripleSet& got, const TripleSet& want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "FATAL: %s differs from its replaced route\n", what);
    std::exit(1);
  }
}

void RunWalks() {
  std::printf("\n--- walks: lift and same-middle stars, stored and derived ---\n");
  TablePrinter table({"|T|", "walk", "base", "baseline", "base_ms", "build_ms",
                      "idx_ms", "speedup", "out"});
  const ExecLimits limits;
  auto add = [&](const WalkRow& r) {
    g_walk.push_back(r);
    table.AddRow({TablePrinter::Fmt(r.num_triples), r.walk, r.base,
                  r.baseline, TablePrinter::Fmt(r.baseline_ms),
                  TablePrinter::Fmt(r.build_ms), TablePrinter::Fmt(r.indexed_ms),
                  TablePrinter::Fmt(r.baseline_ms / r.indexed_ms),
                  TablePrinter::Fmt(r.output_triples)});
  };
  const reach::ReachGraph label = reach::ReachGraph::kLabelProduct;
  for (size_t regions : bench::Sweep({50, 200, 1000})) {
    TripleStore store = MakeRegions(regions);
    const TripleSet& e = *store.FindRelation("E");
    e.Materialize(IndexOrder::kSPO);
    const size_t n = store.TotalTriples();

    // Lift: warm s→o index vs the semi-naive fixpoint it replaced.
    ExprPtr lift_expr = Expr::StarRight(
        Expr::Rel("E"),
        Spec(Pos::P1, Pos::P3p, Pos::P3, {Eq(Pos::P2, Pos::P1p)}));
    // The planner routes every walk to the index, so the baseline is
    // defined here as the one-rule fixpoint: seed E, step Δ ⋈ E.
    ExprPtr delta = Expr::Rel("delta");
    const std::vector<plan::FixpointDef> defs = {
        {Expr::Rel("lift"), nullptr, delta, Expr::Rel("E"),
         Expr::Join(delta, Expr::Rel("E"), lift_expr->join_spec()), {}}};
    plan::PlanningHints hints;
    hints.fixpoints = &defs;
    plan::PlanPtr fix = plan::PlanExpr(defs[0].self, store, hints);
    TripleSet lift = *plan::ExecutePlan(*fix, store, limits);
    WalkRow r{n, "lift", "stored", "FixpointStar"};
    r.baseline_ms =
        TimeBest([&] { (void)plan::ExecutePlan(*fix, store, limits); }) * 1e3;
    r.build_ms = TimeBest([&] { reach::ReachIndex::Build(e); }) * 1e3;
    auto so = reach::ReachIndex::Build(e);
    CheckSame(*so->EmitWalk(e, 1, SIZE_MAX), lift, "lift walk");
    r.indexed_ms =
        TimeBest([&] { (void)so->EmitWalk(e, 1, SIZE_MAX); }) * 1e3;
    r.output_triples = lift.size();
    add(r);

    // Same-middle: warm label-product index vs Procedure 4.
    TripleSet same = StarReachSameMiddle(e);
    r = WalkRow{n, "same-middle", "stored", "Procedure 4"};
    r.baseline_ms = TimeBest([&] { StarReachSameMiddle(e); }) * 1e3;
    r.build_ms = TimeBest([&] { reach::ReachIndex::Build(e, label); }) * 1e3;
    auto lp = reach::ReachIndex::Build(e, label);
    CheckSame(*lp->EmitStar(e, SIZE_MAX), same, "same-middle walk");
    r.indexed_ms =
        TimeBest([&] { (void)lp->EmitStar(e, SIZE_MAX); }) * 1e3;
    r.output_triples = same.size();
    add(r);

    // Derived base (the lift's output, as in the paper's query Q): every
    // run pays a cold build, since a derived set's cache dies with it.
    const TripleSet& d = lift;
    TripleSet any_d = StarReachAnyPath(d);
    TripleSet same_d = StarReachSameMiddle(d);
    r = WalkRow{d.size(), "any-path", "derived", "Procedure 3"};
    r.baseline_ms = TimeBest([&] { StarReachAnyPath(d); }) * 1e3;
    r.build_ms = TimeBest([&] { reach::ReachIndex::Build(d); }) * 1e3;
    CheckSame(*reach::ReachIndex::Build(d)->EmitStar(d, SIZE_MAX),
              any_d, "derived any-path walk");
    r.indexed_ms = TimeBest([&] {
                     (void)reach::ReachIndex::Build(d)->EmitStar(d, SIZE_MAX);
                   }) * 1e3;
    r.output_triples = any_d.size();
    add(r);
    r = WalkRow{d.size(), "same-middle", "derived", "Procedure 4"};
    r.baseline_ms = TimeBest([&] { StarReachSameMiddle(d); }) * 1e3;
    r.build_ms =
        TimeBest([&] { reach::ReachIndex::Build(d, label); }) * 1e3;
    CheckSame(
        *reach::ReachIndex::Build(d, label)->EmitStar(d, SIZE_MAX),
        same_d, "derived same-middle walk");
    r.indexed_ms = TimeBest([&] {
                     (void)reach::ReachIndex::Build(d, label)
                         ->EmitStar(d, SIZE_MAX);
                   }) * 1e3;
    r.output_triples = same_d.size();
    add(r);
  }
  table.Print();
}

void RunDijkstra() {
  std::printf("\n--- dijkstra: weighted shortest path over the city line ---\n");
  TablePrinter table({"|T|", "src->dst", "query_ms", "dist", "edges",
                      "settled"});
  for (size_t n : bench::Sweep({1000, 4000, 120000})) {
    TripleStore store = MakeStore(n);
    // Weight the service predicates: svc_i costs (i % 7) + 1 hops-worth,
    // so shortest paths genuinely trade hop count against edge cost.
    for (ObjId id = 0; id < store.NumObjects(); ++id) {
      std::string_view name = store.ObjectName(id);
      if (name.size() > 3 && name.compare(0, 3, "svc") == 0) {
        store.SetValue(id, DataValue::Int(static_cast<int64_t>(id % 7 + 1)));
      }
    }
    const TripleSet& base = *store.FindRelation("E");
    ObjId src = store.FindObject("city0");
    // city16 is a graph_nav-like query that settles tens of nodes at
    // every size; the city line's end settles a growing share of them.
    char last[32];
    std::snprintf(last, sizeof last, "city%zu", n / 4 - 1);
    for (const char* dst_name : {"city16", static_cast<const char*>(last)}) {
      ObjId dst = store.FindObject(dst_name);
      auto sp = reach::DijkstraShortestPath(base, store, src, dst);
      if (!sp.ok() || !sp->reached) {
        std::fprintf(stderr, "FATAL: %s unreachable\n", dst_name);
        std::exit(1);
      }
      double ms = TimeBest([&] {
                    (void)reach::DijkstraShortestPath(base, store, src, dst);
                  }) *
                  1e3;
      g_dijkstra.push_back({store.TotalTriples(), "city0", dst_name, ms,
                            static_cast<long long>(sp->distance),
                            sp->edges.size(), sp->settled});
      table.AddRow({TablePrinter::Fmt(store.TotalTriples()),
                    "city0->" + std::string(dst_name), TablePrinter::Fmt(ms),
                    TablePrinter::Fmt(static_cast<size_t>(sp->distance)),
                    TablePrinter::Fmt(sp->edges.size()),
                    TablePrinter::Fmt(sp->settled)});
    }
  }
  table.Print();
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  size_t host_cores = HardwareThreads();
  std::fprintf(
      f,
      "{\n"
      "  \"benchmark\": \"bench_reach_index\",\n"
      "  \"description\": \"interval reachability index baseline: warm-index "
      "star emission vs Procedure 3 (same host, same build, same run — the "
      "A/B is meaningless across hosts), index build cost reported "
      "separately; walk stars on graph_nav-shaped stores (lift vs "
      "FixpointStar, same-middle vs Procedure 4, warm index on the stored "
      "relation; cold build + walk on the lift's derived output vs "
      "Procedures 3/4), serial kernels; plus weighted Dijkstra path "
      "queries\",\n"
      "  \"host_cores\": %zu,\n"
      "  \"star\": [\n",
      host_cores);
  for (size_t i = 0; i < g_star.size(); ++i) {
    const StarRow& m = g_star[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"num_triples\": %zu,\n"
                 "      \"num_objects\": %zu,\n"
                 "      \"build_ms\": %.3f,\n"
                 "      \"procedure_ms\": %.3f,\n"
                 "      \"indexed_ms\": %.3f,\n"
                 "      \"speedup\": %.1f,\n"
                 "      \"output_triples\": %zu\n"
                 "    }%s\n",
                 m.num_triples, m.num_objects, m.build_ms,
                 m.procedure_ms, m.indexed_ms,
                 m.indexed_ms > 0 ? m.procedure_ms / m.indexed_ms : 0,
                 m.output_triples, i + 1 == g_star.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"walks\": [\n");
  for (size_t i = 0; i < g_walk.size(); ++i) {
    const WalkRow& m = g_walk[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"num_triples\": %zu,\n"
                 "      \"walk\": \"%s\",\n"
                 "      \"base\": \"%s\",\n"
                 "      \"baseline\": \"%s\",\n"
                 "      \"baseline_ms\": %.3f,\n"
                 "      \"build_ms\": %.3f,\n"
                 "      \"indexed_ms\": %.3f,\n"
                 "      \"speedup\": %.1f,\n"
                 "      \"output_triples\": %zu\n"
                 "    }%s\n",
                 m.num_triples, m.walk, m.base, m.baseline, m.baseline_ms,
                 m.build_ms, m.indexed_ms,
                 m.indexed_ms > 0 ? m.baseline_ms / m.indexed_ms : 0,
                 m.output_triples, i + 1 == g_walk.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"dijkstra\": [\n");
  for (size_t i = 0; i < g_dijkstra.size(); ++i) {
    const DijkstraRow& m = g_dijkstra[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"num_triples\": %zu,\n"
                 "      \"src\": \"%s\",\n"
                 "      \"dst\": \"%s\",\n"
                 "      \"query_ms\": %.3f,\n"
                 "      \"distance\": %lld,\n"
                 "      \"path_edges\": %zu,\n"
                 "      \"settled\": %zu\n"
                 "    }%s\n",
                 m.num_triples, m.src.c_str(), m.dst.c_str(), m.query_ms,
                 m.distance, m.path_edges, m.settled,
                 i + 1 == g_dijkstra.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void Run() {
  bench::Banner("Interval reachability index + weighted shortest paths",
                "FERRARI-style SCC/interval index: warm star emission vs "
                "Procedure 3, build cost separate, Dijkstra over rho "
                "weights");
  RunStar();
  RunWalks();
  RunDijkstra();
  std::printf(
      "\nexpected: warm-index emission is a closure copy (output-bound),\n"
      "so it beats Procedure 3's per-source DFS by >= 10x at the larger\n"
      "sizes; the one-time build cost amortizes across repeated stars.\n");
  if (const char* path = std::getenv("TRIAL_BENCH_JSON")) WriteJson(path);
}

}  // namespace
}  // namespace trial

int main() {
  trial::Run();
  return 0;
}
