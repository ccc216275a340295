// trial_store: the end-to-end "real dataset in, answers out" tool —
// bulk-load an N-Triples file into a triplestore, print store stats,
// and optionally evaluate a TriAL expression against it.
//
//   $ ./examples/trial_store --gen=1000000 --zipf-p=1.2 /tmp/m.nt
//   $ ./examples/trial_store --threads=4 --by-predicate /tmp/m.nt
//   $ ./examples/trial_store /tmp/m.nt --query="(E JOIN[1,2,3'; 3=1'] E)"
//
// Options:
//   --gen=N          first write a synthetic ~N-triple document to <file>
//   --zipf-s/p/o=F   generator skew exponents (with --gen)
//   --dirty=F        with --gen: fraction F each of literal-object,
//                    blank-node and comment lines (real-dump shape)
//   --threads=N      loader workers (default: hardware concurrency)
//   --relation=NAME  target relation in single-relation mode (default E)
//   --by-predicate   one relation per distinct predicate
//   --strict         hard-error on literals/blank nodes (default: skip+count)
//   --legacy         load via the legacy ParseNTriplesFile path instead
//   --verify         load both ways, check name-level store equivalence
//   --query=EXPR     evaluate a TriAL(*) expression, print the result
//   --sp-src=NAME    weighted shortest paths from object NAME over the
//                    target relation (DijkstraScan; edge weight =
//                    integer rho(predicate), else 1).  Without
//                    --sp-dst: the full shortest-path tree
//   --sp-dst=NAME    with --sp-src: one shortest path to object NAME,
//                    printed edge by edge with the total distance
//   --explain        with --query: evaluate through the physical plan
//                    layer and print the operator tree with estimated
//                    vs actual cardinalities
//   --analyze        like --explain, but profile the execution: each
//                    operator line adds actual rows, estimate q-error,
//                    strategy taken, self and cumulative wall time and
//                    peak intermediate size
//   --trace=PATH     with --analyze: export the profiled run as a
//                    nested-span JSON trace (parent-child operator
//                    nesting, nanosecond timestamps from query start)
//   --metrics=PATH   enable the process metrics registry and write its
//                    JSON snapshot (loader/segment/pool/exec
//                    counters and histograms) on exit
//   --query-threads=N  also evaluate with N evaluator threads (0 = one
//                    per hardware thread) and report serial vs parallel
//                    wall time; results are verified identical
//   --save=PATH      after loading, persist the store as a binary
//                    snapshot (segment format; see
//                    storage/segment/store_snapshot.h).  With --verify
//                    the snapshot is also reopened and checked
//                    equivalent to the loaded store.
//   --open           treat <file> as a snapshot written by --save and
//                    mmap-open it instead of parsing N-Triples; the
//                    open reads metadata only (no triple decode until
//                    the first query scan)
//   --json=PATH      write a load-throughput JSON record (includes the
//                    per-expression query timings when --query ran,
//                    plan_* fields when --explain was given, and the
//                    snapshot save_ms / open_ms / store_bytes fields)

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/eval.h"
#include "core/parser.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "loader/bulk_load.h"
#include "loader/ntriples_writer.h"
#include "storage/segment/store_snapshot.h"
#include "util/metrics.h"
#include "util/timer.h"

using namespace trial;

namespace {

struct Args {
  std::string file;
  size_t gen = 0;
  double zipf_s = 0, zipf_p = 0, zipf_o = 0;
  double dirty = 0;
  size_t threads = 0;
  std::string relation = "E";
  bool by_predicate = false;
  bool strict = false;
  bool legacy = false;
  bool verify = false;
  std::string query;
  std::string sp_src;
  std::string sp_dst;
  bool explain = false;
  bool analyze = false;
  size_t query_threads = 1;  // 1: serial only; 0: hardware concurrency
  std::string json;
  std::string save;
  std::string trace;
  std::string metrics;
  bool open = false;
};

// Per-expression evaluation timings for the report and the stats JSON.
struct QueryStats {
  bool ran = false;
  std::string expr;
  size_t result_triples = 0;
  double serial_seconds = 0;
  double parallel_seconds = -1;  // < 0: parallel pass not requested
  size_t threads = 1;
  // Plan fields (--explain): operator count, root estimated vs actual
  // cardinality, and the rendered tree.
  bool explained = false;
  size_t plan_nodes = 0;
  double plan_est_rows = 0;
  size_t plan_actual_rows = 0;
  std::string plan_text;
};

// Parses a nonnegative integer flag value; returns false (with a
// message) on junk like --threads=-1 or --gen=1e6.
bool ParseCount(const char* flag, const char* v, size_t* out) {
  char* end = nullptr;
  errno = 0;
  long long n = std::strtoll(v, &end, 10);
  if (n < 0 || errno == ERANGE || *v == '\0' || end == nullptr ||
      *end != '\0') {
    std::fprintf(stderr, "%s wants a nonnegative integer, got \"%s\"\n",
                 flag, v);
    return false;
  }
  *out = static_cast<size_t>(n);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--gen=")) {
      if (!ParseCount("--gen", v, &a->gen)) return false;
    } else if (const char* v = value("--zipf-s=")) {
      a->zipf_s = std::atof(v);
    } else if (const char* v = value("--zipf-p=")) {
      a->zipf_p = std::atof(v);
    } else if (const char* v = value("--zipf-o=")) {
      a->zipf_o = std::atof(v);
    } else if (const char* v = value("--dirty=")) {
      a->dirty = std::atof(v);
    } else if (const char* v = value("--threads=")) {
      if (!ParseCount("--threads", v, &a->threads)) return false;
    } else if (const char* v = value("--relation=")) {
      a->relation = v;
    } else if (arg == "--by-predicate") {
      a->by_predicate = true;
    } else if (arg == "--strict") {
      a->strict = true;
    } else if (arg == "--legacy") {
      a->legacy = true;
    } else if (arg == "--verify") {
      a->verify = true;
    } else if (const char* v = value("--query=")) {
      a->query = v;
    } else if (const char* v = value("--sp-src=")) {
      a->sp_src = v;
    } else if (const char* v = value("--sp-dst=")) {
      a->sp_dst = v;
    } else if (arg == "--explain") {
      a->explain = true;
    } else if (arg == "--analyze") {
      a->analyze = true;
    } else if (const char* v = value("--trace=")) {
      a->trace = v;
    } else if (const char* v = value("--metrics=")) {
      a->metrics = v;
    } else if (const char* v = value("--query-threads=")) {
      if (!ParseCount("--query-threads", v, &a->query_threads)) return false;
    } else if (const char* v = value("--json=")) {
      a->json = v;
    } else if (const char* v = value("--save=")) {
      a->save = v;
    } else if (arg == "--open") {
      a->open = true;
    } else if (arg.compare(0, 2, "--") == 0) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    } else if (a->file.empty()) {
      a->file = arg;
    } else {
      std::fprintf(stderr, "more than one input file\n");
      return false;
    }
  }
  if (a->file.empty()) {
    std::fprintf(stderr,
                 "usage: trial_store [options] <file.nt>   (see source "
                 "header for options)\n");
    return false;
  }
  if ((a->explain || a->analyze) && a->query.empty() && a->sp_src.empty()) {
    std::fprintf(stderr,
                 "--explain/--analyze require --query or --sp-src\n");
    return false;
  }
  if (!a->sp_dst.empty() && a->sp_src.empty()) {
    std::fprintf(stderr, "--sp-dst requires --sp-src\n");
    return false;
  }
  if (!a->trace.empty() && !a->analyze) {
    std::fprintf(stderr, "--trace requires --analyze\n");
    return false;
  }
  if (a->open &&
      (a->gen > 0 || a->legacy || a->verify || !a->save.empty())) {
    std::fprintf(stderr,
                 "--open takes a snapshot file and cannot be combined with "
                 "--gen/--legacy/--verify/--save\n");
    return false;
  }
  return true;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out.append("\\n");
      continue;
    }
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJson(const Args& args, const BulkLoadStats& stats,
               double open_seconds, const QueryStats& query) {
  std::FILE* f = std::fopen(args.json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.json.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"tool\": \"trial_store\",\n"
               "  \"file\": \"%s\",\n"
               "  \"bytes\": %zu,\n"
               "  \"lines\": %zu,\n"
               "  \"triples_parsed\": %zu,\n"
               "  \"skipped_literals\": %zu,\n"
               "  \"skipped_blanks\": %zu,\n"
               "  \"triples_loaded\": %zu,\n"
               "  \"objects\": %zu,\n"
               "  \"relations\": %zu,\n"
               "  \"threads\": %zu,\n"
               "  \"chunks\": %zu,\n"
               "  \"read_seconds\": %.4f,\n"
               "  \"parse_seconds\": %.4f,\n"
               "  \"merge_seconds\": %.4f,\n"
               "  \"total_seconds\": %.4f,\n"
               "  \"triples_per_second\": %.0f,\n"
               "  \"mb_per_second\": %.1f,\n"
               "  \"save_ms\": %.2f,\n"
               "  \"open_ms\": %.2f,\n"
               "  \"store_bytes\": %zu",
               EscapeJson(args.file).c_str(), stats.bytes, stats.parse.lines,
               stats.parse.triples, stats.parse.skipped_literals,
               stats.parse.skipped_blanks, stats.triples_loaded,
               stats.objects, stats.relations, stats.threads, stats.chunks,
               stats.read_seconds, stats.parse_seconds, stats.merge_seconds,
               stats.total_seconds, stats.TriplesPerSecond(),
               stats.total_seconds > 0
                   ? static_cast<double>(stats.bytes) / 1e6 /
                         stats.total_seconds
                   : 0,
               stats.save_seconds * 1e3, open_seconds * 1e3,
               stats.snapshot_bytes);
  if (query.ran) {
    std::fprintf(f,
                 ",\n"
                 "  \"query\": \"%s\",\n"
                 "  \"query_result_triples\": %zu,\n"
                 "  \"query_serial_seconds\": %.4f,\n",
                 EscapeJson(query.expr).c_str(), query.result_triples,
                 query.serial_seconds);
    if (query.parallel_seconds < 0) {
      std::fprintf(f, "  \"query_parallel_seconds\": null,\n");
    } else {
      std::fprintf(f, "  \"query_parallel_seconds\": %.4f,\n",
                   query.parallel_seconds);
    }
    std::fprintf(f, "  \"query_threads\": %zu", query.threads);
    if (query.explained) {
      std::fprintf(f,
                   ",\n"
                   "  \"plan_nodes\": %zu,\n"
                   "  \"plan_est_rows\": %.0f,\n"
                   "  \"plan_actual_rows\": %zu,\n"
                   "  \"plan_explain\": \"%s\"",
                   query.plan_nodes, query.plan_est_rows,
                   query.plan_actual_rows,
                   EscapeJson(query.plan_text).c_str());
    }
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", args.json.c_str());
}

int RunQuery(const TripleStore& store, const Args& args, QueryStats* out) {
  auto expr = ParseTriAL(args.query, &store);
  if (!expr.ok()) {
    std::fprintf(stderr, "query parse error: %s\n",
                 expr.status().ToString().c_str());
    return 1;
  }
  auto engine = MakeSmartEvaluator();
  // When comparing serial vs parallel, run one untimed warm-up first:
  // the first evaluation pays the store's lazy permutation-index
  // builds (cached on the store's shared cells), which would otherwise
  // bias the comparison toward whichever engine runs second.
  if (args.query_threads != 1) {
    auto warmup = engine->Eval(*expr, store);
    (void)warmup;
  }
  // --explain/--analyze evaluate through the plan API — the same
  // operators the smart engine shim runs, but with the tree kept for
  // rendering (and, under --analyze, per-operator profiling).
  plan::PlanPtr pl;
  const bool want_plan = args.explain || args.analyze;
  if (want_plan) {
    Status vs = ValidateExpr(*expr);
    if (!vs.ok()) {
      std::fprintf(stderr, "query validate error: %s\n",
                   vs.ToString().c_str());
      return 1;
    }
    // Warm every relation's stats so the plan shows exact distinct
    // counts: the planner itself never forces the O(n log n) builds,
    // but an EXPLAIN user explicitly asked for cost diagnostics.
    for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
    pl = plan::PlanExpr(*expr, store);
  }
  Timer t;
  Result<TripleSet> result = TripleSet();
  if (pl != nullptr) {
    result = plan::ExecutePlan(*pl, store, {}, args.analyze);
  } else {
    result = engine->Eval(*expr, store);
  }
  double secs = t.Seconds();
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (pl != nullptr) {
    plan::RecordRootRows(*pl, *result);  // about to print the result anyway
    out->explained = true;
    out->plan_nodes = pl->TreeSize();
    out->plan_est_rows = pl->est_rows;
    out->plan_actual_rows = pl->runtime.actual_rows;
    out->plan_text =
        args.analyze ? plan::ExplainAnalyze(*pl) : plan::Explain(*pl);
  }
  out->ran = true;
  out->expr = (*expr)->ToString();
  out->result_triples = result->size();
  out->serial_seconds = secs;
  std::printf("\nquery:    %s\n", out->expr.c_str());
  if (out->explained) {
    std::printf(args.analyze ? "plan (EXPLAIN ANALYZE):\n%s"
                             : "plan (estimated vs actual rows):\n%s",
                out->plan_text.c_str());
  }
  if (args.analyze) {
    plan::QueryTrace trace = plan::CollectTrace(*pl, out->expr, 1);
    plan::EmitTrace(trace);  // installed sinks (servers, tests) see it
    if (!args.trace.empty()) {
      std::string json = plan::TraceToJson(trace);
      if (std::FILE* f = std::fopen(args.trace.c_str(), "w")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote %s\n", args.trace.c_str());
      } else {
        std::fprintf(stderr, "cannot open %s\n", args.trace.c_str());
        return 1;
      }
    }
  }
  std::printf("serial:   %zu triples in %.3fs\n", result->size(), secs);
  if (args.query_threads != 1) {
    EvalOptions eopts;
    eopts.exec.num_threads = args.query_threads;
    auto parallel = MakeSmartEvaluator(eopts);
    Timer tp;
    auto presult = parallel->Eval(*expr, store);
    double psecs = tp.Seconds();
    if (!presult.ok()) {
      std::fprintf(stderr, "parallel evaluation error: %s\n",
                   presult.status().ToString().c_str());
      return 1;
    }
    if (*presult != *result) {
      std::fprintf(stderr, "parallel result DIFFERS from serial\n");
      return 1;
    }
    out->threads = eopts.exec.EffectiveThreads();
    out->parallel_seconds = psecs;
    std::printf("parallel: %zu triples in %.3fs (%zu threads, result "
                "identical to serial)\n",
                presult->size(), psecs, out->threads);
  }
  size_t shown = 0;
  for (const Triple& triple : *result) {
    if (++shown > 10) {
      std::printf("  ... (%zu more)\n", result->size() - 10);
      break;
    }
    std::printf("  %s\n", store.TripleToString(triple).c_str());
  }
  return 0;
}

// --sp-src / --sp-dst: plan and run a DijkstraScan over the target
// relation.  Weights come from integer rho(predicate) values (any other
// rho defaults to 1), so plain stores answer hop-count shortest paths.
int RunShortestPath(const TripleStore& store, const Args& args) {
  if (args.explain || args.analyze) {
    for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  }
  plan::PlanPtr pl =
      plan::PlanShortestPath(store, args.relation, args.sp_src, args.sp_dst);
  Timer t;
  auto result = plan::ExecutePlan(*pl, store, {}, args.analyze);
  double secs = t.Seconds();
  if (!result.ok()) {
    std::fprintf(stderr, "shortest path error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  plan::RecordRootRows(*pl, *result);
  std::printf("\nshortest path: %s -> %s over %s\n", args.sp_src.c_str(),
              args.sp_dst.empty() ? "* (full tree)" : args.sp_dst.c_str(),
              args.relation.c_str());
  if (args.explain || args.analyze) {
    std::printf(args.analyze ? "plan (EXPLAIN ANALYZE):\n%s"
                             : "plan (estimated vs actual rows):\n%s",
                (args.analyze ? plan::ExplainAnalyze(*pl)
                              : plan::Explain(*pl))
                    .c_str());
  }
  if (pl->runtime.sp_reached) {
    std::printf("distance %lld, %zu edge(s), %zu node(s) settled, %.3fs\n",
                static_cast<long long>(pl->runtime.sp_distance),
                result->size(), pl->runtime.sp_settled, secs);
  } else {
    std::printf("unreachable (%zu node(s) settled, %.3fs)\n",
                pl->runtime.sp_settled, secs);
  }
  size_t shown = 0;
  for (const Triple& triple : *result) {
    if (++shown > 10) {
      std::printf("  ... (%zu more)\n", result->size() - 10);
      break;
    }
    std::printf("  %s\n", store.TripleToString(triple).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  // Enable metrics before any instrumented work runs, so the snapshot
  // covers the load as well as the queries.
  if (!args.metrics.empty()) SetMetricsEnabled(true);

  if (args.gen > 0) {
    SyntheticNTriplesOptions gen;
    gen.num_triples = args.gen;
    gen.zipf_s = args.zipf_s;
    gen.zipf_p = args.zipf_p;
    gen.zipf_o = args.zipf_o;
    gen.literal_fraction = args.dirty;
    gen.blank_fraction = args.dirty;
    gen.comment_fraction = args.dirty;
    Timer t;
    Status st = WriteSyntheticNTriples(args.file, gen);
    if (!st.ok()) {
      std::fprintf(stderr, "generate: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("generated %s: %zu triples in %.2fs\n", args.file.c_str(),
                args.gen, t.Seconds());
  }

  BulkLoadOptions opts;
  opts.num_threads = args.threads;
  opts.relation = args.relation;
  opts.relation_per_predicate = args.by_predicate;
  opts.parse.accept_unsupported = !args.strict;

  BulkLoadStats stats;
  double open_seconds = 0;
  Result<TripleStore> loaded = Status::Internal("unset");
  if (args.open) {
    OpenSnapshotStats ostats;
    loaded = OpenStoreSnapshot(args.file, {}, &ostats);
    if (!loaded.ok()) {
      std::fprintf(stderr, "open: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    open_seconds = ostats.seconds;
    stats.bytes = ostats.bytes;
    stats.snapshot_bytes = ostats.bytes;
    stats.triples_loaded = ostats.triples;
    stats.objects = ostats.objects;
    stats.relations = ostats.relations;
  } else if (args.legacy) {
    Timer t;
    loaded = LegacyLoadNTriplesFile(args.file, opts, &stats.parse);
    stats.total_seconds = t.Seconds();
    if (loaded.ok()) {
      stats.threads = 1;
      stats.triples_loaded = loaded->TotalTriples();
      stats.objects = loaded->NumObjects();
      stats.relations = loaded->NumRelations();
      if (std::FILE* f = std::fopen(args.file.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        if (size > 0) stats.bytes = static_cast<size_t>(size);
        std::fclose(f);
      }
      if (!args.save.empty()) {
        SaveSnapshotStats ss;
        Status st = SaveStoreSnapshot(*loaded, args.save, &ss);
        if (!st.ok()) {
          std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
          return 1;
        }
        stats.save_seconds = ss.seconds;
        stats.snapshot_bytes = ss.bytes;
      }
    }
  } else {
    opts.snapshot_path = args.save;  // segment-emitting loader sink
    loaded = BulkLoadNTriplesFile(args.file, opts, &stats);
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  TripleStore& store = *loaded;

  if (args.open) {
    std::printf("opened snapshot %s\n", args.file.c_str());
    std::printf("  objects    %zu\n", stats.objects);
    std::printf("  relations  %zu\n", stats.relations);
    std::printf("  triples    %zu\n", stats.triples_loaded);
    std::printf("  file       %zu bytes\n", stats.snapshot_bytes);
    std::printf("  open       %.2f ms (metadata only; triple data decodes "
                "lazily on first scan)\n",
                open_seconds * 1e3);
  } else {
    std::printf("loaded %s (%s path)\n", args.file.c_str(),
                args.legacy ? "legacy" : "bulk");
    std::printf("  lines      %zu  (skipped: %zu literal, %zu blank)\n",
                stats.parse.lines, stats.parse.skipped_literals,
                stats.parse.skipped_blanks);
    std::printf("  triples    %zu parsed, %zu loaded\n", stats.parse.triples,
                stats.triples_loaded);
    std::printf("  objects    %zu\n", stats.objects);
    std::printf("  relations  %zu\n", stats.relations);
    if (store.NumRelations() > 1 && store.NumRelations() <= 20) {
      for (RelId r = 0; r < store.NumRelations(); ++r) {
        std::printf("    %-40s %zu\n",
                    std::string(store.RelationName(r)).c_str(),
                    store.Relation(r).size());
      }
    }
    std::printf(
        "  timing     read %.3fs, parse %.3fs, merge %.3fs, total %.3fs "
        "(%zu threads, %zu chunks)\n",
        stats.read_seconds, stats.parse_seconds, stats.merge_seconds,
        stats.total_seconds, stats.threads, stats.chunks);
    std::printf("  throughput %.0f triples/s, %.1f MB/s\n",
                stats.TriplesPerSecond(),
                stats.total_seconds > 0 ? static_cast<double>(stats.bytes) /
                                              1e6 / stats.total_seconds
                                        : 0);
    if (!args.save.empty()) {
      std::printf("  snapshot   %s: %zu bytes in %.2f ms\n",
                  args.save.c_str(), stats.snapshot_bytes,
                  stats.save_seconds * 1e3);
    }
  }

  if (args.verify) {
    // Cross-check against the *other* load path, so --legacy --verify
    // still exercises the bulk pipeline.
    auto other = args.legacy ? BulkLoadNTriplesFile(args.file, opts, nullptr)
                             : LegacyLoadNTriplesFile(args.file, opts,
                                                      nullptr);
    if (!other.ok()) {
      std::fprintf(stderr, "verify (%s load): %s\n",
                   args.legacy ? "bulk" : "legacy",
                   other.status().ToString().c_str());
      return 1;
    }
    std::string diff;
    if (!StoresEquivalent(store, *other, &diff)) {
      std::fprintf(stderr, "verify: stores DIFFER: %s\n", diff.c_str());
      return 1;
    }
    std::printf("verify: bulk and legacy stores are equivalent "
                "(objects, relations, rho)\n");
    if (!args.save.empty()) {
      auto reopened = OpenStoreSnapshot(args.save);
      if (!reopened.ok()) {
        std::fprintf(stderr, "verify (snapshot reopen): %s\n",
                     reopened.status().ToString().c_str());
        return 1;
      }
      if (!StoresEquivalent(store, *reopened, &diff)) {
        std::fprintf(stderr, "verify: reopened snapshot DIFFERS: %s\n",
                     diff.c_str());
        return 1;
      }
      std::printf("verify: reopened snapshot is equivalent to the loaded "
                  "store\n");
    }
  }

  QueryStats query;
  int query_rc = 0;
  if (!args.query.empty()) query_rc = RunQuery(store, args, &query);
  if (query_rc == 0 && !args.sp_src.empty()) {
    query_rc = RunShortestPath(store, args);
  }
  if (!args.json.empty()) WriteJson(args, stats, open_seconds, query);
  if (!args.metrics.empty()) {
    std::string json = MetricsRegistry::Global().RenderJson();
    if (std::FILE* f = std::fopen(args.metrics.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", args.metrics.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s\n", args.metrics.c_str());
      return 1;
    }
  }
  return query_rc;
}
