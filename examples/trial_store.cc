// trial_store: the end-to-end "real dataset in, answers out" tool —
// bulk-load an N-Triples file (or open a snapshot, or take Figure 1's
// store), print store stats, and answer one TriAL(*) expression,
// (Reach)TripleDatalog program or shortest-path query against it.
//
//   $ ./examples/trial_store --gen=1000000 --zipf-p=1.2 /tmp/m.nt
//   $ ./examples/trial_store --threads=4 --by-predicate /tmp/m.nt
//   $ ./examples/trial_store /tmp/m.nt --query="(E JOIN[1,2,3'; 3=1'] E)"
//   $ ./examples/trial_store /tmp/m.nt --program=reach.dl --explain
//   $ ./examples/trial_store --demo --analyze --trace=/tmp/demo.json
//   $ ./examples/trial_store --demo --sp-src=St_Andrews --sp-dst=Brussels
//
// Options:
//   --gen=N          first write a synthetic ~N-triple document to <file>
//   --zipf-s/p/o=F   generator skew exponents (with --gen; F >= 0)
//   --dirty=F        with --gen: fraction F (0 to 1) each of
//                    literal-object, blank-node and comment lines
//                    (real-dump shape)
//   --threads=N      loader workers (default: hardware concurrency)
//   --relation=NAME  target relation in single-relation mode (default E)
//   --by-predicate   one relation per distinct predicate
//   --strict         hard-error on literals/blank nodes (default: skip+count)
//   --verify         also load through the legacy ParseNTriplesFile
//                    path and check name-level store equivalence
//   --demo           use Figure 1's store instead of <file>; alone, run
//                    a built-in same-operator reachability program
//   --query=EXPR     evaluate a TriAL(*) expression, print the result
//   --program=FILE   evaluate a (Reach)TripleDatalog program, print its
//                    answer predicate --answer=PRED (default ans)
//   --sp-src=NAME    weighted shortest paths from object NAME over the
//                    target relation (DijkstraScan; edge weight =
//                    integer rho(predicate), else 1).  Without
//                    --sp-dst: the full shortest-path tree
//   --sp-dst=NAME    with --sp-src: one shortest path to object NAME,
//                    printed edge by edge with the total distance
//   --explain        evaluate through the physical plan layer and print
//                    the operator tree with estimated vs actual
//                    cardinalities
//   --analyze        like --explain, but profile the execution: each
//                    operator line adds actual rows, estimate q-error,
//                    strategy taken, self and cumulative wall time and
//                    peak intermediate size
//   --trace=PATH     with --analyze: export the profiled run as a
//                    nested-span JSON trace (parent-child operator
//                    nesting, nanosecond timestamps from query start)
//   --metrics=PATH   enable the process metrics registry and write its
//                    JSON snapshot (loader/segment/exec counters and
//                    histograms) on exit
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
//                    run's timings, plan_* fields under --explain, and
//                    the snapshot save_ms / open_ms / store_bytes fields)
//
// --query, --program and --sp-src are exclusive, so --trace and --json
// describe one answer.  Every program runs as a plan
// (datalog::PlanProgram), so --explain, --analyze and --trace work for
// general recursion and negated atoms too.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>

#include "core/eval.h"
#include "core/parser.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "datalog/analysis.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "loader/bulk_load.h"
#include "loader/ntriples_writer.h"
#include "rdf/fixtures.h"
#include "rdf/ntriples.h"
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
  bool verify = false;
  bool demo = false;
  std::string query;
  std::string program;
  std::string answer;  // empty: "ans"
  std::string sp_src;
  std::string sp_dst;
  bool explain = false;
  bool analyze = false;
  std::string json;
  std::string save;
  std::string trace;
  std::string metrics;
  bool open = false;

  // --demo with no other question runs the built-in program.
  bool RunsProgram() const {
    return !program.empty() || (demo && query.empty() && sp_src.empty());
  }
};

// The one answered question, for the report and the stats JSON.
struct RunStats {
  bool ran = false;
  std::string label;  // the expression, program or shortest-path query
  size_t result_triples = 0;
  double serial_seconds = 0;
  // Plan fields (--explain/--analyze): operator count, root estimated
  // vs actual cardinality, and the rendered tree.
  bool explained = false;
  size_t plan_nodes = 0;
  double plan_est_rows = 0;
  size_t plan_actual_rows = 0;
  std::string plan_text;
};

// Parses the value `v` of `flag` (spelled with its '=') as a
// nonnegative integer; returns false (with a message) on junk like
// --threads=-1 or --gen=1e6.
bool ParseCount(const char* flag, const char* v, size_t* out) {
  char* end = nullptr;
  errno = 0;
  long long n = std::strtoll(v, &end, 10);
  if (n < 0 || errno == ERANGE || *v == '\0' || end == nullptr ||
      *end != '\0') {
    std::fprintf(stderr, "%s%s: wants a nonnegative integer\n", flag, v);
    return false;
  }
  *out = static_cast<size_t>(n);
  return true;
}

// Parses `flag`'s value as a finite real in [0, max]; returns false
// (with a message) on junk like --zipf-p=abc, --zipf-s=-1 or --dirty=2.
bool ParseReal(const char* flag, const char* v, double max, double* out) {
  char* end = nullptr;
  errno = 0;
  double x = std::strtod(v, &end);
  if (*v == '\0' || *end != '\0' || errno == ERANGE || !std::isfinite(x) ||
      !(x >= 0 && x <= max)) {
    std::fprintf(stderr, "%s%s: wants a finite number in [0, %g]\n", flag, v,
                 max);
    return false;
  }
  *out = x;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  const std::pair<const char*, bool*> switches[] = {
      {"--by-predicate", &a->by_predicate}, {"--strict", &a->strict},
      {"--verify", &a->verify},
      {"--demo", &a->demo},       {"--explain", &a->explain},
      {"--analyze", &a->analyze}, {"--open", &a->open}};
  const std::pair<const char*, std::string*> texts[] = {
      {"--relation=", &a->relation}, {"--query=", &a->query},
      {"--program=", &a->program},   {"--answer=", &a->answer},
      {"--sp-src=", &a->sp_src},     {"--sp-dst=", &a->sp_dst},
      {"--trace=", &a->trace},       {"--metrics=", &a->metrics},
      {"--json=", &a->json},         {"--save=", &a->save}};
  const std::pair<const char*, size_t*> counts[] = {
      {"--gen=", &a->gen}, {"--threads=", &a->threads}};
  const std::tuple<const char*, double*, double> reals[] = {
      {"--zipf-s=", &a->zipf_s, HUGE_VAL},
      {"--zipf-p=", &a->zipf_p, HUGE_VAL},
      {"--zipf-o=", &a->zipf_o, HUGE_VAL},
      {"--dirty=", &a->dirty, 1.0}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The text after `flag` when `arg` starts with it, else null.
    auto value = [&arg](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    bool known = false;
    for (const auto& [flag, out] : switches) {
      if (arg == flag) known = *out = true;
    }
    for (const auto& [flag, out] : texts) {
      if (const char* v = value(flag)) {
        *out = v;
        known = true;
      }
    }
    for (const auto& [flag, out] : counts) {
      if (const char* v = value(flag)) {
        if (!ParseCount(flag, v, out)) return false;
        known = true;
      }
    }
    for (const auto& [flag, out, max] : reals) {
      if (const char* v = value(flag)) {
        if (!ParseReal(flag, v, max, out)) return false;
        known = true;
      }
    }
    if (known) {
      continue;
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
  if (a->file.empty() && !a->demo) {
    std::fprintf(stderr,
                 "usage: trial_store [options] <file.nt>\n"
                 "       trial_store --demo [options]   (see source "
                 "header for options)\n");
    return false;
  }
  const bool loads_file =
      a->gen > 0 || a->verify || !a->save.empty();
  if ((a->demo && (a->open || !a->file.empty() || loads_file)) ||
      (a->open && loads_file)) {
    std::fprintf(stderr,
                 "--demo takes no input file; --demo and --open exclude "
                 "each other and --gen/--verify/--save\n");
    return false;
  }
  if (!a->query.empty() + !a->program.empty() + !a->sp_src.empty() > 1) {
    std::fprintf(stderr, "--query, --program and --sp-src are exclusive\n");
    return false;
  }
  if ((a->explain || a->analyze) && a->query.empty() && a->sp_src.empty() &&
      !a->RunsProgram()) {
    std::fprintf(stderr,
                 "--explain/--analyze require --query, --program, --sp-src "
                 "or --demo\n");
    return false;
  }
  if (!a->answer.empty() && !a->RunsProgram()) {
    std::fprintf(stderr, "--answer requires --program\n");
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

// Writes `text` to `path` and says so; the error names the path when
// the file cannot be written.
Status WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written) {
    return Status::Internal("cannot write " + path);
  }
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
}

Status WriteJson(const Args& args, const BulkLoadStats& stats,
                 double open_seconds, const RunStats& query) {
  std::FILE* f = std::fopen(args.json.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + args.json);
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
                 "  \"query_serial_seconds\": %.4f",
                 EscapeJson(query.label).c_str(), query.result_triples,
                 query.serial_seconds);
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
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + args.json);
  std::printf("wrote %s\n", args.json.c_str());
  return Status::OK();
}

// The one report path of every planned run — a TriAL query, a
// program's PlanProgram tree, a DijkstraScan.  Executes `pl` (profiled
// under --analyze) and records its root rows.  Under --explain or
// --analyze it prints the plan; under --analyze it also hands the span
// trace to the installed TraceSink (servers, tests) and writes it to
// --trace.
Result<TripleSet> RunPlan(plan::PlanNode& pl, const TripleStore& store,
                          const Args& args, RunStats* out) {
  Timer t;
  Result<TripleSet> result = plan::ExecutePlan(pl, store, {}, args.analyze);
  out->serial_seconds = t.Seconds();
  if (!result.ok()) return result;
  plan::RecordRootRows(pl, *result);  // about to print the result anyway
  if (!args.explain && !args.analyze) return result;
  out->explained = true;
  out->plan_nodes = pl.TreeSize();
  out->plan_est_rows = pl.est_rows;
  out->plan_actual_rows = pl.runtime.actual_rows;
  out->plan_text = args.analyze ? plan::ExplainAnalyze(pl) : plan::Explain(pl);
  std::printf(args.analyze ? "plan (EXPLAIN ANALYZE):\n%s"
                           : "plan (estimated vs actual rows):\n%s",
              out->plan_text.c_str());
  if (args.analyze) {
    plan::QueryTrace trace = plan::CollectTrace(pl, out->label);
    plan::EmitTrace(trace);
    if (!args.trace.empty()) {
      TRIAL_RETURN_IF_ERROR(WriteFile(args.trace, plan::TraceToJson(trace)));
    }
  }
  return result;
}

// Prints the answer as `name = { rows }  (N triples)`, at most ten
// rows of it, and notes its size for the stats JSON.
void PrintAnswer(const TripleStore& store, const std::string& name,
                 const TripleSet& rows, RunStats* out) {
  constexpr size_t kShown = 10;
  out->ran = true;
  out->result_triples = rows.size();
  std::printf("%s = {\n", name.c_str());
  size_t shown = 0;
  for (const Triple& triple : rows) {
    if (++shown > kShown) {
      std::printf("  ... (%zu more)\n", rows.size() - kShown);
      break;
    }
    std::printf("  %s\n", store.TripleToString(triple).c_str());
  }
  std::printf("}  (%zu triples)\n", rows.size());
}

Status RunQuery(const TripleStore& store, const Args& args, RunStats* out) {
  TRIAL_ASSIGN_OR_RETURN(ExprPtr expr, ParseTriAL(args.query, &store));
  out->label = expr->ToString();
  std::printf("\nquery:    %s\n", out->label.c_str());
  // --explain/--analyze evaluate through the plan API — the same
  // operators the smart engine shim runs, but with the tree kept for
  // rendering (and, under --analyze, per-operator profiling).
  Result<TripleSet> result = TripleSet();
  if (args.explain || args.analyze) {
    TRIAL_RETURN_IF_ERROR(ValidateExpr(expr));
    plan::PlanPtr pl = plan::PlanExpr(expr, store);
    result = RunPlan(*pl, store, args, out);
  } else {
    Timer t;
    result = MakeSmartEvaluator()->Eval(expr, store);
    out->serial_seconds = t.Seconds();
  }
  if (!result.ok()) return result.status();
  std::printf("serial:   %zu triples in %.3fs\n", result->size(),
              out->serial_seconds);
  PrintAnswer(store, "result", *result, out);
  return Status::OK();
}

const char* kDemoProgram = R"(
  % Transitive same-operator reachability over Figure 1.  The reach
  % shape (Theorem 2) needs ONE nonrecursive relation R in both rules,
  % so R = city hops annotated with operators, plus the part_of edges.
  hopo(X, C, Y) :- E(X, S, Y), E(S, P, C), P = part_of.
  hopo(X, P, Y) :- E(X, P, Y), P = part_of.
  opr(X, C, Y)  :- hopo(X, C, Y).
  opr(X, C2, Y) :- opr(X, C, Y), hopo(C, P, C2), P = part_of.
  ans(X, C, Z)  :- opr(X, C, Z), C != part_of.
)";

// --program (or --demo's built-in program): PlanProgram's plan through
// RunPlan under --explain/--analyze, else datalog::EvalProgram.
Status RunProgram(const TripleStore& store, const Args& args,
                  RunStats* out) {
  std::string text = kDemoProgram;
  if (args.program.empty()) {
    std::printf("\nprogram:  built-in same-operator hops\n");
  } else {
    std::printf("\nprogram:  %s\n", args.program.c_str());
    TRIAL_ASSIGN_OR_RETURN(text, ReadFileToString(args.program));
  }
  TRIAL_ASSIGN_OR_RETURN(datalog::Program prog, datalog::ParseProgram(text));
  TRIAL_ASSIGN_OR_RETURN(datalog::ProgramInfo info,
                         datalog::AnalyzeProgram(prog));
  std::printf("program class: %s\n",
              info.cls == datalog::ProgramClass::kNonRecursiveTripleDatalog
                  ? "TripleDatalog (nonrecursive)"
                  : info.cls == datalog::ProgramClass::kReachTripleDatalog
                        ? "ReachTripleDatalog"
                        : "general recursive");
  const std::string answer = args.answer.empty() ? "ans" : args.answer;
  out->label = prog.ToString();
  Result<TripleSet> result = TripleSet();
  if (args.explain || args.analyze) {
    TRIAL_ASSIGN_OR_RETURN(plan::PlanPtr pl,
                           datalog::PlanProgram(prog, store, answer));
    result = RunPlan(*pl, store, args, out);
  } else {
    Timer t;
    result = datalog::EvalProgram(prog, store, answer);
    out->serial_seconds = t.Seconds();
  }
  if (!result.ok()) return result.status();
  PrintAnswer(store, answer, *result, out);
  return Status::OK();
}

// --sp-src / --sp-dst: a DijkstraScan over the target relation.
// Weights come from integer rho(predicate) values (any other rho
// defaults to 1), so plain stores answer hop-count shortest paths.
Status RunShortestPath(const TripleStore& store, const Args& args,
                       RunStats* out) {
  out->label = "shortest path " + args.sp_src + " -> " +
               (args.sp_dst.empty() ? "* (full tree)" : args.sp_dst) +
               " over " + args.relation;
  std::printf("\n%s\n", out->label.c_str());
  plan::PlanPtr pl =
      plan::PlanShortestPath(store, args.relation, args.sp_src, args.sp_dst);
  TRIAL_ASSIGN_OR_RETURN(TripleSet result, RunPlan(*pl, store, args, out));
  if (pl->runtime.sp_reached) {
    std::printf("distance %lld, %zu edge(s), %zu node(s) settled, %.3fs\n",
                static_cast<long long>(pl->runtime.sp_distance),
                result.size(), pl->runtime.sp_settled, out->serial_seconds);
  } else {
    std::printf("unreachable (%zu node(s) settled, %.3fs)\n",
                pl->runtime.sp_settled, out->serial_seconds);
  }
  PrintAnswer(store, "edges", result, out);
  return Status::OK();
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
  if (args.demo) {
    loaded = TransportStore();
  } else if (args.open) {
    OpenSnapshotStats ostats;
    loaded = OpenStoreSnapshot(args.file, {}, &ostats);
    open_seconds = ostats.seconds;
    stats.bytes = ostats.bytes;
    stats.snapshot_bytes = ostats.bytes;
    stats.triples_loaded = ostats.triples;
    stats.objects = ostats.objects;
    stats.relations = ostats.relations;
  } else {
    opts.snapshot_path = args.save;  // segment-emitting loader sink
    loaded = BulkLoadNTriplesFile(args.file, opts, &stats);
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.open ? "open" : "load",
                 loaded.status().ToString().c_str());
    return 1;
  }
  TripleStore& store = *loaded;
  if (args.demo) {
    stats.triples_loaded = store.TotalTriples();
    stats.objects = store.NumObjects();
    stats.relations = store.NumRelations();
  }

  if (args.demo || args.open) {
    if (args.demo) {
      std::printf("demo: Figure 1 store\n");
    } else {
      std::printf("opened snapshot %s\n", args.file.c_str());
    }
    std::printf("  objects    %zu\n", stats.objects);
    std::printf("  relations  %zu\n", stats.relations);
    std::printf("  triples    %zu\n", stats.triples_loaded);
    if (args.open) {
      std::printf("  file       %zu bytes\n", stats.snapshot_bytes);
      std::printf("  open       %.2f ms (metadata only; triple data "
                  "decodes lazily on first scan)\n",
                  open_seconds * 1e3);
    }
  } else {
    std::printf("loaded %s\n", args.file.c_str());
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
    // Cross-check against the legacy load path.
    auto other = LegacyLoadNTriplesFile(args.file, opts, nullptr);
    if (!other.ok()) {
      std::fprintf(stderr, "verify (legacy load): %s\n",
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

  // Warm every relation's stats so the plan shows exact distinct
  // counts: the planner itself never forces the O(n log n) builds, but
  // an EXPLAIN user explicitly asked for cost diagnostics.
  if (args.explain || args.analyze) {
    for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  }
  RunStats run;
  Status st = Status::OK();
  if (!args.query.empty()) {
    st = RunQuery(store, args, &run);
  } else if (args.RunsProgram()) {
    st = RunProgram(store, args, &run);
  } else if (!args.sp_src.empty()) {
    st = RunShortestPath(store, args, &run);
  }
  if (!st.ok()) std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  Status wrote = Status::OK();
  if (!args.json.empty()) {
    wrote = WriteJson(args, stats, open_seconds, run);
  }
  if (wrote.ok() && !args.metrics.empty()) {
    wrote = WriteFile(args.metrics, MetricsRegistry::Global().RenderJson());
  }
  if (!wrote.ok()) {
    std::fprintf(stderr, "error: %s\n", wrote.ToString().c_str());
  }
  return st.ok() && wrote.ok() ? 0 : 1;
}
