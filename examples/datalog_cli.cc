// datalog_cli: load an N-Triples file and a (Reach)TripleDatalog program,
// evaluate, print the answer relation.  A tiny end-to-end driver for the
// whole stack: parser -> validator -> translation -> plan -> executor.
//
//   $ ./examples/datalog_cli [--explain|--analyze] data.nt prog.dl [pred]
//   $ ./examples/datalog_cli --demo [--explain|--analyze]
//   $ ./examples/datalog_cli --demo --sp-src=St_Andrews --sp-dst=Brussels
//
// With --demo it runs the built-in Figure 1 store and a reachability
// program.  Programs are evaluated by datalog::EvalProgram, which runs
// nonrecursive TripleDatalog and ReachTripleDatalog programs without
// negated atoms as the physical plan of their TriAL(*) translation
// (Proposition 2 / Theorem 2), and every other program — general
// recursion, negated atoms, translator rejections — on the direct
// engine.  --explain prints that plan (datalog::PlanProgram), operator
// tree with estimated vs actual row counts; --analyze additionally
// profiles the execution: per-operator self/cumulative wall time,
// estimate q-error, strategy taken and peak intermediate size.  For a
// program on the direct route both print the reason it has no plan.
//
// --sp-src=NAME [--sp-dst=NAME] answers a weighted shortest-path query
// over relation "E" instead of (or after) a program: a DijkstraScan
// whose edge weights are integer rho(predicate) values (else 1).
// Without --sp-dst it reports the full shortest-path tree.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "datalog/analysis.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "rdf/fixtures.h"
#include "rdf/ntriples.h"

using namespace trial;

namespace {

int RunProgram(const TripleStore& store, const std::string& text,
               const std::string& answer, bool explain, bool analyze) {
  auto prog = datalog::ParseProgram(text);
  if (!prog.ok()) {
    std::fprintf(stderr, "program: %s\n", prog.status().ToString().c_str());
    return 1;
  }
  auto info = datalog::AnalyzeProgram(*prog);
  if (!info.ok()) {
    std::fprintf(stderr, "validate: %s\n", info.status().ToString().c_str());
    return 1;
  }
  const char* cls =
      info->cls == datalog::ProgramClass::kNonRecursiveTripleDatalog
          ? "TripleDatalog (nonrecursive)"
          : info->cls == datalog::ProgramClass::kReachTripleDatalog
                ? "ReachTripleDatalog"
                : "general recursive";
  std::printf("program class: %s\n", cls);

  Result<TripleSet> result = TripleSet();
  if (explain || analyze) {
    // Warm the stats so the plan shows exact distinct counts (the
    // planner never forces the builds on its own).
    for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
    Result<plan::PlanPtr> pl = datalog::PlanProgram(*prog, store, answer);
    if (pl.ok()) {
      plan::PlanNode& root = **pl;
      result = plan::ExecutePlan(root, store, {}, analyze);
      if (result.ok()) plan::RecordRootRows(root, *result);
      if (analyze) {
        std::printf("plan (EXPLAIN ANALYZE):\n%s",
                    plan::ExplainAnalyze(root).c_str());
        plan::EmitTrace(plan::CollectTrace(root, prog->ToString(), 1));
      } else {
        std::printf("plan (estimated vs actual rows):\n%s",
                    plan::Explain(root).c_str());
      }
    } else {
      // The reason is the one EvalProgram would fall back for; run the
      // direct engine here without translating the program again.
      std::printf("no plan, direct engine: %s\n",
                  pl.status().ToString().c_str());
      auto all = datalog::EvalProgramAll(*prog, store);
      if (!all.ok()) {
        result = all.status();
      } else if (auto it = all->find(answer); it != all->end()) {
        result = std::move(it->second);
      } else {
        result = Status::NotFound("program does not define " + answer);
      }
    }
  } else {
    result = datalog::EvalProgram(*prog, store, answer);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "eval: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s = {\n%s}  (%zu triples)\n", answer.c_str(),
              store.ToString(*result).c_str(), result->size());
  return 0;
}

int RunShortestPath(const TripleStore& store, const std::string& src,
                    const std::string& dst, bool explain, bool analyze) {
  plan::PlanPtr pl = plan::PlanShortestPath(store, "E", src, dst);
  auto result = plan::ExecutePlan(*pl, store, {}, analyze);
  if (!result.ok()) {
    std::fprintf(stderr, "shortest path: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  plan::RecordRootRows(*pl, *result);
  std::printf("shortest path %s -> %s:\n", src.c_str(),
              dst.empty() ? "* (full tree)" : dst.c_str());
  if (explain || analyze) {
    std::printf("%s", (analyze ? plan::ExplainAnalyze(*pl)
                               : plan::Explain(*pl))
                          .c_str());
  }
  if (pl->runtime.sp_reached) {
    std::printf("distance %lld over %zu edge(s):\n%s",
                static_cast<long long>(pl->runtime.sp_distance),
                result->size(), store.ToString(*result).c_str());
  } else {
    std::printf("unreachable\n");
  }
  return 0;
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

}  // namespace

int main(int argc, char** argv) {
  bool explain = false;
  bool analyze = false;
  bool demo = false;
  std::string sp_src, sp_dst;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--analyze") == 0) {
      analyze = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strncmp(argv[i], "--sp-src=", 9) == 0) {
      sp_src = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--sp-dst=", 9) == 0) {
      sp_dst = argv[i] + 9;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (!sp_dst.empty() && sp_src.empty()) {
    std::fprintf(stderr, "--sp-dst requires --sp-src\n");
    return 2;
  }
  if (demo && pos.empty()) {
    TripleStore store = TransportStore();
    if (!sp_src.empty()) {
      return RunShortestPath(store, sp_src, sp_dst, explain, analyze);
    }
    std::printf("demo: Figure 1 store, same-operator hops\n\n");
    return RunProgram(store, kDemoProgram, "ans", explain, analyze);
  }
  // Shortest-path mode needs only the data file.
  if (!sp_src.empty() && pos.size() == 1) {
    auto doc = ParseNTriplesFile(pos[0]);
    if (!doc.ok()) {
      std::fprintf(stderr, "data: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    TripleStore store = doc->ToTripleStore("E");
    return RunShortestPath(store, sp_src, sp_dst, explain, analyze);
  }
  if (pos.size() < 2) {
    std::fprintf(stderr,
                 "usage: %s [--explain|--analyze] data.nt program.dl "
                 "[answer_pred]\n"
                 "       %s --demo [--explain|--analyze]\n",
                 argv[0], argv[0]);
    return 2;
  }
  auto doc = ParseNTriplesFile(pos[0]);
  if (!doc.ok()) {
    std::fprintf(stderr, "data: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  TripleStore store = doc->ToTripleStore("E");
  std::FILE* f = std::fopen(pos[1], "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", pos[1]);
    return 1;
  }
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return RunProgram(store, text, pos.size() > 2 ? pos[2] : "ans", explain,
                    analyze);
}
