// Differential battery: random (Reach)TripleDatalog¬ programs on small
// Zipf stores, evaluated by EvalProgram (static and adaptive plans) and
// by the naive bottom-up evaluator (naive_datalog.h).  The programs mix
// negated atoms, ~ and = constraints, constants (some naming objects
// that occur in no triple, some naming no object), reach-shaped,
// general and nonlinear recursion, and self-negation.  Every seed must
// agree byte for byte.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datalog/analysis.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "graph/generators.h"
#include "naive_datalog.h"
#include "util/rng.h"

namespace trial {
namespace datalog {
namespace {

constexpr size_t kObjects = 7;
constexpr int kSeeds = 240;

class ProgramGen {
 public:
  explicit ProgramGen(uint64_t seed) : rng_(seed) {}

  // One to three predicates, the last named ans.  Each may read the
  // stored relations, the predicates before it and itself.
  std::string Program() {
    const int preds = 1 + static_cast<int>(rng_.Below(3));
    std::string text;
    std::vector<std::string> readable = {"E", "E1"};
    for (int i = 0; i < preds; ++i) {
      const std::string name =
          i + 1 == preds ? "ans" : "p" + std::to_string(i);
      switch (rng_.Below(8)) {
        case 0:
          text += ReachRules(name, readable);
          break;
        case 1:
          text += ShapedRules(name, readable);
          break;
        default:
          text += Rules(name, readable);
      }
      readable.push_back(name);
    }
    return text;
  }

 private:
  std::string Var() { return std::string(1, "XYZW"[rng_.Below(4)]); }

  // An object name (Zipf leaves some in no triple) or a name the store
  // lacks.
  std::string Const() {
    if (rng_.Chance(1, 4)) return "nosuch";
    return "o" + std::to_string(rng_.Below(kObjects));
  }

  std::string Term() { return rng_.Chance(1, 6) ? Const() : Var(); }

  std::string Atom(const std::string& pred, std::vector<std::string>* vars) {
    std::string out = pred + "(";
    for (int k = 0; k < 3; ++k) {
      std::string t = Term();
      if (t[0] >= 'A' && t[0] <= 'Z') vars->push_back(t);
      out += (k > 0 ? ", " : "") + t;
    }
    return out + ")";
  }

  std::string Constraint(const std::vector<std::string>& vars) {
    // A constraint variable must occur in a relational literal.
    auto side = [&] {
      return rng_.Chance(3, 4) ? vars[rng_.Below(vars.size())] : Const();
    };
    const std::string lhs = side(), rhs = side();
    switch (rng_.Below(3)) {
      case 0:
        return (rng_.Chance(1, 3) ? "not ~(" : "~(") + lhs + ", " + rhs + ")";
      case 1:
        return lhs + " = " + rhs;
      default:
        return lhs + " != " + rhs;
    }
  }

  // One to three rules of one or two relational literals each, any of
  // them negated.  The first reads only earlier relations, so that
  // recursion mostly starts from rows; the others read `self` with
  // some probability (twice for nonlinear recursion).
  std::string Rules(const std::string& self,
                    const std::vector<std::string>& readable) {
    std::string text;
    const int rules = 1 + static_cast<int>(rng_.Below(3));
    for (int r = 0; r < rules; ++r) {
      std::vector<std::string> vars;
      std::vector<std::string> body;
      while (vars.empty()) {  // a head needs variables
        body.clear();
        const int atoms = 1 + static_cast<int>(rng_.Below(2));
        for (int a = 0; a < atoms; ++a) {
          const std::string pred = r > 0 && rng_.Chance(1, 2)
                                       ? self
                                       : readable[rng_.Below(readable.size())];
          body.push_back((rng_.Chance(1, 4) ? "not " : "") +
                         Atom(pred, &vars));
        }
      }
      const int constraints = static_cast<int>(rng_.Below(3));
      for (int c = 0; c < constraints; ++c) body.push_back(Constraint(vars));
      text += self + "(";
      for (int k = 0; k < 3; ++k) {
        text += (k > 0 ? ", " : "") + vars[rng_.Below(vars.size())];
      }
      text += ") :- ";
      for (size_t b = 0; b < body.size(); ++b) {
        text += (b > 0 ? ", " : "") + body[b];
      }
      text += ".\n";
    }
    return text;
  }

  // Theorem 2's two reach rules over a nonrecursive relation.
  std::string ReachRules(const std::string& self,
                         const std::vector<std::string>& readable) {
    const std::string r = readable[rng_.Below(readable.size())];
    std::string step = rng_.Chance(1, 2)
                           ? self + "(X, Y, W) :- " + self + "(X, Y, Z), " +
                                 r + "(Z, P, W)"
                           : self + "(X, Y, W) :- " + r + "(X, Y, Z), " +
                                 self + "(Z, P, W)";
    if (rng_.Chance(1, 2)) step += ", " + Constraint({"X", "Y", "Z", "W", "P"});
    return self + "(X, Y, Z) :- " + r + "(X, Y, Z).\n" + step + ".\n";
  }

  // General recursion in shapes random rules rarely hit: nonlinear
  // closure, a step reading itself negated, and self-negation.
  std::string ShapedRules(const std::string& self,
                          const std::vector<std::string>& readable) {
    const std::string r = readable[rng_.Below(readable.size())];
    std::string text = self + "(X, Y, Z) :- " + r + "(X, Y, Z)";
    switch (rng_.Below(3)) {
      case 0:
        text += ".\n" + self + "(X, Y, W) :- " + self + "(X, Y, Z), " +
                self + "(Z, P, W)";
        break;
      case 1:
        text += ".\n" + self + "(X, Y, W) :- " + self + "(X, Y, Z), not " +
                self + "(Z, Y, W)";
        break;
      default:
        text += ", not " + self + "(Z, Y, X)";
    }
    if (rng_.Chance(1, 2)) text += ", " + Constraint({"X", "Y", "Z"});
    return text + ".\n";
  }

  Rng rng_;
};

TripleStore ZipfStore(uint64_t seed) {
  RandomStoreOptions o;
  o.num_objects = kObjects;
  o.num_triples = 10 + seed % 7;
  o.num_relations = 2;
  o.num_data_values = 3;
  o.zipf_s = 0.8;
  o.zipf_p = 1.4;
  o.zipf_o = 0.6;
  o.seed = seed;
  return RandomTripleStore(o);
}

// Runs one program on one store through the oracle and both plan
// routes; the answers must be identical.  Returns false when the
// program is rejected by the analysis (then every route rejects it).
bool ExpectAgreement(const std::string& text, const TripleStore& store) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString() << "\n" << text;
  if (!program.ok()) return false;
  auto oracle = NaiveDatalog(store).Eval(*program, "ans");
  if (!AnalyzeProgram(*program).ok()) {
    EXPECT_FALSE(oracle.ok()) << text;
    EXPECT_FALSE(PlanProgram(*program, store).ok()) << text;
    return false;
  }
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString() << "\n" << text;
  EXPECT_TRUE(PlanProgram(*program, store).ok()) << text;
  for (bool adaptive : {false, true}) {
    DatalogOptions opts;
    opts.adaptive = adaptive;
    auto got = EvalProgram(*program, store, "ans", opts);
    EXPECT_TRUE(got.ok()) << got.status().ToString() << "\n" << text;
    if (oracle.ok() && got.ok()) {
      EXPECT_EQ(*got, *oracle) << "adaptive=" << adaptive << "\n" << text;
    }
  }
  return true;
}

TEST(DatalogDifferential, RandomProgramsMatchTheOracle) {
  int accepted = 0, general = 0, negated = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string text = ProgramGen(seed).Program();
    const TripleStore store = ZipfStore(seed);
    if (!ExpectAgreement(text, store)) continue;
    ++accepted;
    auto info = AnalyzeProgram(*ParseProgram(text));
    general += info->cls == ProgramClass::kGeneralRecursive;
    negated += text.find("not ") != std::string::npos;
  }
  // The battery keeps its coverage: most programs are accepted, and
  // many recurse generally or negate.
  EXPECT_GE(accepted, 200);
  EXPECT_GE(general, 50);
  EXPECT_GE(negated, 80);
}

}  // namespace
}  // namespace datalog
}  // namespace trial
