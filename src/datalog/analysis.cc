#include "datalog/analysis.h"

#include <algorithm>
#include <functional>

namespace trial {
namespace datalog {
namespace {

Status RuleError(size_t idx, const std::string& msg) {
  return Status::InvalidArgument("rule #" + std::to_string(idx + 1) + ": " +
                                 msg);
}

// Collects the variables of the relational literals of a rule.
std::set<std::string> RelationalVars(const Rule& rule) {
  std::set<std::string> vars;
  for (const Literal& l : rule.body) {
    if (l.kind != Literal::Kind::kAtom) continue;
    for (const Term& t : l.atom.args) {
      if (t.is_var) vars.insert(t.name);
    }
  }
  return vars;
}

Status CheckRule(size_t idx, const Rule& rule) {
  if (rule.head.args.size() != 3) {
    return RuleError(idx, "head arity must be 3 (got " +
                              std::to_string(rule.head.args.size()) + ")");
  }
  size_t rel_count = 0;
  for (const Literal& l : rule.body) {
    if (l.kind == Literal::Kind::kAtom) {
      ++rel_count;
      if (l.atom.args.size() != 3) {
        return RuleError(idx, "atom " + l.atom.pred + " must have arity 3");
      }
    }
  }
  if (rule.body.empty()) {
    return RuleError(idx, "facts are not supported; store data lives in "
                          "the triplestore");
  }
  if (rel_count == 0) {
    return RuleError(idx, "rule needs at least one relational literal");
  }
  if (rel_count > 2) {
    return RuleError(idx,
                     "TripleDatalog rules have at most two relational "
                     "literals");
  }
  std::set<std::string> bound = RelationalVars(rule);
  for (const Term& t : rule.head.args) {
    if (!t.is_var) {
      return RuleError(idx,
                       "head constants are not supported; bind the constant "
                       "in the body with an equality instead");
    }
    if (bound.count(t.name) == 0) {
      return RuleError(idx, "unsafe head variable " + t.name);
    }
  }
  for (const Literal& l : rule.body) {
    if (l.kind == Literal::Kind::kAtom) continue;
    for (const Term* t : {&l.lhs, &l.rhs}) {
      if (t->is_var && bound.count(t->name) == 0) {
        return RuleError(idx, "unsafe constraint variable " + t->name);
      }
    }
  }
  return Status::OK();
}

// True if the rule matches the reach base shape S(x̄) ← R(x̄) with x̄ a
// tuple of three distinct variables repeated verbatim in the body atom.
bool IsReachBase(const Rule& rule, const std::string& s) {
  if (rule.head.pred != s) return false;
  if (rule.body.size() != 1) return false;
  const Literal& l = rule.body[0];
  if (l.kind != Literal::Kind::kAtom || !l.positive) return false;
  if (l.atom.pred == s) return false;
  std::set<std::string> distinct;
  for (size_t i = 0; i < 3; ++i) {
    const Term& h = rule.head.args[i];
    if (!h.is_var || !(h == l.atom.args[i])) return false;
    distinct.insert(h.name);
  }
  return distinct.size() == 3;
}

// True if the rule matches the reach step shape: exactly two positive
// relational literals, one S and one R (R != S), plus constraints.
bool IsReachStep(const Rule& rule, const std::string& s, std::string* r_out) {
  if (rule.head.pred != s) return false;
  std::vector<const Literal*> rels = rule.RelationalLiterals();
  if (rels.size() != 2) return false;
  if (!rels[0]->positive || !rels[1]->positive) return false;
  const std::string& p0 = rels[0]->atom.pred;
  const std::string& p1 = rels[1]->atom.pred;
  if (p0 == s && p1 != s) {
    *r_out = p1;
    return true;
  }
  if (p1 == s && p0 != s) {
    *r_out = p0;
    return true;
  }
  return false;
}

}  // namespace

Result<ProgramInfo> AnalyzeProgram(const Program& program) {
  ProgramInfo info;
  for (size_t i = 0; i < program.rules.size(); ++i) {
    TRIAL_RETURN_IF_ERROR(CheckRule(i, program.rules[i]));
    info.rules_of[program.rules[i].head.pred].push_back(i);
  }

  // Dependency edges: head -> body predicates (IDB only).
  std::map<std::string, std::set<std::string>> deps;
  for (const Rule& rule : program.rules) {
    for (const Literal& l : rule.body) {
      if (l.kind == Literal::Kind::kAtom &&
          info.rules_of.count(l.atom.pred) > 0) {
        deps[rule.head.pred].insert(l.atom.pred);
      }
    }
  }

  // Detect recursion.  Mutual recursion (a dependency cycle of length
  // >= 2) is rejected; direct self-recursion is recorded.
  for (auto& [pred, ds] : deps) {
    if (ds.count(pred)) info.recursive_preds.insert(pred);
  }
  // DFS-based topological sort over the dependency graph (self-loops
  // ignored); a back edge to a gray node other than self means mutual
  // recursion.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  Status cycle_error = Status::OK();
  std::vector<std::string> order;
  std::function<void(const std::string&)> dfs =
      [&](const std::string& pred) {
        if (!cycle_error.ok()) return;
        color[pred] = 1;
        auto it = deps.find(pred);
        if (it != deps.end()) {
          for (const std::string& d : it->second) {
            if (d == pred) continue;
            int c = color[d];
            if (c == 1) {
              cycle_error = Status::InvalidArgument(
                  "mutual recursion between " + pred + " and " + d +
                  " is outside ReachTripleDatalog");
              return;
            }
            if (c == 0) dfs(d);
          }
        }
        color[pred] = 2;
        order.push_back(pred);
      };
  for (const auto& [pred, rules] : info.rules_of) {
    (void)rules;
    if (color[pred] == 0) dfs(pred);
  }
  if (!cycle_error.ok()) return cycle_error;
  info.eval_order = std::move(order);

  // Classify: check the reach shape for every recursive predicate.
  if (info.recursive_preds.empty()) {
    info.cls = ProgramClass::kNonRecursiveTripleDatalog;
    return info;
  }
  info.cls = ProgramClass::kReachTripleDatalog;
  for (const std::string& s : info.recursive_preds) {
    const std::vector<size_t>& idx = info.rules_of[s];
    bool reach_shaped = false;
    if (idx.size() == 2) {
      for (int base = 0; base < 2 && !reach_shaped; ++base) {
        std::string r;
        if (IsReachBase(program.rules[idx[base]], s) &&
            IsReachStep(program.rules[idx[1 - base]], s, &r) &&
            program.rules[idx[base]].body[0].atom.pred == r &&
            info.recursive_preds.count(r) == 0) {
          reach_shaped = true;
        }
      }
    }
    if (!reach_shaped) {
      info.cls = ProgramClass::kGeneralRecursive;
      info.general_preds.insert(s);
    }
  }
  return info;
}

}  // namespace datalog
}  // namespace trial
