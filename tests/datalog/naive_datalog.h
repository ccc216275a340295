// A naive bottom-up (Reach)TripleDatalog¬ evaluator: the reference for
// datalog::EvalProgram.  Positive atoms match by nested loops, other
// variables range over the active domain, recursion iterates
// S_{i+1} = S_i ∪ T(S_i) from S_0 = ∅.  A constant naming no object
// fails positive atoms and ~, passes negated atoms, equals only itself.

#ifndef TRIAL_TESTS_DATALOG_NAIVE_DATALOG_H_
#define TRIAL_TESTS_DATALOG_NAIVE_DATALOG_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/eval.h"
#include "datalog/analysis.h"

namespace trial {
namespace datalog {

class NaiveDatalog {
 public:
  explicit NaiveDatalog(const TripleStore& store)
      : store_(store), adom_(ActiveObjects(store)) {}

  /// The value of `pred` under `program`.
  Result<TripleSet> Eval(const Program& program, const std::string& pred) {
    TRIAL_ASSIGN_OR_RETURN(ProgramInfo info, AnalyzeProgram(program));
    idb_.clear();
    for (const std::string& p : info.eval_order) {
      idb_[p] = TripleSet();
      for (bool grew = true; grew;) {
        std::vector<Triple> derived;
        for (size_t i : info.rules_of[p]) {
          TRIAL_RETURN_IF_ERROR(Solve(program.rules[i], 0, Env{}, &derived));
        }
        TripleSet next = TripleSet::Union(idb_[p], TripleSet(derived));
        grew = info.recursive_preds.count(p) > 0 &&
               next.size() != idb_[p].size();
        idb_[p] = std::move(next);
      }
    }
    auto it = idb_.find(pred);
    if (it == idb_.end()) return Status::NotFound("undefined: " + pred);
    return it->second;
  }

 private:
  using Env = std::map<std::string, ObjId>;

  Result<const TripleSet*> Relation(const std::string& pred) const {
    auto it = idb_.find(pred);
    if (it != idb_.end()) return &it->second;
    if (const TripleSet* rel = store_.FindRelation(pred)) return rel;
    return Status::NotFound("unknown predicate: " + pred);
  }

  std::optional<ObjId> Resolve(const Term& t, const Env& env) const {
    if (t.is_var) {
      auto it = env.find(t.name);
      return it == env.end() ? std::nullopt : std::optional(it->second);
    }
    const ObjId id = store_.FindObject(t.name);
    return id == kInvalidIntern ? std::nullopt : std::optional(id);
  }

  // Binds positive atoms from body[i] on, then free variables over the
  // active domain; then checks every literal and emits the head.
  Status Solve(const Rule& rule, size_t i, const Env& env,
               std::vector<Triple>* out) {
    while (i < rule.body.size() && (rule.body[i].kind != Literal::Kind::kAtom ||
                                    !rule.body[i].positive)) {
      ++i;
    }
    if (i < rule.body.size()) {
      const Atom& atom = rule.body[i].atom;
      TRIAL_ASSIGN_OR_RETURN(const TripleSet* rel, Relation(atom.pred));
      for (const Triple& t : *rel) {
        Env next = env;
        bool match = true;
        for (int k = 0; k < 3 && match; ++k) {
          const Term& term = atom.args[k];
          const ObjId bound = term.is_var
                                  ? next.emplace(term.name, t[k]).first->second
                                  : store_.FindObject(term.name);
          match = bound == t[k];
        }
        if (match) TRIAL_RETURN_IF_ERROR(Solve(rule, i + 1, next, out));
      }
      return Status::OK();
    }
    std::vector<const Term*> terms;
    for (const Term& t : rule.head.args) terms.push_back(&t);
    for (const Literal& l : rule.body) {
      for (const Term& t : l.atom.args) terms.push_back(&t);
      if (l.kind != Literal::Kind::kAtom) {
        terms.insert(terms.end(), {&l.lhs, &l.rhs});
      }
    }
    for (const Term* t : terms) {
      if (!t->is_var || env.count(t->name) > 0) continue;
      for (ObjId o : adom_) {
        Env next = env;
        next[t->name] = o;
        TRIAL_RETURN_IF_ERROR(Solve(rule, i, next, out));
      }
      return Status::OK();
    }
    for (const Literal& l : rule.body) {
      TRIAL_ASSIGN_OR_RETURN(bool holds, Holds(l, env));
      if (!holds) return Status::OK();
    }
    ObjId v[3];
    for (int k = 0; k < 3; ++k) v[k] = *Resolve(rule.head.args[k], env);
    out->push_back(Triple{v[0], v[1], v[2]});
    return Status::OK();
  }

  Result<bool> Holds(const Literal& l, const Env& env) const {
    if (l.kind == Literal::Kind::kAtom) {
      TRIAL_ASSIGN_OR_RETURN(const TripleSet* rel, Relation(l.atom.pred));
      std::optional<ObjId> a = Resolve(l.atom.args[0], env);
      std::optional<ObjId> b = Resolve(l.atom.args[1], env);
      std::optional<ObjId> c = Resolve(l.atom.args[2], env);
      return (a && b && c && rel->Contains(Triple{*a, *b, *c})) == l.positive;
    }
    std::optional<ObjId> a = Resolve(l.lhs, env);
    std::optional<ObjId> b = Resolve(l.rhs, env);
    if (l.kind == Literal::Kind::kSim) {
      return a && b && store_.SameValue(*a, *b) == l.positive;
    }
    const bool eq = a && b ? *a == *b
                           : !l.lhs.is_var && !l.rhs.is_var &&
                                 l.lhs.name == l.rhs.name;
    return eq == l.positive;
  }

  const TripleStore& store_;
  std::vector<ObjId> adom_;
  std::map<std::string, TripleSet> idb_;
};

}  // namespace datalog
}  // namespace trial

#endif  // TRIAL_TESTS_DATALOG_NAIVE_DATALOG_H_
