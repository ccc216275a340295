#include "datalog/eval.h"

#include <optional>
#include <set>
#include <vector>

#include "core/eval.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "datalog/analysis.h"
#include "datalog/to_trial.h"
#include "util/metrics.h"

namespace trial {
namespace datalog {
namespace {

// A small variable environment (few variables per rule).
class Env {
 public:
  std::optional<ObjId> Get(const std::string& var) const {
    for (const auto& [name, val] : bindings_) {
      if (name == var) return val;
    }
    return std::nullopt;
  }
  void Set(const std::string& var, ObjId val) {
    bindings_.emplace_back(var, val);
  }
  size_t Mark() const { return bindings_.size(); }
  void Rewind(size_t mark) { bindings_.resize(mark); }

 private:
  std::vector<std::pair<std::string, ObjId>> bindings_;
};

class RuleEvaluator {
 public:
  RuleEvaluator(const TripleStore& store,
                const std::map<std::string, TripleSet>& idb)
      : store_(store), idb_(idb), adom_(ActiveObjects(store)) {}

  // Evaluates one rule, inserting derived head triples into `out`.
  Status EvalRule(const Rule& rule, TripleSet* out) {
    rule_ = &rule;
    positive_.clear();
    deferred_.clear();
    for (const Literal& l : rule.body) {
      if (l.kind == Literal::Kind::kAtom && l.positive) {
        positive_.push_back(&l);
      } else {
        deferred_.push_back(&l);
      }
    }
    OrderPositiveAtoms();
    std::vector<Triple> derived;
    Env env;
    TRIAL_RETURN_IF_ERROR(MatchPositive(0, &env, &derived));
    out->InsertBatch(std::move(derived));
    return Status::OK();
  }

 private:
  // Resolves a term to an object id under `env`; nullopt when the term
  // is an unbound variable or an unknown constant.
  std::optional<ObjId> Resolve(const Term& t, const Env& env) const {
    if (t.is_var) return env.Get(t.name);
    ObjId id = store_.FindObject(t.name);
    if (id == kInvalidIntern) return std::nullopt;
    return id;
  }

  const TripleSet* RelationOf(const std::string& pred, Status* st) const {
    auto it = idb_.find(pred);
    if (it != idb_.end()) return &it->second;
    const TripleSet* rel = store_.FindRelation(pred);
    if (rel == nullptr) {
      *st = Status::NotFound("unknown predicate: " + pred);
    }
    return rel;
  }

  // Unifies atom args with a triple; extends env on success.
  bool Unify(const Atom& atom, const Triple& t, Env* env) const {
    size_t mark = env->Mark();
    for (int i = 0; i < 3; ++i) {
      ObjId val = t[i];
      const Term& term = atom.args[i];
      if (term.is_var) {
        std::optional<ObjId> bound = env->Get(term.name);
        if (bound.has_value()) {
          if (*bound != val) {
            env->Rewind(mark);
            return false;
          }
        } else {
          env->Set(term.name, val);
        }
      } else {
        ObjId c = store_.FindObject(term.name);
        if (c == kInvalidIntern || c != val) {
          env->Rewind(mark);
          return false;
        }
      }
    }
    return true;
  }

  // Expected number of matching triples for `atom` when the variables
  // in `bound` (plus all constants) are fixed — the planner's shared
  // bound-column estimate, i.e. the expected size of the index range
  // the matcher will probe.
  double EstimateAtomMatches(const Atom& atom,
                             const std::set<std::string>& bound) const {
    Status st = Status::OK();
    const TripleSet* rel = RelationOf(atom.pred, &st);
    if (rel == nullptr) return 0;
    bool is_bound[3];
    for (int i = 0; i < 3; ++i) {
      const Term& t = atom.args[i];
      is_bound[i] = t.is_var ? bound.count(t.name) > 0 : true;
    }
    return plan::EstimateBoundMatches(rel->Stats(), is_bound);
  }

  // Greedy static join order: repeatedly place the atom with the
  // smallest expected index-range size given the variables bound by the
  // atoms placed before it.  If any predicate cannot be resolved the
  // original order is kept, so the unknown-predicate error surfaces (or
  // stays hidden behind an empty earlier atom) exactly as it would for
  // sequential matching.
  void OrderPositiveAtoms() {
    size_t n = positive_.size();
    if (n < 2) return;
    for (const Literal* l : positive_) {
      Status st = Status::OK();
      if (RelationOf(l->atom.pred, &st) == nullptr) return;
    }
    std::vector<const Literal*> ordered;
    std::vector<bool> placed(n, false);
    std::set<std::string> bound;
    for (size_t step = 0; step < n; ++step) {
      size_t best = n;
      double best_cost = 0;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        double cost = EstimateAtomMatches(positive_[i]->atom, bound);
        if (best == n || cost < best_cost) {
          best = i;
          best_cost = cost;
        }
      }
      placed[best] = true;
      ordered.push_back(positive_[best]);
      for (const Term& t : positive_[best]->atom.args) {
        if (t.is_var) bound.insert(t.name);
      }
    }
    positive_.swap(ordered);
  }

  // The index range matching `atom` under `env`: columns whose
  // argument is fixed (a constant, or a variable already bound) bind a
  // plan::BoundProbe — the same scan/probe primitive the plan
  // executor's operators use — so any pair of bound columns is some
  // permutation's sorted prefix, a third is re-checked by Unify.
  // Sets *empty_match when a constant is unknown to the store (the
  // atom then matches nothing).
  TripleRange AtomRange(const Atom& atom, const Env& env,
                        const TripleSet& rel, bool* empty_match) const {
    *empty_match = false;
    plan::BoundProbe probe;
    for (int c = 0; c < 3; ++c) {
      const Term& term = atom.args[c];
      std::optional<ObjId> v;
      if (term.is_var) {
        v = env.Get(term.name);
      } else {
        ObjId id = store_.FindObject(term.name);
        if (id == kInvalidIntern) {
          *empty_match = true;
          return TripleRange{};
        }
        v = id;
      }
      if (v.has_value()) probe.Bind(c, *v);
    }
    return probe.Range(rel);
  }

  Status MatchPositive(size_t i, Env* env, std::vector<Triple>* out) {
    if (i == positive_.size()) return BindFree(env, out);
    const Atom& atom = positive_[i]->atom;
    Status st = Status::OK();
    const TripleSet* rel = RelationOf(atom.pred, &st);
    if (rel == nullptr) return st;
    bool empty_match = false;
    TripleRange range = AtomRange(atom, *env, *rel, &empty_match);
    if (empty_match) return Status::OK();
    for (const Triple& t : range) {
      size_t mark = env->Mark();
      if (Unify(atom, t, env)) {
        Status s = MatchPositive(i + 1, env, out);
        if (!s.ok()) {
          env->Rewind(mark);
          return s;
        }
      }
      env->Rewind(mark);
    }
    return Status::OK();
  }

  // Variables used in the head or in deferred literals but not bound by
  // positive atoms range over the active domain (the complement / U
  // semantics of Section 3).
  Status BindFree(Env* env, std::vector<Triple>* out) {
    std::vector<std::string> free;
    auto note = [&](const Term& t) {
      if (t.is_var && !env->Get(t.name).has_value()) {
        for (const std::string& f : free) {
          if (f == t.name) return;
        }
        free.push_back(t.name);
      }
    };
    for (const Term& t : rule_->head.args) note(t);
    for (const Literal* l : deferred_) {
      if (l->kind == Literal::Kind::kAtom) {
        for (const Term& t : l->atom.args) note(t);
      } else {
        note(l->lhs);
        note(l->rhs);
      }
    }
    return EnumerateFree(free, 0, env, out);
  }

  Status EnumerateFree(const std::vector<std::string>& free, size_t i,
                       Env* env, std::vector<Triple>* out) {
    if (i == free.size()) return CheckDeferredAndEmit(env, out);
    for (ObjId o : adom_) {
      size_t mark = env->Mark();
      env->Set(free[i], o);
      TRIAL_RETURN_IF_ERROR(EnumerateFree(free, i + 1, env, out));
      env->Rewind(mark);
    }
    return Status::OK();
  }

  Status CheckDeferredAndEmit(Env* env, std::vector<Triple>* out) {
    for (const Literal* l : deferred_) {
      switch (l->kind) {
        case Literal::Kind::kAtom: {
          Status st = Status::OK();
          const TripleSet* rel = RelationOf(l->atom.pred, &st);
          if (rel == nullptr) return st;
          std::optional<ObjId> a = Resolve(l->atom.args[0], *env);
          std::optional<ObjId> b = Resolve(l->atom.args[1], *env);
          std::optional<ObjId> c = Resolve(l->atom.args[2], *env);
          bool in = a && b && c && rel->Contains(Triple{*a, *b, *c});
          if (in == l->positive) continue;  // negated: must NOT hold
          if (l->positive) continue;
          return Status::OK();  // unreachable; for clarity below
        }
        case Literal::Kind::kSim: {
          std::optional<ObjId> a = Resolve(l->lhs, *env);
          std::optional<ObjId> b = Resolve(l->rhs, *env);
          if (!a || !b) return Status::OK();  // unknown constant: no match
          bool same = store_.SameValue(*a, *b);
          if (same != l->positive) return Status::OK();
          continue;
        }
        case Literal::Kind::kEq: {
          std::optional<ObjId> a = Resolve(l->lhs, *env);
          std::optional<ObjId> b = Resolve(l->rhs, *env);
          if (!a || !b) {
            // A constant the store lacks equals only a constant of the
            // same name; a variable is always bound to a stored object.
            bool eq = !l->lhs.is_var && !l->rhs.is_var &&
                      l->lhs.name == l->rhs.name;
            if (eq != l->positive) return Status::OK();
            continue;
          }
          bool eq = *a == *b;
          if (eq != l->positive) return Status::OK();
          continue;
        }
      }
    }
    // All deferred literals passed; emit the head.
    Triple t;
    for (int i = 0; i < 3; ++i) {
      std::optional<ObjId> v = Resolve(rule_->head.args[i], *env);
      if (!v.has_value()) {
        return Status::InvalidArgument("head constant not in store: " +
                                       rule_->head.args[i].name);
      }
      if (i == 0) t.s = *v;
      if (i == 1) t.p = *v;
      if (i == 2) t.o = *v;
    }
    out->push_back(t);
    return Status::OK();
  }

  const TripleStore& store_;
  const std::map<std::string, TripleSet>& idb_;
  std::vector<ObjId> adom_;
  const Rule* rule_ = nullptr;
  std::vector<const Literal*> positive_;
  std::vector<const Literal*> deferred_;
};

}  // namespace

Result<std::map<std::string, TripleSet>> EvalProgramAll(
    const Program& program, const TripleStore& store,
    const DatalogOptions& opts) {
  TRIAL_ASSIGN_OR_RETURN(ProgramInfo info, AnalyzeProgram(program));
  const bool metrics = MetricsEnabled();
  const uint64_t t0 = metrics ? MonotonicNanos() : 0;
  uint64_t fixpoint_rounds = 0;
  std::map<std::string, TripleSet> idb;
  for (const std::string& pred : info.eval_order) {
    const std::vector<size_t>& rule_idx = info.rules_of[pred];
    if (info.recursive_preds.count(pred) == 0) {
      TripleSet value;
      RuleEvaluator ev(store, idb);
      for (size_t i : rule_idx) {
        TRIAL_RETURN_IF_ERROR(ev.EvalRule(program.rules[i], &value));
      }
      if (value.size() > opts.max_result_triples) {
        return Status::ResourceExhausted("predicate " + pred + " too large");
      }
      idb.emplace(pred, std::move(value));
    } else {
      // Least fixpoint: iterate the predicate's rules until saturation.
      idb.emplace(pred, TripleSet());
      for (size_t round = 0;; ++round) {
        if (round >= opts.max_rounds) {
          return Status::ResourceExhausted("fixpoint exceeded round limit");
        }
        TripleSet value;
        RuleEvaluator ev(store, idb);
        for (size_t i : rule_idx) {
          TRIAL_RETURN_IF_ERROR(ev.EvalRule(program.rules[i], &value));
        }
        if (value.size() > opts.max_result_triples) {
          return Status::ResourceExhausted("predicate " + pred +
                                           " too large");
        }
        TripleSet merged = TripleSet::Union(idb.at(pred), value);
        ++fixpoint_rounds;
        if (merged.size() == idb.at(pred).size()) break;
        idb[pred] = std::move(merged);
      }
    }
  }
  // Corrupt snapshot segments decode to empty scans; fail loudly
  // instead of returning predicates derived from missing facts.  An
  // IDB predicate can be a lazy pass-through of an EDB relation, so
  // force those too.
  for (const auto& [pred, rel] : idb) {
    TRIAL_RETURN_IF_ERROR(rel.VerifyMaterialized());
  }
  TRIAL_RETURN_IF_ERROR(store.SnapshotStatus());
  if (metrics) {
    // One observation per program evaluation, after success: counts of
    // derived tuples across all IDB predicates plus the round total.
    uint64_t derived = 0;
    for (const auto& [pred, rel] : idb) derived += rel.size();
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("datalog.programs")->Increment();
    reg.GetCounter("datalog.fixpoint_rounds")->Add(fixpoint_rounds);
    reg.GetHistogram("datalog.derived_rows")->Observe(derived);
    reg.GetHistogram("datalog.program_ns")->Observe(MonotonicNanos() - t0);
  }
  return idb;
}

namespace {

// True when the expression reads U: the translator's complement of a
// negated atom, U − e.  The translation shares the subtree of a
// predicate among its uses, so each shared node is visited once.
bool ReadsUniverse(const ExprPtr& e, std::set<const Expr*>* seen) {
  if (e == nullptr || !seen->insert(e.get()).second) return false;
  return e->kind() == ExprKind::kUniverse || ReadsUniverse(e->left(), seen) ||
         ReadsUniverse(e->right(), seen);
}

// The TriAL(*) expression computing `answer_pred`, or the reason the
// program must run on the direct route.  The translator rejects general
// recursion itself.
Result<ExprPtr> PlanRouteExpr(const Program& program,
                              const TripleStore& store,
                              const std::string& answer_pred) {
  TRIAL_ASSIGN_OR_RETURN(ExprPtr e,
                         ProgramToTriAL(program, store, answer_pred));
  std::set<const Expr*> seen;
  if (ReadsUniverse(e, &seen)) {
    return Status::Unimplemented(
        "a negated atom translates to a complement U - e of |adom|^3 "
        "triples; evaluated by the direct engine, which only probes");
  }
  TRIAL_RETURN_IF_ERROR(ValidateExpr(e));
  return e;
}

Result<TripleSet> EvalDirect(const Program& program, const TripleStore& store,
                             const std::string& answer_pred,
                             const DatalogOptions& opts) {
  TRIAL_ASSIGN_OR_RETURN(auto all, EvalProgramAll(program, store, opts));
  auto it = all.find(answer_pred);
  if (it == all.end()) {
    return Status::NotFound("program does not define " + answer_pred);
  }
  return std::move(it->second);
}

}  // namespace

Result<plan::PlanPtr> PlanProgram(const Program& program,
                                  const TripleStore& store,
                                  const std::string& answer_pred) {
  TRIAL_ASSIGN_OR_RETURN(ExprPtr e,
                         PlanRouteExpr(program, store, answer_pred));
  return plan::PlanExpr(e, store);
}

Result<TripleSet> EvalProgram(const Program& program, const TripleStore& store,
                              const std::string& answer_pred,
                              const DatalogOptions& opts) {
  const bool metrics = MetricsEnabled();
  const uint64_t t0 = metrics ? MonotonicNanos() : 0;
  Result<ExprPtr> e = PlanRouteExpr(program, store, answer_pred);
  if (!e.ok()) {
    if (metrics) {
      MetricsRegistry::Global().GetCounter("datalog.fallbacks")->Increment();
    }
    return EvalDirect(program, store, answer_pred, opts);
  }
  Result<TripleSet> result = TripleSet();
  if (opts.adaptive) {
    result = plan::ExecuteAdaptive(*e, store, opts);
  } else {
    plan::PlanPtr pl = plan::PlanExpr(*e, store);
    result = plan::ExecutePlan(*pl, store, opts);
    // The answer is returned normalized, as the direct route's always
    // was, so counting it here is free.
    if (result.ok()) plan::RecordRootRows(*pl, *result);
  }
  if (!result.ok()) return result.status();
  // The answer is a derived predicate: the direct route's cap applies to
  // it too.  The executor caps every operator that builds a result; this
  // catches an answer that is a stored relation read whole.
  const size_t rows = result->size();
  if (rows > opts.max_result_triples) {
    return Status::ResourceExhausted("predicate " + answer_pred +
                                     " too large");
  }
  if (metrics) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("datalog.programs")->Increment();
    reg.GetHistogram("datalog.derived_rows")->Observe(rows);
    reg.GetHistogram("datalog.program_ns")->Observe(MonotonicNanos() - t0);
  }
  return result;
}

}  // namespace datalog
}  // namespace trial
