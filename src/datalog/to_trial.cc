#include "datalog/to_trial.h"

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "datalog/analysis.h"
#include "storage/triple_store.h"

namespace trial {
namespace datalog {
namespace {

constexpr Pos kLeftPos[3] = {Pos::P1, Pos::P2, Pos::P3};
constexpr Pos kRightPos[3] = {Pos::P1p, Pos::P2p, Pos::P3p};

// Per-rule translation state.
struct RuleContext {
  const TripleStore* store;
  std::map<std::string, Pos> var_pos;  // variable -> representative position
  CondSet cond;
  bool unsatisfiable = false;  // unknown constant in an equality

  // Registers the arguments of an atom at the given side's positions,
  // adding θ equalities for repeated variables and constant bindings.
  void BindAtom(const Atom& atom, const Pos* side) {
    for (int i = 0; i < 3; ++i) {
      const Term& t = atom.args[i];
      if (t.is_var) {
        auto it = var_pos.find(t.name);
        if (it == var_pos.end()) {
          var_pos.emplace(t.name, side[i]);
        } else {
          cond.theta.push_back(Eq(it->second, side[i]));
        }
      } else {
        ObjId id = store->FindObject(t.name);
        if (id == kInvalidIntern) {
          unsatisfiable = true;
        } else {
          cond.theta.push_back(EqConst(side[i], id));
        }
      }
    }
  }

  // Resolves a constraint term to an ObjTerm; nullopt = unknown constant.
  std::optional<ObjTerm> ObjTermOf(const Term& t) const {
    if (t.is_var) {
      auto it = var_pos.find(t.name);
      if (it == var_pos.end()) return std::nullopt;  // unsafe (validated out)
      return ObjTerm::P(it->second);
    }
    ObjId id = store->FindObject(t.name);
    if (id == kInvalidIntern) return std::nullopt;
    return ObjTerm::C(id);
  }

  Status AddConstraint(const Literal& l) {
    if (l.kind == Literal::Kind::kEq) {
      if (!l.lhs.is_var && !l.rhs.is_var) {
        // Two constants: distinct names are distinct objects, whether or
        // not the store holds them.
        if ((l.lhs.name == l.rhs.name) != l.positive) unsatisfiable = true;
        return Status::OK();
      }
      std::optional<ObjTerm> a = ObjTermOf(l.lhs);
      std::optional<ObjTerm> b = ObjTermOf(l.rhs);
      if (!a.has_value() || !b.has_value()) {
        // A variable never equals a constant the store lacks: the
        // equality can never hold, the inequality always holds.
        if (l.positive) unsatisfiable = true;
        return Status::OK();
      }
      cond.theta.push_back(ObjConstraint{*a, *b, l.positive});
      return Status::OK();
    }
    // kSim: ∼(a, b) means ρ(a) = ρ(b).
    auto data_term = [&](const Term& t) -> std::optional<DataTerm> {
      if (t.is_var) {
        auto it = var_pos.find(t.name);
        if (it == var_pos.end()) return std::nullopt;
        return DataTerm::P(it->second);
      }
      ObjId id = store->FindObject(t.name);
      if (id == kInvalidIntern) return std::nullopt;
      return DataTerm::C(store->Value(id));
    };
    std::optional<DataTerm> a = data_term(l.lhs);
    std::optional<DataTerm> b = data_term(l.rhs);
    if (!a.has_value() || !b.has_value()) {
      return Status::InvalidArgument(
          "~ literal references an object not present in the store");
    }
    cond.eta.push_back(DataConstraint{*a, *b, l.positive});
    return Status::OK();
  }
};

class Translator {
 public:
  Translator(const Program& program, const TripleStore& store)
      : program_(program), store_(store) {}

  Result<ExprPtr> Run(const std::string& answer_pred) {
    TRIAL_ASSIGN_OR_RETURN(info_, AnalyzeProgram(program_));
    if (info_.cls == ProgramClass::kGeneralRecursive) {
      return Status::Unimplemented(
          "general recursion is outside TriAL*: recursive predicates must "
          "follow the ReachTripleDatalog shape");
    }
    for (const std::string& pred : info_.eval_order) {
      TRIAL_RETURN_IF_ERROR(BuildPred(pred));
    }
    auto it = built_.find(answer_pred);
    if (it == built_.end()) {
      return Status::NotFound("program does not define " + answer_pred);
    }
    return it->second;
  }

 private:
  // Expression computing a body predicate: an already-built IDB
  // predicate or a stored relation.
  Result<ExprPtr> PredExpr(const std::string& pred) {
    auto it = built_.find(pred);
    if (it != built_.end()) return it->second;
    if (store_.FindRelation(pred) != nullptr) return Expr::Rel(pred);
    return Status::NotFound("unknown predicate: " + pred);
  }

  Result<ExprPtr> AtomExpr(const Literal& lit) {
    TRIAL_ASSIGN_OR_RETURN(ExprPtr e, PredExpr(lit.atom.pred));
    return lit.positive ? e : Expr::Complement(e);
  }

  // Head output positions from the rule context.
  Result<std::array<Pos, 3>> HeadSpec(const Rule& rule,
                                      const RuleContext& ctx) {
    std::array<Pos, 3> out = {Pos::P1, Pos::P2, Pos::P3};
    for (int i = 0; i < 3; ++i) {
      const Term& t = rule.head.args[i];
      if (!t.is_var) {
        return Status::InvalidArgument(
            "head constants are not supported; bind the constant in the "
            "body with an equality instead");
      }
      out[i] = ctx.var_pos.at(t.name);
    }
    return out;
  }

  // Proposition 2 construction: one join per rule.
  Result<ExprPtr> RuleExpr(const Rule& rule) {
    std::vector<const Literal*> rels = rule.RelationalLiterals();
    RuleContext ctx{&store_, {}, {}, false};
    ExprPtr left, right;
    TRIAL_ASSIGN_OR_RETURN(left, AtomExpr(*rels[0]));
    ctx.BindAtom(rels[0]->atom, kLeftPos);
    if (rels.size() == 2) {
      TRIAL_ASSIGN_OR_RETURN(right, AtomExpr(*rels[1]));
      ctx.BindAtom(rels[1]->atom, kRightPos);
    }
    for (const Literal& l : rule.body) {
      if (l.kind == Literal::Kind::kAtom) continue;
      TRIAL_RETURN_IF_ERROR(ctx.AddConstraint(l));
    }
    if (ctx.unsatisfiable) return Expr::Empty();
    TRIAL_ASSIGN_OR_RETURN(auto out, HeadSpec(rule, ctx));
    if (rels.size() == 1) {
      // Single-atom rule: every position is the atom's, so the condition
      // is unary.  A head in the atom's column order is a selection;
      // any other head joins the atom with itself on the identity.
      if (out == std::array<Pos, 3>{Pos::P1, Pos::P2, Pos::P3}) {
        return ctx.cond.empty() ? left : Expr::Select(left, ctx.cond);
      }
      right = left;
      for (int i = 0; i < 3; ++i) {
        ctx.cond.theta.push_back(Eq(kLeftPos[i], kRightPos[i]));
      }
    }
    JoinSpec spec;
    spec.out = out;
    spec.cond = std::move(ctx.cond);
    return Expr::Join(left, right, spec);
  }

  // Theorem 2 construction: the two reach rules become one Kleene star.
  Result<ExprPtr> ReachExpr(const std::string& pred) {
    const std::vector<size_t>& idx = info_.rules_of[pred];
    const Rule* base = nullptr;
    const Rule* step = nullptr;
    for (size_t i : idx) {
      const Rule& r = program_.rules[i];
      bool has_self = false;
      for (const Literal* l : r.RelationalLiterals()) {
        if (l->atom.pred == pred) has_self = true;
      }
      (has_self ? step : base) = &r;
    }
    TRIAL_ASSIGN_OR_RETURN(ExprPtr base_expr,
                           PredExpr(base->body[0].atom.pred));

    std::vector<const Literal*> rels = step->RelationalLiterals();
    bool self_first = rels[0]->atom.pred == pred;
    const Atom& self_atom = rels[self_first ? 0 : 1]->atom;
    const Atom& other_atom = rels[self_first ? 1 : 0]->atom;

    RuleContext ctx{&store_, {}, {}, false};
    // The accumulator (S) occupies the left positions for a right star
    // (S listed first) and the right positions for a left star.
    if (self_first) {
      ctx.BindAtom(self_atom, kLeftPos);
      ctx.BindAtom(other_atom, kRightPos);
    } else {
      ctx.BindAtom(other_atom, kLeftPos);
      ctx.BindAtom(self_atom, kRightPos);
    }
    for (const Literal& l : step->body) {
      if (l.kind == Literal::Kind::kAtom) continue;
      TRIAL_RETURN_IF_ERROR(ctx.AddConstraint(l));
    }
    if (ctx.unsatisfiable) return base_expr;  // the step never fires
    TRIAL_ASSIGN_OR_RETURN(auto out, HeadSpec(*step, ctx));
    JoinSpec spec;
    spec.out = out;
    spec.cond = std::move(ctx.cond);
    return self_first ? Expr::StarRight(base_expr, spec)
                      : Expr::StarLeft(base_expr, spec);
  }

  Status BuildPred(const std::string& pred) {
    if (info_.recursive_preds.count(pred) > 0) {
      TRIAL_ASSIGN_OR_RETURN(ExprPtr e, ReachExpr(pred));
      built_.emplace(pred, std::move(e));
      return Status::OK();
    }
    ExprPtr acc;
    for (size_t i : info_.rules_of[pred]) {
      TRIAL_ASSIGN_OR_RETURN(ExprPtr e, RuleExpr(program_.rules[i]));
      acc = acc == nullptr ? e : Expr::Union(acc, e);
    }
    built_.emplace(pred, std::move(acc));
    return Status::OK();
  }

  const Program& program_;
  const TripleStore& store_;
  ProgramInfo info_;
  std::map<std::string, ExprPtr> built_;
};

}  // namespace

Result<ExprPtr> ProgramToTriAL(const Program& program,
                               const TripleStore& store,
                               const std::string& answer_pred) {
  Translator t(program, store);
  return t.Run(answer_pred);
}

}  // namespace datalog
}  // namespace trial
