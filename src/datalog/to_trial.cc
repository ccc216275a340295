#include "datalog/to_trial.h"

#include <algorithm>
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
  bool unsatisfiable = false;  // unknown constant in an equality or ~

  // Registers the arguments of an atom at the given side's positions,
  // adding θ equalities for repeated variables and, unless `constants`
  // is false, constant bindings.
  void BindAtom(const Atom& atom, const Pos* side, bool constants = true) {
    for (int i = 0; i < 3; ++i) {
      const Term& t = atom.args[i];
      if (!t.is_var && !constants) continue;
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
      unsatisfiable = true;  // no data value: it holds under neither sign
      return Status::OK();
    }
    cond.eta.push_back(DataConstraint{*a, *b, l.positive});
    return Status::OK();
  }
};

// True when a constant argument of `atom` occurs in no triple of the
// store, so no relation, stored or derived, holds a matching row.
bool HasInactiveConstant(const Atom& atom, const TripleStore& store) {
  for (const Term& t : atom.args) {
    const ObjId id = t.is_var ? 0 : store.FindObject(t.name);
    bool active = t.is_var;
    for (RelId r = 0; r < store.NumRelations() && !active; ++r) {
      for (int c = 0; c < 3 && !active; ++c) {
        active = !store.Relation(r).Lookup(c, id).empty();
      }
    }
    if (!active) return true;
  }
  return false;
}

class Translator {
 public:
  Translator(const Program& program, const TripleStore& store)
      : program_(program), store_(store) {}

  Result<ProgramPlanInput> Run(const std::string& answer_pred,
                               bool general_recursion) {
    TRIAL_ASSIGN_OR_RETURN(info_, AnalyzeProgram(program_));
    if (!general_recursion && info_.cls == ProgramClass::kGeneralRecursive) {
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
    return ProgramPlanInput{it->second, std::move(fixpoints_)};
  }

 private:
  // Expression computing a body predicate: an already-built IDB
  // predicate, the accumulated value of the fixpoint being built, or a
  // stored relation (an unknown one fails at execution, kNotFound).
  ExprPtr PredExpr(const std::string& pred) {
    if (building_ != nullptr && pred == building_->self->rel_name()) {
      return building_->acc;
    }
    auto it = built_.find(pred);
    return it != built_.end() ? it->second : Expr::Rel(pred);
  }

  // Head output positions from the rule context.
  static std::array<Pos, 3> HeadSpec(const Rule& rule,
                                     const RuleContext& ctx) {
    std::array<Pos, 3> out = {Pos::P1, Pos::P2, Pos::P3};
    for (int i = 0; i < 3; ++i) {
      out[i] = ctx.var_pos.at(rule.head.args[i].name);
    }
    return out;
  }

  // Proposition 2 construction: one join per rule.  `rels` are the
  // rule's relational literals in join order; rels[i] reads reads[i],
  // complemented when the literal is negated.
  Result<ExprPtr> RuleExpr(const Rule& rule,
                           const std::vector<const Literal*>& rels,
                           const std::vector<ExprPtr>& reads) {
    RuleContext ctx{&store_, {}, {}, false};
    ExprPtr in[2];
    for (size_t i = 0; i < rels.size(); ++i) {
      const Literal& l = *rels[i];
      const bool vacuous = !l.positive && HasInactiveConstant(l.atom, store_);
      in[i] = l.positive ? reads[i]
                         : Expr::Complement(vacuous ? Expr::Empty() : reads[i]);
      ctx.BindAtom(l.atom, i == 0 ? kLeftPos : kRightPos, !vacuous);
    }
    for (const Literal& l : rule.body) {
      if (l.kind == Literal::Kind::kAtom) continue;
      TRIAL_RETURN_IF_ERROR(ctx.AddConstraint(l));
    }
    if (ctx.unsatisfiable) return Expr::Empty();
    const std::array<Pos, 3> out = HeadSpec(rule, ctx);
    if (rels.size() == 1) {
      // Single-atom rule: every position is the atom's, so the condition
      // is unary.  A head in the atom's column order is a selection;
      // any other head joins the atom with itself on the identity.
      if (out == std::array<Pos, 3>{Pos::P1, Pos::P2, Pos::P3}) {
        return ctx.cond.empty() ? in[0] : Expr::Select(in[0], ctx.cond);
      }
      in[1] = in[0];
      for (int i = 0; i < 3; ++i) {
        ctx.cond.theta.push_back(Eq(kLeftPos[i], kRightPos[i]));
      }
    }
    JoinSpec spec;
    spec.out = out;
    spec.cond = std::move(ctx.cond);
    return Expr::Join(in[0], in[1], spec);
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
    ExprPtr base_expr = PredExpr(base->body[0].atom.pred);

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
    const std::array<Pos, 3> out = HeadSpec(*step, ctx);
    JoinSpec spec;
    spec.out = out;
    spec.cond = std::move(ctx.cond);
    return self_first ? Expr::StarRight(base_expr, spec)
                      : Expr::StarLeft(base_expr, spec);
  }

  // A nonrecursive predicate is the union of its rules' joins; a
  // general-recursive one a fixpoint (to_trial.h).
  Status BuildPred(const std::string& pred) {
    if (info_.recursive_preds.count(pred) > 0 &&
        info_.general_preds.count(pred) == 0) {
      TRIAL_ASSIGN_OR_RETURN(ExprPtr e, ReachExpr(pred));
      built_.emplace(pred, std::move(e));
      return Status::OK();
    }
    plan::FixpointDef def;
    if (info_.general_preds.count(pred) > 0) {
      def.self = Expr::Rel(pred);
      def.acc = Expr::Rel(pred);
      def.delta = Expr::Rel("delta:" + pred);
      building_ = &def;
    }
    auto add = [](ExprPtr* acc, ExprPtr e) {
      *acc = *acc == nullptr ? std::move(e) : Expr::Union(*acc, std::move(e));
    };
    for (size_t i : info_.rules_of[pred]) {
      const Rule& rule = program_.rules[i];
      // A positive literal first: the side the executor iterates.
      std::vector<const Literal*> rels = rule.RelationalLiterals();
      if (rels.size() == 2 && !rels[0]->positive) std::swap(rels[0], rels[1]);
      std::vector<ExprPtr> reads;
      for (const Literal* l : rels) reads.push_back(PredExpr(l->atom.pred));
      bool recursive = false;
      for (size_t k = 0; k < rels.size(); ++k) {
        if (!rels[k]->positive || rels[k]->atom.pred != pred) continue;
        recursive = true;
        std::vector<const Literal*> r = rels;
        std::vector<ExprPtr> in = reads;
        std::swap(r[0], r[k]);
        std::swap(in[0], in[k]);
        in[0] = def.delta;
        TRIAL_ASSIGN_OR_RETURN(ExprPtr e, RuleExpr(rule, r, in));
        add(&def.step, std::move(e));
      }
      for (size_t k = 0; recursive && k < rels.size(); ++k) {
        const std::string& p = rels[k]->atom.pred;
        if (p != pred && built_.count(p) > 0 &&
            std::find(def.inputs.begin(), def.inputs.end(), reads[k]) ==
                def.inputs.end()) {
          def.inputs.push_back(reads[k]);
        }
      }
      if (!recursive) {
        TRIAL_ASSIGN_OR_RETURN(ExprPtr e, RuleExpr(rule, rels, reads));
        add(&def.seed, std::move(e));
      }
    }
    building_ = nullptr;
    if (def.delta == nullptr) {
      built_.emplace(pred, std::move(def.seed));
      return Status::OK();
    }
    if (def.seed == nullptr) def.seed = Expr::Empty();
    if (def.step == nullptr) def.step = Expr::Empty();
    built_.emplace(pred, def.self);
    fixpoints_.push_back(std::move(def));
    return Status::OK();
  }

  const Program& program_;
  const TripleStore& store_;
  ProgramInfo info_;
  std::map<std::string, ExprPtr> built_;
  std::vector<plan::FixpointDef> fixpoints_;
  const plan::FixpointDef* building_ = nullptr;  ///< fixpoint being built
};

}  // namespace

Result<ExprPtr> ProgramToTriAL(const Program& program,
                               const TripleStore& store,
                               const std::string& answer_pred) {
  TRIAL_ASSIGN_OR_RETURN(ProgramPlanInput in,
                         Translator(program, store).Run(answer_pred, false));
  return in.answer;
}

Result<ProgramPlanInput> ProgramToPlanInput(const Program& program,
                                            const TripleStore& store,
                                            const std::string& answer_pred) {
  return Translator(program, store).Run(answer_pred, true);
}

}  // namespace datalog
}  // namespace trial
