// The paper's nested-loop QueryComputation algorithm (Section 5,
// Procedures 1 and 2) on sorted triple vectors.
//
// Joins enumerate all pairs of input triples and test the condition:
// O(|R1|·|R2|) per join, i.e. the O(|e|·|T|²) bound of Theorem 3.  Kleene
// stars recompute the full join of the accumulated result with the base
// each round (Procedure 2), giving the O(|e|·|T|³) bound.
//
// Selections route through the shared SelectIndexed helper (constant
// pushdown over the permutation indexes); joins and stars stay pure
// nested loops.  The matrix engine is the evaluator that touches no
// index code at all, so it remains the fully independent oracle for the
// equivalence property tests.

#include "core/eval.h"

namespace trial {
namespace {

class NaiveEvaluator final : public Evaluator {
 public:
  explicit NaiveEvaluator(EvalOptions opts) : opts_(opts) {}

  Result<TripleSet> Eval(const ExprPtr& e, const TripleStore& store) override {
    TRIAL_RETURN_IF_ERROR(ValidateExpr(e));
    Result<TripleSet> result = EvalNode(*e, store);
    // Corrupt snapshot segments decode to empty scans; fail loudly.
    if (result.ok()) TRIAL_RETURN_IF_ERROR(result->VerifyMaterialized());
    TRIAL_RETURN_IF_ERROR(store.SnapshotStatus());
    return result;
  }

  const char* name() const override { return "naive"; }

 private:
  Result<TripleSet> EvalNode(const Expr& e, const TripleStore& store) {
    switch (e.kind()) {
      case ExprKind::kRel: {
        const TripleSet* rel = store.FindRelation(e.rel_name());
        if (rel == nullptr) {
          return Status::NotFound("unknown relation: " + e.rel_name());
        }
        // A refcount bump: the copy shares the relation's block.
        return *rel;
      }
      case ExprKind::kEmpty:
        return TripleSet();
      case ExprKind::kUniverse:
        return EvalUniverse(store);
      case ExprKind::kSelect: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet in, EvalNode(*e.left(), store));
        return SelectIndexed(in, e.select_cond(), store);
      }
      case ExprKind::kUnion: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet a, EvalNode(*e.left(), store));
        TRIAL_ASSIGN_OR_RETURN(TripleSet b, EvalNode(*e.right(), store));
        return TripleSet::Union(a, b);
      }
      case ExprKind::kDiff: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet a, EvalNode(*e.left(), store));
        TRIAL_ASSIGN_OR_RETURN(TripleSet b, EvalNode(*e.right(), store));
        return TripleSet::Difference(a, b);
      }
      case ExprKind::kJoin: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet a, EvalNode(*e.left(), store));
        TRIAL_ASSIGN_OR_RETURN(TripleSet b, EvalNode(*e.right(), store));
        return EvalJoin(a, b, e.join_spec(), store);
      }
      case ExprKind::kStarRight:
      case ExprKind::kStarLeft: {
        TRIAL_ASSIGN_OR_RETURN(TripleSet base, EvalNode(*e.left(), store));
        return EvalStar(base, e.join_spec(),
                        /*right=*/e.kind() == ExprKind::kStarRight, store);
      }
    }
    return Status::Internal("unknown expression kind");
  }

  Result<TripleSet> EvalUniverse(const TripleStore& store) {
    return MaterializeUniverse(store, opts_.max_result_triples);
  }

  // Procedure 1: full nested loop with condition test.
  Result<TripleSet> EvalJoin(const TripleSet& l, const TripleSet& r,
                             const JoinSpec& spec, const TripleStore& store) {
    TripleSet out;
    size_t emitted = 0;
    for (const Triple& a : l) {
      for (const Triple& b : r) {
        if (spec.cond.Holds(a, b, store)) {
          out.Insert(spec.Output(a, b));
          if (++emitted > opts_.max_result_triples) {
            return Status::ResourceExhausted("join result too large");
          }
        }
      }
    }
    return out;
  }

  // Procedure 2: Re := Re ∪ (Re ⋈ base) to fixpoint (right star), or
  // Re := Re ∪ (base ⋈ Re) (left star).  Termination: results only ever
  // contain objects of the input, so |Re| <= n³.
  Result<TripleSet> EvalStar(const TripleSet& base, const JoinSpec& spec,
                             bool right, const TripleStore& store) {
    TripleSet acc = base;
    for (size_t round = 0; round < opts_.max_rounds; ++round) {
      Result<TripleSet> step = right ? EvalJoin(acc, base, spec, store)
                                     : EvalJoin(base, acc, spec, store);
      if (!step.ok()) return step.status();
      TripleSet next = TripleSet::Union(acc, *step);
      if (next.size() == acc.size()) return next;
      if (next.size() > opts_.max_result_triples) {
        return Status::ResourceExhausted("star result too large");
      }
      acc = std::move(next);
    }
    return Status::ResourceExhausted("star fixpoint exceeded round limit");
  }

  EvalOptions opts_;
};

}  // namespace

std::unique_ptr<Evaluator> MakeNaiveEvaluator(EvalOptions opts) {
  return std::make_unique<NaiveEvaluator>(opts);
}

}  // namespace trial
