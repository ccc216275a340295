// Lowering TriAL(*) algebra trees into the physical plan IR, with
// cardinality estimation.
//
// Estimates use the classic independence heuristics over per-column
// distinct counts — the exact TripleSet::Stats() values when a relation
// has them cached, the rows^(2/3) uniform-cube fallback otherwise
// (lowering never forces a permutation build; see CachedStats):
//
//   scan E                rows = |E|, distinct = exact stats
//   σ const-equality      on a stored relation: |σ_{col=v}(E)| exactly
//                         when the permutation serving col is ready,
//                         else v's top-k count or the tail average
//                         (ConstEqSelectivity); otherwise
//                         rows /= distinct[col]          (column pinned)
//   σ col=col equality    rows /= max(d_a, d_b)
//   η equality            rows *= 1/2                    (ρ is opaque)
//   inequalities          rows *= 1                      (non-selective)
//   join key column       rows = |L|·|R| / max(d_L, d_R) per exact key
//   union / minus         a + b  /  a
//   fixpoint, seed e      rows = 4·|e|                   (crude growth)
//   walk star, cold       rows = |e|·sqrt(d_i)  — i the walked column;
//                         the geometric middle between no growth (|e|)
//                         and the complete closure (|e|·|O|); the
//                         arbitrary-path star is output-bound
//                         superlinear (see ROADMAP), so this estimate
//                         is deliberately surfaced in Explain() to make
//                         the blowup visible
//   walk star, warm index rows = the index's Σ closure size of column i
//                         (exact up to closures overlapping in one
//                         output group)
//
// Distinct counts of derived results default to rows^(2/3) per column (a
// uniform-cube assumption); selections pin their constant columns to 1
// and join/star outputs inherit the distinct count of the source
// position of each output column.
//
// The probe-vs-hash prediction applies the same PreferIndexProbe rule
// the executor re-checks at runtime, fed with estimated instead of
// actual cardinalities, plus the same index-amortization gate: a probe
// join is only predicted when the probed permutation is free (SPO) or
// the build side is a store-backed IndexScan whose cache outlives the
// query.  Prediction steers nothing — the executor re-decides from
// actual sizes — but Explain() shows both, so a misprediction is
// visible as "IndexProbeJoin ... (hash)".

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/fragment.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "core/plan/reorder.h"
#include "core/reach/reach_index.h"

namespace trial {
namespace plan {
namespace {

// Running cardinality info during lowering.
struct Card {
  double rows = 0;
  double distinct[3] = {0, 0, 0};
};

Card CardOf(const PlanNode& n) {
  Card c;
  c.rows = n.est_rows;
  for (int i = 0; i < 3; ++i) c.distinct[i] = n.est_distinct[i];
  return c;
}

void SetCard(PlanNode* n, const Card& c) {
  n->est_rows = c.rows;
  for (int i = 0; i < 3; ++i) {
    n->est_distinct[i] = std::min(c.distinct[i], c.rows);
  }
}

double DefaultDistinct(double rows) {
  return rows <= 1 ? rows : std::pow(rows, 2.0 / 3.0);
}

// Selectivity of a unary condition applied to `card` (selections, and
// the one-sided filter atoms of a join side).  Mirrors the routing of
// SelectIndexed / JoinPlan: constant equalities pin a column, column
// equalities use 1/max(d,d'), η equalities halve, inequalities pass.
// When `card` describes the stored relation `rel`, each constant
// equality shrinks by that value's own frequency in `rel` instead of
// 1/d (ConstEqSelectivity); several atoms combine under independence.
void ApplyUnaryCond(const std::vector<ObjConstraint>& theta,
                    const std::vector<DataConstraint>& eta,
                    const TripleSet* rel, Card* card) {
  for (const ObjConstraint& c : theta) {
    if (!c.equal) continue;
    if (c.lhs.is_pos != c.rhs.is_pos) {
      int col = PosColumn(c.lhs.is_pos ? c.lhs.pos : c.rhs.pos);
      ObjId v = c.lhs.is_pos ? c.rhs.constant : c.lhs.constant;
      card->rows *= ConstEqSelectivity(rel, col, v, card->distinct[col]);
      card->distinct[col] = 1;
    } else if (c.lhs.is_pos && c.rhs.is_pos) {
      int a = PosColumn(c.lhs.pos), b = PosColumn(c.rhs.pos);
      if (a == b) continue;  // trivially true, no shrink
      card->rows /= std::max({card->distinct[a], card->distinct[b], 1.0});
    }
    // constant=constant: either trivial or empty; the optimizer folds
    // these away, leave the estimate unchanged.
  }
  for (const DataConstraint& c : eta) {
    if (c.equal) card->rows *= 0.5;
  }
  for (int i = 0; i < 3; ++i) {
    card->distinct[i] = std::min(card->distinct[i], std::max(card->rows, 1.0));
  }
}

// Splits the unary atoms of a join condition per side and returns the
// filtered per-side cardinalities.
void FilteredSides(const JoinPlan& jp, const Card& l, const Card& r,
                   Card* lf, Card* rf) {
  *lf = l;
  *rf = r;
  ApplyUnaryCond(jp.left_theta, jp.left_eta, nullptr, lf);
  ApplyUnaryCond(jp.right_theta, jp.right_eta, nullptr, rf);
}

// Distinct estimate of join-output column `p` drawn from the filtered
// side cards.
double SourceDistinct(Pos p, const Card& l, const Card& r) {
  const Card& side = IsLeftPos(p) ? l : r;
  return side.distinct[PosColumn(p)];
}

class Planner {
 public:
  Planner(const TripleStore& store, const PlanningHints& hints)
      : store_(store), hints_(hints) {
    if (hints.fixpoints == nullptr) return;
    for (const FixpointDef& d : *hints.fixpoints) {
      placeholder_[d.self.get()] = {&d, Placeholder::kSelf};
      placeholder_[d.acc.get()] = {&d, Placeholder::kAcc};
      placeholder_[d.delta.get()] = {&d, Placeholder::kDelta};
    }
    placeholder_.erase(nullptr);
  }

  // Lowers the whole expression, then moves each shared sub-plan to its
  // first use in execution order.
  PlanPtr Plan(const Expr& root) {
    FindShared(root);
    PlanPtr tree = Lower(root);
    PlaceShared(tree);
    return tree;
  }

 private:
  // A FixpointDef's placeholder leaf, by role.
  struct Placeholder {
    const FixpointDef* def = nullptr;
    enum Role { kSelf, kAcc, kDelta } role = kSelf;
  };

  const Placeholder* PlaceholderOf(const Expr& e) const {
    auto it = placeholder_.find(&e);
    return it == placeholder_.end() ? nullptr : &it->second;
  }

  // The fixpoint `e` computes, or null: a FixpointDef's, or that of a
  // star that is no walk, made on first sight (a left star's step joins
  // Δ on the left through the mirrored spec).
  const FixpointDef* FixpointOf(const Expr& e) {
    if (const Placeholder* ph = PlaceholderOf(e)) {
      return ph->role == Placeholder::kSelf ? ph->def : nullptr;
    }
    const bool right = e.kind() == ExprKind::kStarRight;
    WalkShape walk;
    if ((!right && e.kind() != ExprKind::kStarLeft) ||
        IsWalkSpec(e.join_spec(), right, &walk)) {
      return nullptr;
    }
    auto [it, fresh] = stars_.try_emplace(&e);
    FixpointDef& d = it->second;
    if (fresh) {
      d.delta = Expr::Rel("delta");
      d.seed = e.left();
      d.step = Expr::Join(d.delta, e.left(),
                          right ? e.join_spec() : MirrorSpec(e.join_spec()));
      placeholder_[d.delta.get()] = {&d, Placeholder::kDelta};
    }
    return &d;
  }

  // What lowering `e` lowers in turn, in execution order: its operands,
  // or a fixpoint's seed, inputs and step.
  std::vector<const Expr*> Operands(const Expr& e) {
    std::vector<const Expr*> out;
    if (const FixpointDef* d = FixpointOf(e)) {
      out.push_back(d->seed.get());
      for (const ExprPtr& in : d->inputs) out.push_back(in.get());
      out.push_back(d->step.get());
      return out;
    }
    for (const ExprPtr* c : {&e.left(), &e.right()}) {
      if (*c != nullptr) out.push_back(c->get());
    }
    return out;
  }

  // Numbers the non-leaf Exprs reachable along more than one parent
  // edge, in depth-first order.  A shared leaf is not worth it: a scan
  // of a stored relation costs no more than reading a kept copy.
  void FindShared(const Expr& root) {
    std::unordered_map<const Expr*, int> uses;
    std::vector<const Expr*> order;
    std::vector<const Expr*> stack = {&root};
    while (!stack.empty()) {
      const Expr* e = stack.back();
      stack.pop_back();
      if (++uses[e] > 1) continue;
      order.push_back(e);
      std::vector<const Expr*> ops = Operands(*e);
      stack.insert(stack.end(), ops.rbegin(), ops.rend());
    }
    for (const Expr* e : order) {
      if (uses[e] > 1 && !Operands(*e).empty()) {
        share_id_.emplace(e, static_cast<int>(share_id_.size()));
      }
    }
    shared_plans_.resize(share_id_.size());
  }

  // A use of a shared Expr: a SharedScan placeholder carrying the
  // sub-plan's estimates.  The sub-plan itself is lowered once, on the
  // first use, and kept aside until PlaceShared.
  PlanPtr SharedUse(const Expr& e, int id) {
    if (shared_plans_[id] == nullptr) {
      PlanPtr sub = LowerUnshared(e);
      sub->share_id = id;
      shared_plans_[id] = std::move(sub);
    }
    const PlanNode& sub = *shared_plans_[id];
    auto use = std::make_unique<PlanNode>();
    use->op = PlanOp::kSharedScan;
    use->share_id = id;
    use->est_rows = sub.est_rows;
    for (int i = 0; i < 3; ++i) use->est_distinct[i] = sub.est_distinct[i];
    return use;
  }

  // Children execute left to right, each subtree to completion, so the
  // first placeholder of an id in pre-order runs before all the others
  // (it cannot sit inside the sub-plan of its own id).  The sub-plan
  // takes that position; the later placeholders stay SharedScan leaves.
  // A join region's leaf mask belongs to the position, not the plan.
  void PlaceShared(PlanPtr& node) {
    if (node->op == PlanOp::kSharedScan &&
        shared_plans_[node->share_id] != nullptr) {
      PlanPtr sub = std::move(shared_plans_[node->share_id]);
      sub->region_mask = node->region_mask;
      node = std::move(sub);
    }
    for (PlanPtr& c : node->children) PlaceShared(c);
  }

  PlanPtr Lower(const Expr& e) {
    auto it = share_id_.find(&e);
    if (it != share_id_.end()) return SharedUse(e, it->second);
    return LowerUnshared(e);
  }

  // True for a join the reorderer must not flatten through: a shared
  // join is planned once, as a leaf of every region that uses it.
  bool IsShared(const Expr& e) const { return share_id_.count(&e) > 0; }

  // A FixpointStar: seed, inputs, step.  The step's joins keep their
  // written order — the round input on the left, the side the executor
  // iterates — instead of a DP order.
  PlanPtr LowerFixpoint(const Expr& e, const FixpointDef& def) {
    PlanPtr node = std::make_unique<PlanNode>();
    node->op = PlanOp::kFixpointStar;
    if (def.self != nullptr) node->rel_name = def.self->rel_name();
    for (const Expr* op : Operands(e)) {
      const bool step = op == def.step.get();
      if (step) seed_card_[&def] = CardOf(*node->children[0]);
      const bool outer = in_step_;
      in_step_ = step;
      node->children.push_back(Lower(*op));
      in_step_ = outer;
    }
    Card c = seed_card_[&def];
    c.rows *= 4.0;
    SetCard(node.get(), c);
    return node;
  }

  PlanPtr LowerUnshared(const Expr& e) {
    PlanPtr node = LowerImpl(e);
    // Learned cardinalities beat derived estimates: a prior execution
    // of this exact (sub)expression against this store recorded what it
    // really produced.  Exact-by-construction nodes are left alone.
    if (node != nullptr && hints_.feedback != nullptr &&
        node->op != PlanOp::kIndexScan && node->op != PlanOp::kEmptyRel &&
        node->op != PlanOp::kUniverseRel && FeedbackKeyable(e)) {
      double obs = hints_.feedback->Lookup(store_, e.ToString());
      if (obs >= 0) {
        node->est_rows = obs;
        for (int i = 0; i < 3; ++i) {
          node->est_distinct[i] =
              std::min(node->est_distinct[i], std::max(obs, 1.0));
        }
      }
    }
    return node;
  }

  PlanPtr LowerImpl(const Expr& e) {
    PlanPtr node = std::make_unique<PlanNode>();
    switch (e.kind()) {
      case ExprKind::kRel: {
        if (const Placeholder* ph = PlaceholderOf(e)) {
          if (ph->role == Placeholder::kSelf) return LowerFixpoint(e, *ph->def);
          node->op = PlanOp::kDelta;
          node->reads_acc = ph->role == Placeholder::kAcc;
          Card c = seed_card_[ph->def];  // empty while the seed lowers
          if (node->reads_acc) c.rows *= 4.0;
          SetCard(node.get(), c);
          return node;
        }
        node->op = PlanOp::kIndexScan;
        node->rel_name = e.rel_name();
        Card c;
        if (const TripleSet* rel = store_.FindRelation(e.rel_name())) {
          c.rows = static_cast<double>(rel->size());
          // Use the exact distinct counts only when they are already
          // cached: Stats() builds every permutation, and forcing
          // O(n log n) index builds for a query that may never probe
          // them is exactly what the executor's amortization gate
          // exists to avoid.  Without stats the estimates fall back to
          // the uniform-cube heuristic and sharpen once any consumer
          // (EXPLAIN warm-up, the Datalog atom orderer, a probe) has
          // computed the real counts.
          if (const TripleSetStats* stats = rel->CachedStats()) {
            for (int i = 0; i < 3; ++i) {
              c.distinct[i] = static_cast<double>(stats->distinct[i]);
            }
          } else {
            for (int i = 0; i < 3; ++i) c.distinct[i] = DefaultDistinct(c.rows);
          }
        }
        // Unknown relation: zero estimate; execution reports kNotFound.
        SetCard(node.get(), c);
        return node;
      }
      case ExprKind::kEmpty:
        node->op = PlanOp::kEmptyRel;
        return node;
      case ExprKind::kUniverse: {
        node->op = PlanOp::kUniverseRel;
        double n = static_cast<double>(store_.NumObjects());
        Card c;
        c.rows = n * n * n;
        c.distinct[0] = c.distinct[1] = c.distinct[2] = n;
        SetCard(node.get(), c);
        return node;
      }
      case ExprKind::kSelect: {
        node->op = PlanOp::kSelectFilter;
        node->spec.cond = e.select_cond();
        PlanPtr child = Lower(*e.left());
        Card c = CardOf(*child);
        const TripleSet* rel = child->op == PlanOp::kIndexScan
                                   ? store_.FindRelation(child->rel_name)
                                   : nullptr;
        ApplyUnaryCond(node->spec.cond.theta, node->spec.cond.eta, rel, &c);
        // Predicted access path: columns pinned by constant equalities
        // probe the child's permutations when the build amortizes —
        // free for SPO, shared with the store for an IndexScan child.
        bool bind[3] = {false, false, false};
        for (const ObjConstraint& oc : node->spec.cond.theta) {
          if (oc.equal && oc.lhs.is_pos != oc.rhs.is_pos) {
            bind[PosColumn(oc.lhs.is_pos ? oc.lhs.pos : oc.rhs.pos)] = true;
          }
        }
        node->access = PlanAccess(bind[0], bind[1], bind[2]);
        bool any = bind[0] || bind[1] || bind[2];
        bool amortized = node->access.order == IndexOrder::kSPO ||
                         child->op == PlanOp::kIndexScan;
        if (!any || !amortized) node->access = AccessPath{};
        node->children.push_back(std::move(child));
        SetCard(node.get(), c);
        return node;
      }
      case ExprKind::kUnion:
      case ExprKind::kDiff: {
        node->op = e.kind() == ExprKind::kUnion ? PlanOp::kUnionOp
                                                : PlanOp::kMinusOp;
        PlanPtr a = Lower(*e.left());
        PlanPtr b = Lower(*e.right());
        Card ca = CardOf(*a), cb = CardOf(*b), c;
        if (e.kind() == ExprKind::kUnion) {
          c.rows = ca.rows + cb.rows;
          for (int i = 0; i < 3; ++i) {
            c.distinct[i] = ca.distinct[i] + cb.distinct[i];
          }
        } else if (a->op == PlanOp::kUniverseRel) {
          // U − e': containment is exact (e' ⊆ U up to the encoding),
          // so the complement's row count is the difference, not |U|.
          // This is the paper's complement idiom (U MINUS e), and the
          // |U| = n³ upper bound was off by the full universe for any
          // selective e'.  Distincts stay at n: removing e' rarely
          // exhausts a whole hyperplane of the cube.
          c = ca;
          c.rows = ca.rows > cb.rows ? ca.rows - cb.rows : 0.0;
        } else if (b->op == PlanOp::kUniverseRel) {
          // e − U is empty whenever e is a relation over O.
          c.rows = 0.0;
          c.distinct[0] = c.distinct[1] = c.distinct[2] = 0.0;
        } else {
          c = ca;  // e − e' is at most e
        }
        node->children.push_back(std::move(a));
        node->children.push_back(std::move(b));
        SetCard(node.get(), c);
        return node;
      }
      case ExprKind::kJoin: {
        // Cost-based reordering first: flatten the maximal ⋈ region and
        // let the DP pick a bushy order with merge/probe/hash per node.
        // Falls back to the written order when the region is too large
        // or its shape defeats the flattener (see reorder.cc), and in a
        // fixpoint's step.
        if (!in_step_) {
          if (PlanPtr reordered = ReorderJoinRegion(
                  e, store_, [this](const Expr& sub) { return Lower(sub); },
                  [this](const Expr& sub) { return IsShared(sub); },
                  hints_)) {
            return reordered;
          }
        }
        node->spec = e.join_spec();
        PlanPtr l = Lower(*e.left());
        PlanPtr r = Lower(*e.right());
        JoinPlan jp = JoinPlan::Build(node->spec.cond);
        Card cl = CardOf(*l), cr = CardOf(*r);
        Card lf, rf;
        FilteredSides(jp, cl, cr, &lf, &rf);
        Card c;
        c.rows = lf.rows * rf.rows;
        for (const JoinPlan::KeyComp& k : jp.key) {
          if (k.data) {
            c.rows *= 0.5;
          } else {
            c.rows /= std::max({lf.distinct[PosColumn(k.lpos)],
                                rf.distinct[PosColumn(k.rpos)], 1.0});
          }
        }
        for (int i = 0; i < 3; ++i) {
          double d = SourceDistinct(node->spec.out[i], lf, rf);
          c.distinct[i] = d > 0 ? d : DefaultDistinct(c.rows);
        }
        // Probe-vs-hash prediction: the executor's rule on estimates,
        // plus the amortization gate it applies to the build side.
        // Deliberately fed the *unfiltered* child cardinalities — the
        // executor decides from l.size()/r.size() before any one-sided
        // filtering — so with exact estimates the prediction matches
        // the executed strategy, and an EXPLAIN mismatch indicates an
        // estimation error rather than a formula difference.
        ProbePlan pp = ProbePlan::Build(jp);
        bool probe = pp.n > 0 && PreferIndexProbe(cl.rows, cr.rows) &&
                     (pp.Order() == IndexOrder::kSPO ||
                      r->op == PlanOp::kIndexScan);
        node->op = probe ? PlanOp::kIndexProbeJoin : PlanOp::kHashJoin;
        if (probe) node->access = AccessPath{pp.Order(), pp.n};
        node->children.push_back(std::move(l));
        node->children.push_back(std::move(r));
        SetCard(node.get(), c);
        return node;
      }
      case ExprKind::kStarRight:
      case ExprKind::kStarLeft: {
        node->spec = e.join_spec();
        node->star_right = e.kind() == ExprKind::kStarRight;
        if (const FixpointDef* def = FixpointOf(e)) {
          PlanPtr fix = LowerFixpoint(e, *def);
          fix->spec = node->spec;
          fix->star_right = node->star_right;
          return fix;
        }
        // Every walk runs on the interval reachability index — the s→o
        // index, or the label-product index for a same-middle walk —
        // built cold on any base, stored or derived.  A warm index on a
        // stored relation prices the walk exactly; else the heuristic is
        // the geometric middle between no growth and the complete
        // closure of the walked column.
        PlanPtr base = Lower(*e.left());
        Card cb = CardOf(*base), c;
        WalkShape walk;
        IsWalkSpec(node->spec, node->star_right, &walk);
        node->op = PlanOp::kReachIndexScan;
        node->walk_col = walk.col;
        node->reach_same_middle = walk.same_middle;
        const TripleSet* stored = base->op == PlanOp::kIndexScan
                                      ? store_.FindRelation(base->rel_name)
                                      : nullptr;
        const reach::ReachGraph graph =
            walk.same_middle ? reach::ReachGraph::kLabelProduct
                             : reach::ReachGraph::kSubjectObject;
        std::shared_ptr<const reach::ReachIndex> warm =
            stored != nullptr ? reach::ReachIndex::Cached(*stored, graph)
                              : nullptr;
        c.rows = warm != nullptr
                     ? static_cast<double>(warm->walk_output_rows(walk.col))
                     : cb.rows * std::sqrt(
                                     std::max(cb.distinct[walk.col], 1.0));
        for (int i = 0; i < 3; ++i) {
          double d = SourceDistinct(node->spec.out[i], cb, cb);
          c.distinct[i] = d > 0 ? d : DefaultDistinct(c.rows);
        }
        node->children.push_back(std::move(base));
        SetCard(node.get(), c);
        return node;
      }
    }
    node->op = PlanOp::kEmptyRel;  // unreachable
    return node;
  }

  const TripleStore& store_;
  const PlanningHints hints_;  // small, copied: two optional pointers
  std::unordered_map<const Expr*, int> share_id_;
  std::vector<PlanPtr> shared_plans_;  // by id, until PlaceShared
  std::unordered_map<const Expr*, Placeholder> placeholder_;
  std::unordered_map<const Expr*, FixpointDef> stars_;  ///< by star Expr
  std::unordered_map<const FixpointDef*, Card> seed_card_;
  bool in_step_ = false;  ///< lowering a fixpoint's step
};

}  // namespace

PlanPtr PlanExpr(const ExprPtr& e, const TripleStore& store) {
  return Planner(store, PlanningHints{}).Plan(*e);
}

PlanPtr PlanExpr(const ExprPtr& e, const TripleStore& store,
                 const PlanningHints& hints) {
  return Planner(store, hints).Plan(*e);
}

PlanPtr PlanExpr(const Expr& e, const TripleStore& store,
                 const PlanningHints& hints) {
  return Planner(store, hints).Plan(e);
}

PlanPtr PlanShortestPath(const TripleStore& store, const std::string& rel,
                         const std::string& src, const std::string& dst) {
  // The child is the kRel lowering: an IndexScan with cached-stats
  // cardinalities (or the uniform-cube fallback), zero for an unknown
  // relation — execution reports kNotFound, planning never fails.
  PlanPtr child = std::make_unique<PlanNode>();
  child->op = PlanOp::kIndexScan;
  child->rel_name = rel;
  Card cc;
  if (const TripleSet* r = store.FindRelation(rel)) {
    cc.rows = static_cast<double>(r->size());
    if (const TripleSetStats* stats = r->CachedStats()) {
      for (int i = 0; i < 3; ++i) {
        cc.distinct[i] = static_cast<double>(stats->distinct[i]);
      }
    } else {
      for (int i = 0; i < 3; ++i) cc.distinct[i] = DefaultDistinct(cc.rows);
    }
  }
  SetCard(child.get(), cc);

  PlanPtr node = std::make_unique<PlanNode>();
  node->op = PlanOp::kDijkstraScan;
  node->sp_src = src;
  node->sp_dst = dst;
  // Output rows: a single path is ~one edge per hop — sqrt(nodes) for
  // the usual small-world/hierarchy shapes — while the full tree has
  // one parent edge per reachable node.
  double nodes = std::max({cc.distinct[0], cc.distinct[2], 1.0});
  Card c;
  c.rows = dst.empty() ? std::max(nodes - 1.0, 0.0)
                       : std::sqrt(nodes) + 1.0;
  for (int i = 0; i < 3; ++i) c.distinct[i] = DefaultDistinct(c.rows);
  node->children.push_back(std::move(child));
  SetCard(node.get(), c);
  return node;
}

}  // namespace plan
}  // namespace trial
