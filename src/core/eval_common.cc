#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/eval.h"

namespace trial {

namespace {

// Validates each node once: an expression may share subexpressions, and
// a tree walk over a DAG is exponential in its depth.
Status ValidateNode(const ExprPtr& e,
                    std::unordered_set<const Expr*>* seen) {
  if (e == nullptr) return Status::InvalidArgument("null expression");
  if (!seen->insert(e.get()).second) return Status::OK();
  switch (e->kind()) {
    case ExprKind::kRel:
      if (e->rel_name().empty()) {
        return Status::InvalidArgument("empty relation name");
      }
      return Status::OK();
    case ExprKind::kEmpty:
    case ExprKind::kUniverse:
      return Status::OK();
    case ExprKind::kSelect:
      if (!e->select_cond().IsUnary()) {
        return Status::InvalidArgument(
            "selection condition uses primed positions: " +
            e->select_cond().ToString());
      }
      return ValidateNode(e->left(), seen);
    case ExprKind::kUnion:
    case ExprKind::kDiff:
    case ExprKind::kJoin: {
      TRIAL_RETURN_IF_ERROR(ValidateNode(e->left(), seen));
      return ValidateNode(e->right(), seen);
    }
    case ExprKind::kStarRight:
    case ExprKind::kStarLeft:
      return ValidateNode(e->left(), seen);
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace

Status ValidateExpr(const ExprPtr& e) {
  std::unordered_set<const Expr*> seen;
  return ValidateNode(e, &seen);
}

Result<TripleSet> MaterializeUniverse(const TripleStore& store,
                                      size_t max_result_triples) {
  std::vector<ObjId> objs = ActiveObjects(store);
  double n = static_cast<double>(objs.size());
  if (n * n * n > static_cast<double>(max_result_triples)) {
    return Status::ResourceExhausted("universal relation too large: " +
                                     std::to_string(objs.size()) +
                                     "^3 triples");
  }
  TripleSet out;
  for (ObjId a : objs) {
    for (ObjId b : objs) {
      for (ObjId c : objs) out.Insert(a, b, c);
    }
  }
  return out;
}

std::vector<ObjId> ActiveObjects(const TripleStore& store) {
  std::vector<bool> seen(store.NumObjects(), false);
  for (RelId r = 0; r < store.NumRelations(); ++r) {
    for (const Triple& t : store.Relation(r)) {
      seen[t.s] = seen[t.p] = seen[t.o] = true;
    }
  }
  std::vector<ObjId> out;
  for (ObjId i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(i);
  }
  return out;
}

TripleSet SelectIndexed(const TripleSet& in, const CondSet& cond,
                        const TripleStore& store,
                        const char** strategy_out) {
  const char* strategy = "scan";
  if (strategy_out != nullptr) *strategy_out = strategy;
  // Columns pinned to a constant by an equality atom.  Two different
  // constants on the same column make the selection empty.
  bool bind[3] = {false, false, false};
  ObjId val[3] = {0, 0, 0};
  for (const ObjConstraint& c : cond.theta) {
    if (!c.equal || c.lhs.is_pos == c.rhs.is_pos) continue;
    const ObjTerm& pos_term = c.lhs.is_pos ? c.lhs : c.rhs;
    const ObjTerm& const_term = c.lhs.is_pos ? c.rhs : c.lhs;
    int col = PosColumn(pos_term.pos);
    if (bind[col] && val[col] != const_term.constant) {
      if (strategy_out != nullptr) *strategy_out = "empty";
      return TripleSet();
    }
    bind[col] = true;
    val[col] = const_term.constant;
  }
  int a = -1, b = -1;
  for (int col = 0; col < 3; ++col) {
    if (!bind[col]) continue;
    if (a < 0) {
      a = col;
    } else if (b < 0) {
      b = col;
    }
  }
  // A selection probes its input exactly once, so only take the index
  // route when the needed permutation is free or its build amortizes
  // (store-backed input); for a fresh intermediate a linear scan of an
  // order it already has is cheaper than a one-shot copy+sort.  Two (or
  // three) bound columns probe the pair; a third constant is caught by
  // the HoldsUnary re-verification.
  AccessPath path = PlanAccess(bind[0], bind[1], bind[2]);
  const bool indexed = a >= 0 && in.IndexAmortized(path.order);
  if (indexed && strategy_out != nullptr) *strategy_out = "index";
  // The result keeps the order its rows come in, so nothing is sorted
  // here.  A POS range with only p pinned is sorted on (o, s): with p
  // fixed, that is OSP order.  Every other range fixes the leading
  // columns of its order and is sorted on the rest, which is SPO order.
  // The scan keeps the order it reads.
  IndexOrder order = IndexOrder::kSPO;
  TripleRange range;
  if (!indexed) {
    order = in.ReadyOrder();
    range = in.Scan(order);
  } else if (b < 0) {
    if (path.order == IndexOrder::kPOS) order = IndexOrder::kOSP;
    range = in.Lookup(a, val[a]);
  } else {
    range = in.LookupPair(a, val[a], b, val[b]);
  }
  std::vector<Triple> out;
  out.reserve(range.size());
  for (const Triple& t : range) {
    if (cond.HoldsUnary(t, store)) out.push_back(t);
  }
  return TripleSet::FromSortedUnique(std::move(out), order);
}

std::vector<std::pair<ObjId, ObjId>> ProjectSO(const TripleSet& set) {
  std::vector<std::pair<ObjId, ObjId>> out;
  out.reserve(set.size());
  ObjId last_s = 0, last_o = 0;
  bool have_last = false;
  for (const Triple& t : set) {
    if (have_last && t.s == last_s && t.o == last_o) continue;
    out.emplace_back(t.s, t.o);
    last_s = t.s;
    last_o = t.o;
    have_last = true;
  }
  // The sorted (s,p,o) order does not make (s,o) pairs adjacent in
  // general; dedup properly.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace trial
