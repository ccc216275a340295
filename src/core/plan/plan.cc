#include "core/plan/plan.h"

#include <algorithm>
#include <cmath>

namespace trial {
namespace plan {
namespace {

// Which side(s) of a join an atom reads.
enum class Side { kNone, kLeft, kRight, kBoth };

Side TermSide(const ObjTerm& t) {
  if (!t.is_pos) return Side::kNone;
  return IsLeftPos(t.pos) ? Side::kLeft : Side::kRight;
}
Side TermSide(const DataTerm& t) {
  if (!t.is_pos) return Side::kNone;
  return IsLeftPos(t.pos) ? Side::kLeft : Side::kRight;
}

Side Combine(Side a, Side b) {
  if (a == Side::kNone) return b;
  if (b == Side::kNone) return a;
  return a == b ? a : Side::kBoth;
}

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

bool PreferIndexProbe(double probe_count, double build_size) {
  double lg = std::log2(build_size + 2.0);
  return probe_count * lg < 4.0 * build_size;
}

bool PreferAntiProbe(double left_rows, double base_size, double right_est) {
  return left_rows * std::log2(base_size + 2.0) < right_est;
}

JoinSpec MirrorSpec(const JoinSpec& spec) {
  // A constant term's unused position flips too; nothing reads it.
  auto flip = [](Pos& p) { p = static_cast<Pos>((PosIndex(p) + 3) % 6); };
  JoinSpec m = spec;
  for (Pos& p : m.out) flip(p);
  for (ObjConstraint& c : m.cond.theta) flip(c.lhs.pos), flip(c.rhs.pos);
  for (DataConstraint& c : m.cond.eta) flip(c.lhs.pos), flip(c.rhs.pos);
  return m;
}

double ConstEqSelectivity(const TripleSet* rel, int column, ObjId v,
                          double distinct) {
  const double uniform = 1.0 / std::max(distinct, 1.0);
  if (rel == nullptr) return uniform;
  const double n = static_cast<double>(rel->size());
  if (n == 0) return 0.0;
  AccessPath path = PlanAccess(column == 0, column == 1, column == 2);
  if (rel->IndexReady(path.order)) {
    return static_cast<double>(rel->Lookup(column, v).size()) / n;
  }
  const TripleSetStats* stats = rel->CachedStats();
  if (stats == nullptr || !stats->HasAgg(column)) return uniform;
  double head = 0;
  for (const ValueFreq& f : stats->topk[column]) {
    if (f.value == v) return static_cast<double>(f.count) / n;
    head += static_cast<double>(f.count);
  }
  // Outside the heavy hitters: the tail's average frequency (zero when
  // the top-k covers every distinct value, i.e. v does not occur).
  double tail_distinct = static_cast<double>(stats->distinct[column]) -
                         static_cast<double>(stats->topk[column].size());
  return tail_distinct > 0 ? (n - head) / tail_distinct / n : 0.0;
}

JoinPlan JoinPlan::Build(const CondSet& cond) {
  JoinPlan plan;
  for (const ObjConstraint& c : cond.theta) {
    Side s = Combine(TermSide(c.lhs), TermSide(c.rhs));
    if (s == Side::kLeft || s == Side::kNone) {
      plan.left_theta.push_back(c);
    } else if (s == Side::kRight) {
      plan.right_theta.push_back(c);
    } else if (c.equal && c.lhs.is_pos && c.rhs.is_pos) {
      // Cross equality: a hash key column (exact for objects).
      Pos a = c.lhs.pos, b = c.rhs.pos;
      if (!IsLeftPos(a)) std::swap(a, b);
      plan.key.push_back({a, b, /*data=*/false});
    } else {
      plan.has_residual = true;  // cross inequality
    }
  }
  for (const DataConstraint& c : cond.eta) {
    Side s = Combine(TermSide(c.lhs), TermSide(c.rhs));
    if (s == Side::kLeft || s == Side::kNone) {
      plan.left_eta.push_back(c);
    } else if (s == Side::kRight) {
      plan.right_eta.push_back(c);
    } else if (c.equal && c.lhs.is_pos && c.rhs.is_pos) {
      Pos a = c.lhs.pos, b = c.rhs.pos;
      if (!IsLeftPos(a)) std::swap(a, b);
      plan.key.push_back({a, b, /*data=*/true});
      plan.has_residual = true;  // hash keys need exact re-verification
    } else {
      plan.has_residual = true;
    }
  }
  return plan;
}

uint64_t JoinPlan::KeyHashLeft(const Triple& t, const TripleStore& store) const {
  uint64_t h = 0x12345;
  for (const KeyComp& k : key) {
    ObjId v = PosValue(t, t, k.lpos);
    h = MixHash(h, k.data ? store.Value(v).Hash() : uint64_t{v} + 1);
  }
  return h;
}

uint64_t JoinPlan::KeyHashRight(const Triple& t,
                                const TripleStore& store) const {
  uint64_t h = 0x12345;
  for (const KeyComp& k : key) {
    ObjId v = PosValue(t, t, k.rpos);
    h = MixHash(h, k.data ? store.Value(v).Hash() : uint64_t{v} + 1);
  }
  return h;
}

ProbePlan ProbePlan::Build(const JoinPlan& plan) {
  int cols[3];
  Pos pos[3];
  int n = 0;
  for (const JoinPlan::KeyComp& k : plan.key) {
    if (k.data) continue;  // ρ-value keys hash; objects probe exactly
    int bc = PosColumn(k.rpos);
    Pos pp = k.lpos;
    bool dup = false;
    for (int i = 0; i < n; ++i) dup = dup || cols[i] == bc;
    if (!dup && n < 3) {
      cols[n] = bc;
      pos[n] = pp;
      ++n;
    }
  }
  ProbePlan out;
  if (n > 2) {
    // All three columns keyed: a pair prefix is the best an index can
    // serve.  Keep subject and predicate — that pair is an SPO prefix,
    // so the probe needs no permutation build at all — and let the
    // condition check cover the dropped object column (the (s,p)
    // range is already at most a handful of triples).
    int keep = 0;
    for (int i = 0; i < 3; ++i) {
      if (cols[i] != 2) {
        cols[keep] = cols[i];
        pos[keep] = pos[i];
        ++keep;
      }
    }
    n = 2;
  }
  out.n = n;
  for (int i = 0; i < n; ++i) {
    out.build_col[i] = cols[i];
    out.probe_pos[i] = pos[i];
  }
  return out;
}

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kIndexScan: return "IndexScan";
    case PlanOp::kEmptyRel: return "EmptyRel";
    case PlanOp::kUniverseRel: return "UniverseRel";
    case PlanOp::kSelectFilter: return "SelectFilter";
    case PlanOp::kIndexProbeJoin: return "IndexProbeJoin";
    case PlanOp::kHashJoin: return "HashJoin";
    case PlanOp::kMergeJoin: return "MergeJoin";
    case PlanOp::kUnionOp: return "UnionOp";
    case PlanOp::kMinusOp: return "MinusOp";
    case PlanOp::kFixpointStar: return "FixpointStar";
    case PlanOp::kReachFastPath: return "ReachFastPath";
    case PlanOp::kReachIndexScan: return "ReachIndexScan";
    case PlanOp::kDijkstraScan: return "DijkstraScan";
    case PlanOp::kSharedScan: return "SharedScan";
    case PlanOp::kDelta: return "Delta";
  }
  return "?";
}

size_t PlanNode::TreeSize() const {
  size_t n = 1;
  for (const PlanPtr& c : children) n += c->TreeSize();
  return n;
}

}  // namespace plan
}  // namespace trial
