#include "core/fragment.h"

namespace trial {
namespace {

// Whether θ equals `want` as a set, up to per-atom symmetry.
bool ThetaEquals(const JoinSpec& spec,
                 const std::vector<ObjConstraint>& want) {
  if (spec.cond.theta.size() != want.size()) return false;
  if (!spec.cond.eta.empty()) return false;
  std::vector<bool> used(want.size(), false);
  for (const ObjConstraint& c : spec.cond.theta) {
    bool matched = false;
    for (size_t i = 0; i < want.size(); ++i) {
      if (used[i]) continue;
      ObjConstraint sym{want[i].rhs, want[i].lhs, want[i].equal};
      if (c == want[i] || c == sym) {
        used[i] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace

bool IsReachSpecA(const JoinSpec& spec) {
  return spec.out == std::array<Pos, 3>{Pos::P1, Pos::P2, Pos::P3p} &&
         ThetaEquals(spec, {Eq(Pos::P3, Pos::P1p)});
}

bool IsReachSpecB(const JoinSpec& spec) {
  return spec.out == std::array<Pos, 3>{Pos::P1, Pos::P2, Pos::P3p} &&
         ThetaEquals(spec, {Eq(Pos::P3, Pos::P1p), Eq(Pos::P2, Pos::P2p)});
}

bool IsWalkSpec(const JoinSpec& spec, bool star_right, WalkShape* shape) {
  // Accumulator and base positions: a right star joins the accumulator
  // on the left, a left star on the right.
  auto acc = [&](int k) { return static_cast<Pos>(star_right ? k : k + 3); };
  auto base = [&](int k) { return static_cast<Pos>(star_right ? k + 3 : k); };
  for (int i = 0; i < 3; ++i) {
    bool keeps = true;
    for (int k = 0; k < 3; ++k) {
      keeps = keeps && spec.out[k] == (k == i ? base(2) : acc(k));
    }
    if (!keeps) continue;
    if (ThetaEquals(spec, {Eq(acc(i), base(0))})) {
      *shape = WalkShape{i, false};
      return true;
    }
    if (i == 2 &&
        ThetaEquals(spec, {Eq(acc(2), base(0)), Eq(acc(1), base(1))})) {
      *shape = WalkShape{2, true};
      return true;
    }
  }
  return false;
}

Fragment FragmentInfo::Classify() const {
  if (!has_inequality) {
    if (!recursive) return Fragment::kTriALEq;
    return reach_only_stars ? Fragment::kReachTAEq : Fragment::kTriALEqStar;
  }
  return recursive ? Fragment::kTriALStar : Fragment::kTriAL;
}

namespace {

void Walk(const ExprPtr& e, FragmentInfo* info) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case ExprKind::kSelect:
      if (e->select_cond().HasInequality()) info->has_inequality = true;
      break;
    case ExprKind::kJoin:
      if (e->join_spec().cond.HasInequality()) info->has_inequality = true;
      break;
    case ExprKind::kStarRight:
    case ExprKind::kStarLeft: {
      info->recursive = true;
      if (e->join_spec().cond.HasInequality()) info->has_inequality = true;
      bool is_reach = e->kind() == ExprKind::kStarRight &&
                      (IsReachSpecA(e->join_spec()) ||
                       IsReachSpecB(e->join_spec()));
      if (!is_reach) info->reach_only_stars = false;
      break;
    }
    default:
      break;
  }
  Walk(e->left(), info);
  Walk(e->right(), info);
}

}  // namespace

FragmentInfo AnalyzeFragment(const ExprPtr& e) {
  FragmentInfo info;
  Walk(e, &info);
  return info;
}

const char* FragmentName(Fragment f) {
  switch (f) {
    case Fragment::kReachTAEq: return "reachTA=";
    case Fragment::kTriALEq: return "TriAL=";
    case Fragment::kTriALEqStar: return "TriAL=*";
    case Fragment::kTriAL: return "TriAL";
    case Fragment::kTriALStar: return "TriAL*";
  }
  return "?";
}

}  // namespace trial
