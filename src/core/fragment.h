// Fragment analysis (Sections 5 and 6).
//
//  * TriAL=   — no inequalities in any θ/η (Proposition 4, Theorem 5).
//  * reachTA= — TriAL= plus Kleene stars restricted to the two graph
//    reachability shapes (Proposition 5):
//      (R ⋈^{1,2,3'}_{3=1'})*        "reachable by an arbitrary path"
//      (R ⋈^{1,2,3'}_{3=1',2=2'})*   "…by a path labeled with the same
//                                     element"
//
// The Smart evaluator consults this analysis to route star nodes to the
// O(|e|·|O|·|T|) algorithms (Procedures 3 and 4).

#ifndef TRIAL_CORE_FRAGMENT_H_
#define TRIAL_CORE_FRAGMENT_H_

#include "core/expr.h"

namespace trial {

/// Language fragment of an expression, most restrictive first.
enum class Fragment {
  kReachTAEq,  ///< reachTA= : equality-only, stars are reach forms
  kTriALEq,    ///< TriAL=   : equality-only, non-recursive
  kTriALEqStar,///< equality-only with general (non-reach) stars
  kTriAL,      ///< full TriAL (non-recursive, uses inequalities)
  kTriALStar,  ///< full TriAL* (recursive, uses inequalities)
};

/// Structural facts about an expression.
struct FragmentInfo {
  bool recursive = false;        ///< contains a Kleene star
  bool has_inequality = false;   ///< any θ/η atom is an inequality
  bool reach_only_stars = true;  ///< every star is one of the reach forms

  /// Collapses the facts into the fragment lattice above.
  Fragment Classify() const;
};

/// Whether `spec` is the "arbitrary path" reach join ⋈^{1,2,3'}_{3=1'}
/// (θ exactly {3=1'}, η empty, output (1,2,3')).
bool IsReachSpecA(const JoinSpec& spec);

/// Whether `spec` is the "same middle element" reach join
/// ⋈^{1,2,3'}_{3=1',2=2'}.
bool IsReachSpecB(const JoinSpec& spec);

/// A walk star's shape: the star moves column `col` (0..2) of every
/// base triple along the base's s→o graph, within each label when
/// `same_middle` (see core/reach/reach_index.h).
struct WalkShape {
  int col = 2;
  bool same_middle = false;
};

/// Whether a star with `spec` is a walk: a right star whose θ is the
/// single equality i = 1' and whose output keeps the two other left
/// positions and takes 3' in position i — or the left mirror of that
/// (θ = {1 = i'}, output 3 in position i, i'-free positions kept) —
/// plus the same-middle star ⋈^{1,2,3'}_{3=1',2=2'} and its mirror, the
/// i = 3 walk partitioned by label.  Fills `shape` on a match.
bool IsWalkSpec(const JoinSpec& spec, bool star_right, WalkShape* shape);

/// Analyzes the whole expression tree.
FragmentInfo AnalyzeFragment(const ExprPtr& e);

/// Display name of a fragment ("TriAL=", "reachTA=", ...).
const char* FragmentName(Fragment f);

}  // namespace trial

#endif  // TRIAL_CORE_FRAGMENT_H_
