// Structural analysis of Datalog programs: safety, arity, dependency
// order, recursion shape.  Classifies programs into the paper's two
// fragments:
//
//  * TripleDatalog¬ (Proposition 2): every rule has at most two
//    relational literals and is non-recursive;
//  * ReachTripleDatalog¬ (Theorem 2): additionally, each recursive
//    predicate S is defined by exactly the two reachability-shaped rules
//        S(x̄) ← R(x̄)
//        S(x̄') ← S(x̄1), R(x̄2), constraints        (or R first, S second,
//    which corresponds to the left Kleene closure).

#ifndef TRIAL_DATALOG_ANALYSIS_H_
#define TRIAL_DATALOG_ANALYSIS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "util/status.h"

namespace trial {
namespace datalog {

/// Classification of a validated program.
enum class ProgramClass {
  kNonRecursiveTripleDatalog,  ///< captures TriAL (Proposition 2)
  kReachTripleDatalog,         ///< captures TriAL* (Theorem 2)
  kGeneralRecursive,           ///< recursive but not reach-shaped
};

/// Analysis output.
struct ProgramInfo {
  ProgramClass cls = ProgramClass::kNonRecursiveTripleDatalog;
  /// Predicates in a bottom-up evaluation order (dependencies first).
  std::vector<std::string> eval_order;
  /// Rule indices per head predicate.
  std::map<std::string, std::vector<size_t>> rules_of;
  /// Predicates involved in recursion (self-dependent).
  std::set<std::string> recursive_preds;
  /// The recursive predicates outside the reach shape.
  std::set<std::string> general_preds;
};

/// Validates the program: arity exactly 3 everywhere, safety (head and
/// constraint variables appear in some relational literal), no constants
/// in rule heads, at most two relational literals per rule, and only
/// direct self-recursion in the two-rule reach shape (mutual recursion is
/// rejected).  On success returns the analysis.
Result<ProgramInfo> AnalyzeProgram(const Program& program);

}  // namespace datalog
}  // namespace trial

#endif  // TRIAL_DATALOG_ANALYSIS_H_
