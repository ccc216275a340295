// Datalog → algebra direction of the capturing theorems: compiles a
// TripleDatalog¬ program into a TriAL expression (Proposition 2) and a
// ReachTripleDatalog¬ program into a TriAL* expression (Theorem 2).
//
// The translation is linear in the program size (Corollary 1 relies on
// this).  A triplestore is needed to resolve object constants appearing
// in rules to object ids.
//
// General recursion lies outside TriAL*: ProgramToPlanInput compiles a
// general-recursive S into a semi-naive plan::FixpointDef.  The seed
// unions S's rules with no positive S atom; the step, per positive S
// atom of the other rules, reads that atom as Δ and any other S atom as
// the accumulated S (Δ ⋈ S ∪ S ⋈ Δ for two); a negated S atom reads the
// accumulated S.  This is the inflationary S_{i+1} = S_i ∪ T(S_i),
// S_0 = ∅: T is monotone in positive and antimonotone in negated atoms,
// so a derivation that reads no Δ row was made in an earlier round.
//
// A negated atom with a constant in no triple always holds (it reads
// U − ∅); a ~ literal on an unknown object never does.

#ifndef TRIAL_DATALOG_TO_TRIAL_H_
#define TRIAL_DATALOG_TO_TRIAL_H_

#include <string>
#include <vector>

#include "core/expr.h"
#include "core/plan/plan.h"
#include "datalog/ast.h"
#include "util/status.h"

namespace trial {

class TripleStore;

namespace datalog {

/// Compiles `program` into a TriAL(*) expression computing `answer_pred`.
/// Errors: AnalyzeProgram's (kInvalidArgument, e.g. mutual recursion,
/// unsafe rules), kUnimplemented for general recursion, kNotFound when
/// the program does not define `answer_pred`.
Result<ExprPtr> ProgramToTriAL(const Program& program,
                               const TripleStore& store,
                               const std::string& answer_pred = "ans");

/// The plan-layer form of any program AnalyzeProgram accepts: the
/// expression computing the answer predicate, which reads one
/// placeholder per general-recursive predicate that `fixpoints` defines
/// (plan::PlanningHints).
struct ProgramPlanInput {
  ExprPtr answer;
  std::vector<plan::FixpointDef> fixpoints;
};

/// ProgramToTriAL that also compiles general recursion.
Result<ProgramPlanInput> ProgramToPlanInput(
    const Program& program, const TripleStore& store,
    const std::string& answer_pred = "ans");

}  // namespace datalog
}  // namespace trial

#endif  // TRIAL_DATALOG_TO_TRIAL_H_
