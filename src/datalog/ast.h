// Abstract syntax of TripleDatalog¬ and ReachTripleDatalog¬ (Section 4).
//
// A TripleDatalog¬ rule has the shape
//
//   S(x̄) ← S1(x̄1), S2(x̄2), (¬)∼(y1,z1), ..., u1 (=|≠) v1, ...
//
// with S, S1, S2 of arity 3 and every head/constraint variable occurring
// in x̄1 ∪ x̄2.  S1/S2 may appear negated (active-domain complement).
// A ReachTripleDatalog¬ program additionally allows recursive predicates,
// each defined by exactly the two reachability-shaped rules of Section 4.
//
// Note: the paper allows predicates of arity "at most 3"; this
// implementation fixes arity at exactly 3 (lower arities are emulated
// with repeated variables), which preserves both capturing theorems.

#ifndef TRIAL_DATALOG_AST_H_
#define TRIAL_DATALOG_AST_H_

#include <string>
#include <vector>

namespace trial {
namespace datalog {

/// A term: a variable (uppercase-initial identifier) or an object
/// constant (anything else, or a quoted string).
struct Term {
  bool is_var = true;
  std::string name;

  static Term Var(std::string n) { return Term{true, std::move(n)}; }
  static Term Const(std::string n) { return Term{false, std::move(n)}; }

  bool operator==(const Term& o) const {
    return is_var == o.is_var && name == o.name;
  }
  bool operator!=(const Term& o) const { return !(*this == o); }
};

/// A relational atom  pred(t1, t2, t3).
struct Atom {
  std::string pred;
  std::vector<Term> args;  // always size 3 after validation
};

/// A body literal: a (possibly negated) relational atom, a (possibly
/// negated) data-similarity literal ∼(t1,t2), or an object
/// (in)equality t1 = t2 / t1 != t2.
struct Literal {
  enum class Kind { kAtom, kSim, kEq };
  Kind kind = Kind::kAtom;
  bool positive = true;
  Atom atom;       // kAtom
  Term lhs, rhs;   // kSim / kEq
};

/// One rule: head ← body.
struct Rule {
  Atom head;
  std::vector<Literal> body;

  /// Body literals of Kind::kAtom, in order.
  std::vector<const Literal*> RelationalLiterals() const;
};

/// A program: rules plus the set of extensional (stored) relation names
/// it may read.  Every predicate not in `edb` must be defined by rules.
struct Program {
  std::vector<Rule> rules;

  /// Pretty-printer (round-trips through the parser).
  std::string ToString() const;
};

}  // namespace datalog
}  // namespace trial

#endif  // TRIAL_DATALOG_AST_H_
