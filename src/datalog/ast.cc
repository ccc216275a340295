#include "datalog/ast.h"

#include <algorithm>
#include <set>

namespace trial {
namespace datalog {
namespace {

std::string TermStr(const Term& t) {
  if (t.is_var) return t.name;
  return "\"" + t.name + "\"";
}

std::string AtomStr(const Atom& a) {
  std::string out = a.pred + "(";
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (i) out += ", ";
    out += TermStr(a.args[i]);
  }
  return out + ")";
}

}  // namespace

std::vector<const Literal*> Rule::RelationalLiterals() const {
  std::vector<const Literal*> out;
  for (const Literal& l : body) {
    if (l.kind == Literal::Kind::kAtom) out.push_back(&l);
  }
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (const Rule& r : rules) {
    out += AtomStr(r.head);
    if (!r.body.empty()) out += " :- ";
    for (size_t i = 0; i < r.body.size(); ++i) {
      if (i) out += ", ";
      const Literal& l = r.body[i];
      switch (l.kind) {
        case Literal::Kind::kAtom:
          if (!l.positive) out += "not ";
          out += AtomStr(l.atom);
          break;
        case Literal::Kind::kSim:
          if (!l.positive) out += "not ";
          out += "~(" + TermStr(l.lhs) + ", " + TermStr(l.rhs) + ")";
          break;
        case Literal::Kind::kEq:
          out += TermStr(l.lhs) + (l.positive ? " = " : " != ") +
                 TermStr(l.rhs);
          break;
      }
    }
    out += ".\n";
  }
  return out;
}

}  // namespace datalog
}  // namespace trial
