// Plan rendering: one operator per line, children indented two spaces,
// planner estimates next to executed actuals.  The format is stable —
// golden tests and the CI plan-dump artifact parse it loosely
// (substring checks), so keep changes additive.

#include <cstdio>
#include <string>

#include "core/plan/plan.h"

namespace trial {
namespace plan {
namespace {

std::string FmtEst(double est) {
  char buf[32];
  if (est < 1e7) {
    std::snprintf(buf, sizeof buf, "%.0f", est);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g", est);
  }
  return buf;
}

void Render(const PlanNode& n, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  AppendNodeSummary(n, out);
  out->append(" est=").append(FmtEst(n.est_rows));
  if (n.runtime.executed) {
    char buf[32];
    if (n.runtime.rows_known) {
      std::snprintf(buf, sizeof buf, "%zu", n.runtime.actual_rows);
    } else {
      // Executed, but nothing consumed the set yet (an unread root):
      // counting would force a sort the caller chose not to pay.
      std::snprintf(buf, sizeof buf, "?");
    }
    out->append(" actual=").append(buf);
    if (n.runtime.strategy != nullptr) {
      out->append(" (").append(n.runtime.strategy).append(")");
    }
    if (n.op == PlanOp::kFixpointStar) {
      std::snprintf(buf, sizeof buf, "%zu", n.runtime.rounds);
      out->append(" rounds=").append(buf);
      if (n.runtime.rounds > 0) {
        std::snprintf(buf, sizeof buf, " (probe=%zu, hash=%zu)",
                      n.runtime.probe_rounds, n.runtime.hash_rounds);
        out->append(buf);
      }
    }
    if (n.op == PlanOp::kDijkstraScan) {
      if (n.runtime.sp_reached) {
        char dbuf[64];
        std::snprintf(dbuf, sizeof dbuf, " dist=%lld settled=%zu",
                      static_cast<long long>(n.runtime.sp_distance),
                      n.runtime.sp_settled);
        out->append(dbuf);
      } else {
        out->append(" unreachable");
      }
    }
  } else {
    out->append(" actual=-");
  }
  out->append("\n");
  for (const PlanPtr& c : n.children) Render(*c, depth + 1, out);
}

}  // namespace

void AppendNodeSummary(const PlanNode& n, std::string* out) {
  out->append(PlanOpName(n.op));
  switch (n.op) {
    case PlanOp::kIndexScan:
      out->append(" ").append(n.rel_name);
      break;
    case PlanOp::kSelectFilter:
      out->append(" [").append(n.spec.cond.ToString()).append("]");
      break;
    case PlanOp::kIndexProbeJoin:
    case PlanOp::kHashJoin:
    case PlanOp::kMergeJoin:
      out->append(" [").append(n.spec.ToString()).append("]");
      break;
    case PlanOp::kFixpointStar:
      if (!n.rel_name.empty()) {  // a Datalog predicate's fixpoint
        out->append(" ").append(n.rel_name);
        break;
      }
      out->append(n.star_right ? " right" : " left");
      out->append(" [").append(n.spec.ToString()).append("]");
      break;
    case PlanOp::kDelta:
      if (n.reads_acc) out->append(" acc");
      break;
    case PlanOp::kReachIndexScan:
      out->append(" walk pos=").append(std::to_string(n.walk_col + 1));
      if (n.reach_same_middle) out->append(" same-middle");
      break;
    case PlanOp::kDijkstraScan:
      out->append(" ").append(n.sp_src).append(" -> ");
      out->append(n.sp_dst.empty() ? "*" : n.sp_dst);
      break;
    case PlanOp::kSharedScan:
      out->append(" #").append(std::to_string(n.share_id));
      break;
    default:
      break;
  }
  // The sub-plan whose result later SharedScan leaves read.
  if (n.share_id >= 0 && n.op != PlanOp::kSharedScan) {
    out->append(" shared=#").append(std::to_string(n.share_id));
  }
  // Predicted access path (probe joins and indexed selections); merge
  // joins render the two sorted-run orders they walk instead.
  if (n.op == PlanOp::kMergeJoin) {
    out->append(" via=")
        .append(IndexOrderName(static_cast<IndexOrder>(n.merge_lcol)))
        .append("/")
        .append(IndexOrderName(static_cast<IndexOrder>(n.merge_rcol)));
  } else if (n.access.prefix > 0) {
    out->append(" via=").append(IndexOrderName(n.access.order));
  }
}

std::string Explain(const PlanNode& root) {
  std::string out;
  Render(root, 0, &out);
  return out;
}

}  // namespace plan
}  // namespace trial
