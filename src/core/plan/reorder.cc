// The DP join reorderer (the RDF-3X PlanGen recipe adapted to TriAL's
// ternary algebra).
//
// A maximal region of ⋈ nodes is flattened into its non-join leaves
// plus a conjunction of atoms.  Equality atoms between object positions
// induce *variable classes* over (leaf, column) occurrences (union-
// find); every other atom becomes a predicate over the classes it
// references.  Any bushy tree over the leaves that
//
//   * joins on every class shared between its two sides (a spanning
//     set of the original equalities),
//   * applies each predicate at the first node where all its referenced
//     classes are available, and
//   * keeps a class alive while it is an output column, occurs in a
//     leaf outside the subtree, or is referenced by an unapplied
//     predicate
//
// computes the same relation as the written order — associativity and
// commutativity of ⋈ plus substitution of equals.  TriAL intermediates
// are ternary, so a subtree is *feasible* only while its live classes
// number at most three; the written order is always feasible (its
// intermediates carry exactly their 3 output positions), so the DP
// never comes up empty.
//
// Enumeration is textbook DPsize over subsets: each feasible subset
// keeps one best entry per choice of *lead class* — the class placed in
// column 0 of the intermediate, which is the interesting order: a
// normalized TripleSet is sorted on column 0, so a parent merge join is
// free exactly when its key is the lead of both children (base-relation
// leaves can serve any column through the store-shared permutations,
// and a selection pinning only p on one serves column 2 too: it is
// born in OSP order, and serves column 0 through an SPO sort).
// Costs: a galloping merge min(|L|,|R|)·log₂(max/min + 2), plus 2|S|
// for each such selection S it reads through that sort; hash |L|+2|R|;
// probe |L|·log₂|R| (build side must be a stored relation); each plus
// the estimated output.  A merge needing no sort is never dearer than
// the other two.
// Equi-join selectivity comes from the aggregated projections
// (EstimateEquiJoinRows) when both key occurrences trace to relations
// with exact stats, the independence heuristic otherwise.

#include "core/plan/reorder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/plan/adapt.h"

namespace trial {
namespace plan {
namespace {

// Exhaustive subset DP is exponential; past this many leaves the caller
// falls back to the written order (2^10 subsets, 3^10 split pairs).
constexpr int kMaxDpLeaves = 10;

double DefaultDistinct(double rows) {
  return rows <= 1 ? rows : std::pow(rows, 2.0 / 3.0);
}

// Key compares of a galloping merge of runs of a and b rows: each row
// of the smaller run gallops into the larger one, O(log gap) apiece.
double GallopMergeCost(double a, double b) {
  const double lo = std::min(a, b), hi = std::max(a, b);
  return lo <= 0 ? 0.0 : lo * std::log2(hi / lo + 2.0);
}

struct UnionFind {
  std::vector<int> parent;
  int Make() {
    parent.push_back(static_cast<int>(parent.size()));
    return parent.back();
  }
  int Find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

// One region leaf: a lowered non-join subplan plus the class of each of
// its three columns and the filter atoms pushed onto it (applied as
// one-sided conditions at the leaf's first join).
struct Leaf {
  PlanPtr plan;
  int cls[3] = {0, 0, 0};
  bool index_scan = false;
  // A selection of a stored relation pinning only p: a POS range, so
  // its result is born sorted on column 2 (SelectIndexed).
  bool p_range = false;
  const TripleSetStats* stats = nullptr;  // exact stats incl. top-k, or null
  std::vector<ObjConstraint> theta;       // leaf-local positions (1,2,3)
  std::vector<DataConstraint> eta;
  double fsel = 1.0;  // estimated selectivity of the attached atoms
  std::string sig;    // normalized expression text (feedback lookups only)
};

// A non-equality (or η) atom surviving flattening, with each position
// term resolved to its class (-1 for constants).
struct Predicate {
  bool is_data = false;
  ObjConstraint obj;
  DataConstraint data;
  int lcls = -1, rcls = -1;
  std::vector<int> refs;  // distinct classes referenced
  double sel = 1.0;
};

// One DP table entry: a plan for the leaf subset `mask` whose output
// schema is `schema` (class per column).  `cap` flags the columns that
// can serve as a sorted merge run: bit 0 for every entry (column 0 is
// the normalized sort key), all three for base-relation leaves, and
// bit 2 as well for a p-pinned selection of one (Leaf::p_range).
struct Entry {
  int schema[3] = {-1, -1, -1};
  uint8_t cap = 0x1;
  double rows = 0;
  double dist[3] = {0, 0, 0};
  double cost = 0;
  double fsel = 1.0;  // pending one-sided filter selectivity (leaves)
  // Recipe.
  int leaf = -1;  // >= 0: this entry *is* leaf `leaf`
  PlanOp op = PlanOp::kHashJoin;
  uint32_t lmask = 0, rmask = 0;
  int lidx = -1, ridx = -1;
  int merge_cls = -1;
};

class Reorderer {
 public:
  Reorderer(const TripleStore& store,
            const std::function<PlanPtr(const Expr&)>& lower_leaf,
            const PlanningHints& hints,
            const std::function<bool(const Expr&)>& opaque)
      : store_(store), lower_leaf_(lower_leaf), hints_(hints), opaque_(opaque) {}

  PlanPtr Run(const Expr& root) {
    if (hints_.feedback != nullptr && FeedbackKeyable(root)) {
      region_sig_ = root.ToString();
    }
    root_ = &root;
    std::array<int, 3> out_vars = Flatten(root);
    if (!ok_ || leaves_.size() < 2 ||
        leaves_.size() > static_cast<size_t>(kMaxDpLeaves)) {
      return nullptr;
    }
    FinalizeClasses(out_vars);
    DistributeLeafAtoms();
    SeedLeafEntries();
    if (!EnumerateSubsets()) return nullptr;
    return EmitRoot();
  }

 private:
  // ---- flattening ------------------------------------------------------

  // Lowers the region, assigning a fresh variable per leaf column and
  // union-ing variables across object-equality atoms.  Returns the
  // variables of the subtree's three output positions.
  std::array<int, 3> Flatten(const Expr& e) {
    if (e.kind() != ExprKind::kJoin ||
        (&e != root_ && opaque_(e))) {
      Leaf leaf;
      leaf.plan = lower_leaf_(e);
      std::array<int, 3> vars{};
      for (int c = 0; c < 3; ++c) vars[c] = uf_.Make();
      if (leaf.plan != nullptr && leaf.plan->op == PlanOp::kIndexScan) {
        leaf.index_scan = true;
        if (const TripleSet* rel = store_.FindRelation(leaf.plan->rel_name)) {
          leaf.stats = rel->CachedStats();
        }
      }
      // The planner predicts a POS access only over a stored relation.
      if (leaf.plan != nullptr && leaf.plan->op == PlanOp::kSelectFilter &&
          leaf.plan->access.order == IndexOrder::kPOS &&
          leaf.plan->access.prefix == 1) {
        leaf.p_range = true;
      }
      if (leaf.plan == nullptr) ok_ = false;
      if (hints_.feedback != nullptr && FeedbackKeyable(e)) {
        leaf.sig = e.ToString();
      }
      leaf_vars_.push_back(vars);
      leaves_.push_back(std::move(leaf));
      return vars;
    }
    std::array<int, 3> lv = Flatten(*e.left());
    std::array<int, 3> rv = Flatten(*e.right());
    const JoinSpec& spec = e.join_spec();
    auto var_of = [&](Pos p) {
      return IsLeftPos(p) ? lv[PosColumn(p)] : rv[PosColumn(p)];
    };
    for (const ObjConstraint& a : spec.cond.theta) {
      if (a.equal && a.lhs.is_pos && a.rhs.is_pos) {
        uf_.Union(var_of(a.lhs.pos), var_of(a.rhs.pos));
      } else if (a.equal && a.lhs.is_pos != a.rhs.is_pos) {
        const ObjTerm& pt = a.lhs.is_pos ? a.lhs : a.rhs;
        const ObjTerm& ct = a.lhs.is_pos ? a.rhs : a.lhs;
        const_eqs_.push_back({var_of(pt.pos), ct.constant});
      } else {
        Predicate p;
        p.obj = a;
        p.lcls = a.lhs.is_pos ? var_of(a.lhs.pos) : -1;
        p.rcls = a.rhs.is_pos ? var_of(a.rhs.pos) : -1;
        raw_preds_.push_back(std::move(p));
      }
    }
    for (const DataConstraint& a : spec.cond.eta) {
      Predicate p;
      p.is_data = true;
      p.data = a;
      p.lcls = a.lhs.is_pos ? var_of(a.lhs.pos) : -1;
      p.rcls = a.rhs.is_pos ? var_of(a.rhs.pos) : -1;
      p.sel = a.equal ? 0.5 : 1.0;
      raw_preds_.push_back(std::move(p));
    }
    return {var_of(spec.out[0]), var_of(spec.out[1]), var_of(spec.out[2])};
  }

  void FinalizeClasses(const std::array<int, 3>& out_vars) {
    // Compress union-find roots to dense class ids.
    std::vector<int> root_to_cls(uf_.parent.size(), -1);
    auto cls_of = [&](int var) {
      int r = uf_.Find(var);
      if (root_to_cls[r] < 0) {
        root_to_cls[r] = num_cls_++;
        cls_leafmask_.push_back(0);
      }
      return root_to_cls[r];
    };
    for (size_t l = 0; l < leaves_.size(); ++l) {
      for (int c = 0; c < 3; ++c) {
        int cls = cls_of(leaf_vars_[l][c]);
        leaves_[l].cls[c] = cls;
        cls_leafmask_[cls] |= 1u << l;
      }
    }
    is_out_.assign(num_cls_, false);
    for (int j = 0; j < 3; ++j) {
      root_out_cls_[j] = cls_of(out_vars[j]);
      is_out_[root_out_cls_[j]] = true;
    }
    for (Predicate& p : raw_preds_) {
      if (p.lcls >= 0) p.lcls = cls_of(p.lcls);
      if (p.rcls >= 0) p.rcls = cls_of(p.rcls);
      if (p.lcls >= 0) p.refs.push_back(p.lcls);
      if (p.rcls >= 0 && p.rcls != p.lcls) p.refs.push_back(p.rcls);
    }
    for (auto& ce : const_eqs_) ce.first = cls_of(ce.first);
  }

  // Pushes const-equalities to every leaf occurrence of their class,
  // turns duplicate classes inside one leaf into leaf equalities, and
  // attaches every predicate whose classes are contained in a leaf to
  // each such leaf.  Attaching at every occurrence is valid — the join
  // keys enforce class equality, and all atoms are deterministic — and
  // strictly more selective than applying once.  A const-equality on a
  // stored relation is priced like the planner's selection, by the
  // value's own frequency (ConstEqSelectivity).
  void DistributeLeafAtoms() {
    for (size_t l = 0; l < leaves_.size(); ++l) {
      Leaf& leaf = leaves_[l];
      const double* d = leaf.plan->est_distinct;
      const TripleSet* rel =
          leaf.index_scan ? store_.FindRelation(leaf.plan->rel_name) : nullptr;
      for (const auto& ce : const_eqs_) {
        for (int c = 0; c < 3; ++c) {
          if (leaf.cls[c] != ce.first) continue;
          leaf.theta.push_back(EqConst(static_cast<Pos>(c), ce.second));
          leaf.fsel *= ConstEqSelectivity(rel, c, ce.second, d[c]);
        }
      }
      for (int i = 0; i < 3; ++i) {
        for (int j = i + 1; j < 3; ++j) {
          if (leaf.cls[i] != leaf.cls[j]) continue;
          leaf.theta.push_back(Eq(static_cast<Pos>(i), static_cast<Pos>(j)));
          leaf.fsel /= std::max({d[i], d[j], 1.0});
        }
      }
    }
    auto leaf_col = [&](const Leaf& leaf, int cls) {
      for (int c = 0; c < 3; ++c) {
        if (leaf.cls[c] == cls) return c;
      }
      return -1;
    };
    std::vector<Predicate> spanning;
    for (Predicate& p : raw_preds_) {
      bool contained = false;
      for (Leaf& leaf : leaves_) {
        int lc = p.lcls < 0 ? 0 : leaf_col(leaf, p.lcls);
        int rc = p.rcls < 0 ? 0 : leaf_col(leaf, p.rcls);
        if (lc < 0 || rc < 0) continue;
        contained = true;
        if (p.is_data) {
          DataConstraint a = p.data;
          if (a.lhs.is_pos) a.lhs.pos = static_cast<Pos>(lc);
          if (a.rhs.is_pos) a.rhs.pos = static_cast<Pos>(rc);
          leaf.eta.push_back(std::move(a));
        } else {
          ObjConstraint a = p.obj;
          if (a.lhs.is_pos) a.lhs.pos = static_cast<Pos>(lc);
          if (a.rhs.is_pos) a.rhs.pos = static_cast<Pos>(rc);
          leaf.theta.push_back(std::move(a));
        }
        leaf.fsel *= p.sel;
        if (p.refs.empty()) break;  // constant atom: one application
      }
      if (!contained) spanning.push_back(std::move(p));
    }
    preds_ = std::move(spanning);
  }

  // ---- liveness --------------------------------------------------------

  uint32_t OccMask(int cls) const { return cls_leafmask_[cls]; }

  bool PredApplied(const Predicate& p, uint32_t mask) const {
    for (int c : p.refs) {
      if ((OccMask(c) & mask) == 0) return false;
    }
    return true;
  }

  // Live classes of subset `mask`; false when more than three (the
  // subset cannot be carried by a ternary intermediate).
  bool Needed(uint32_t mask, std::vector<int>* out) const {
    out->clear();
    uint32_t full = (1u << leaves_.size()) - 1;
    for (int c = 0; c < num_cls_; ++c) {
      uint32_t occ = OccMask(c);
      if ((occ & mask) == 0) continue;
      bool live = is_out_[c] || (occ & (full & ~mask)) != 0;
      if (!live) {
        for (const Predicate& p : preds_) {
          if (PredApplied(p, mask)) continue;
          for (int rc : p.refs) live = live || rc == c;
        }
      }
      if (live) {
        out->push_back(c);
        if (out->size() > 3) return false;
      }
    }
    return true;
  }

  // ---- feedback hints --------------------------------------------------

  // Observed rows of subset `mask` from the FeedbackCache (keyed by the
  // region signature + mask; single-leaf masks additionally try the
  // leaf's own expression signature, the cross-query key the planner
  // records for every node).  Negative when absent.  Memoized: one
  // cache consult per feasible mask per planning pass.
  double FeedbackRows(uint32_t mask) {
    if (hints_.feedback == nullptr) return -1.0;
    auto it = fb_memo_.find(mask);
    if (it != fb_memo_.end()) return it->second;
    double obs = -1.0;
    if (!region_sig_.empty()) {
      obs = hints_.feedback->Lookup(store_, RegionSubsetKey(region_sig_, mask));
    }
    if (obs < 0 && (mask & (mask - 1)) == 0) {
      const Leaf& leaf = leaves_[FirstLeaf(mask)];
      if (!leaf.sig.empty()) obs = hints_.feedback->Lookup(store_, leaf.sig);
    }
    fb_memo_.emplace(mask, obs);
    return obs;
  }

  // ---- DP --------------------------------------------------------------

  void SeedLeafEntries() {
    for (size_t l = 0; l < leaves_.size(); ++l) {
      const Leaf& leaf = leaves_[l];
      Entry e;
      for (int c = 0; c < 3; ++c) {
        e.schema[c] = leaf.cls[c];
        e.dist[c] = leaf.plan->est_distinct[c];
      }
      e.cap = leaf.index_scan ? 0x7 : leaf.p_range ? 0x5 : 0x1;
      e.rows = leaf.plan->est_rows;
      double obs = FeedbackRows(1u << l);
      if (obs >= 0) {
        e.rows = obs;
        for (int c = 0; c < 3; ++c) {
          e.dist[c] = std::min(e.dist[c], std::max(obs, 1.0));
        }
      }
      // A stored relation pre-exists; anything else paid its subtree.
      e.cost = leaf.index_scan ? 0.0 : e.rows;
      e.fsel = leaf.fsel;
      e.leaf = static_cast<int>(l);
      table_[1u << l].push_back(e);
    }
  }

  int SchemaCol(const Entry& e, int cls) const {
    for (int c = 0; c < 3; ++c) {
      if (e.schema[c] == cls) return c;
    }
    return -1;
  }

  // Selectivity of equating class `cls` across the two sides: the
  // aggregated-projection estimate when both sides have an occurrence
  // in a relation with exact stats, 1/max(distinct) otherwise.
  double KeySelectivity(int cls, uint32_t lmask, uint32_t rmask,
                        const Entry& le, const Entry& re) const {
    const TripleSetStats* ls = nullptr;
    const TripleSetStats* rs = nullptr;
    int lcol = 0, rcol = 0;
    for (size_t l = 0; l < leaves_.size(); ++l) {
      uint32_t bit = 1u << l;
      const Leaf& leaf = leaves_[l];
      if (leaf.stats == nullptr) continue;
      for (int c = 0; c < 3; ++c) {
        if (leaf.cls[c] != cls) continue;
        if ((bit & lmask) != 0 && ls == nullptr) {
          ls = leaf.stats;
          lcol = c;
        }
        if ((bit & rmask) != 0 && rs == nullptr) {
          rs = leaf.stats;
          rcol = c;
        }
      }
    }
    if (ls != nullptr && rs != nullptr && ls->HasAgg(lcol) &&
        rs->HasAgg(rcol) && ls->num_triples > 0 && rs->num_triples > 0) {
      double denom = static_cast<double>(ls->num_triples) *
                     static_cast<double>(rs->num_triples);
      return std::min(1.0, EstimateEquiJoinRows(*ls, lcol, *rs, rcol) / denom);
    }
    int lc = SchemaCol(le, cls), rc = SchemaCol(re, cls);
    double dl = lc >= 0 ? le.dist[lc] : 0.0;
    double dr = rc >= 0 ? re.dist[rc] : 0.0;
    return 1.0 / std::max({dl, dr, 1.0});
  }

  bool EnumerateSubsets() {
    uint32_t full = (1u << leaves_.size()) - 1;
    std::vector<int> needed;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      if ((mask & (mask - 1)) == 0) continue;  // single leaf: seeded
      if (!Needed(mask, &needed)) continue;    // infeasible subset
      std::vector<Entry>& out = table_[mask];
      // Enumerate unordered splits once, try both orientations.
      for (uint32_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        uint32_t other = mask & ~sub;
        if (sub < other) continue;
        auto li = table_.find(sub);
        auto ri = table_.find(other);
        if (li == table_.end() || ri == table_.end()) continue;
        // On cost ties Offer keeps the first candidate, so try the
        // written orientation first: the side holding the region's
        // leftmost leaf plays left.
        bool sub_is_left = (sub & (1u << FirstLeaf(mask))) != 0;
        uint32_t lm = sub_is_left ? sub : other;
        uint32_t rm = sub_is_left ? other : sub;
        auto& lv = sub_is_left ? li->second : ri->second;
        auto& rv = sub_is_left ? ri->second : li->second;
        for (size_t a = 0; a < lv.size(); ++a) {
          for (size_t b = 0; b < rv.size(); ++b) {
            Combine(mask, needed, lm, static_cast<int>(a), rm,
                    static_cast<int>(b), &out);
            Combine(mask, needed, rm, static_cast<int>(b), lm,
                    static_cast<int>(a), &out);
          }
        }
      }
      if (mask == full && out.empty()) return false;
    }
    return table_.count(full) != 0 && !table_[full].empty();
  }

  // Tries every strategy for (left entry, right entry) and offers the
  // results, one per feasible lead class, to the subset's entry list.
  void Combine(uint32_t mask, const std::vector<int>& needed, uint32_t lmask,
               int lidx, uint32_t rmask, int ridx, std::vector<Entry>* out) {
    const Entry& le = table_[lmask][lidx];
    const Entry& re = table_[rmask][ridx];
    // Shared classes (the join keys this node must enforce).
    int shared[3];
    int nshared = 0;
    for (int c = 0; c < num_cls_ && nshared < 3; ++c) {
      if ((OccMask(c) & lmask) != 0 && (OccMask(c) & rmask) != 0) {
        shared[nshared++] = c;
      }
    }
    double rows = le.rows * le.fsel * re.rows * re.fsel;
    for (int i = 0; i < nshared; ++i) {
      rows *= KeySelectivity(shared[i], lmask, rmask, le, re);
    }
    for (const Predicate& p : preds_) {
      if (PredApplied(p, mask) && !PredApplied(p, lmask) &&
          !PredApplied(p, rmask)) {
        rows *= p.sel;
      }
    }
    // Observed cardinality (prior execution of this exact subset) beats
    // any estimate; feedback only moves cost, never semantics.
    double obs = FeedbackRows(mask);
    if (obs >= 0) rows = obs;
    rows = std::max(rows, 0.0);
    const double lc = le.cost, rc = re.cost;
    const double ln = le.rows, rn = re.rows;
    // Strategy costs (see file comment).  Probe requires a stored-
    // relation build side — the same amortization gate the executor
    // applies — and at least one exact key.
    struct Cand {
      PlanOp op;
      double cost;
      int merge_cls;
    };
    Cand cands[3];
    int ncands = 0;
    cands[ncands++] = {PlanOp::kHashJoin, lc + rc + ln + 2 * rn + rows, -1};
    for (int i = 0; i < nshared; ++i) {
      int cl = SchemaCol(le, shared[i]), cr = SchemaCol(re, shared[i]);
      if (cl < 0 || cr < 0) continue;
      if ((le.cap >> cl) & 1 && (re.cap >> cr) & 1) {
        cands[ncands++] = {PlanOp::kMergeJoin,
                           lc + rc + GallopMergeCost(ln, rn) +
                               SortCost(le, cl) + SortCost(re, cr) + rows,
                           shared[i]};
        break;
      }
    }
    if (nshared > 0 && re.leaf >= 0 && leaves_[re.leaf].index_scan) {
      cands[ncands++] = {PlanOp::kIndexProbeJoin,
                         lc + rc + ln * std::log2(rn + 2.0) + rows, -1};
    }
    for (int ci = 0; ci < ncands; ++ci) {
      const Cand& cand = cands[ci];
      // One entry per lead class (the interesting orders); a subset
      // with no live class keeps a single arbitrary-schema entry.
      int nleads = needed.empty() ? 1 : static_cast<int>(needed.size());
      for (int li = 0; li < nleads; ++li) {
        Entry e;
        if (needed.empty()) {
          int any = leaves_[FirstLeaf(mask)].cls[0];
          e.schema[0] = e.schema[1] = e.schema[2] = any;
        } else {
          int lead = needed[li];
          e.schema[0] = lead;
          int at = 1;
          for (int c : needed) {
            if (c != lead && at < 3) e.schema[at++] = c;
          }
          while (at < 3) {
            e.schema[at] = e.schema[at - 1];
            ++at;
          }
        }
        e.cap = 0x1;
        e.rows = rows;
        for (int c = 0; c < 3; ++c) {
          int cls = e.schema[c];
          bool key = false;
          for (int i = 0; i < nshared; ++i) key = key || shared[i] == cls;
          int cl = SchemaCol(le, cls), cr = SchemaCol(re, cls);
          double dl = cl >= 0 ? le.dist[cl] : 0.0;
          double dr = cr >= 0 ? re.dist[cr] : 0.0;
          double d;
          if (key) {
            d = std::min(dl > 0 ? dl : dr, dr > 0 ? dr : dl);
          } else {
            d = std::max(dl, dr);
          }
          if (d <= 0) d = DefaultDistinct(rows);
          e.dist[c] = std::min(d, std::max(rows, 1.0));
        }
        e.cost = cand.cost;
        e.op = cand.op;
        e.lmask = lmask;
        e.rmask = rmask;
        e.lidx = lidx;
        e.ridx = ridx;
        e.merge_cls = cand.merge_cls;
        Offer(out, e);
      }
    }
  }

  // What a merge pays to read `e` sorted on column `col`: a p-pinned
  // selection is born in OSP order, so its column-0 run is an SPO sort,
  // priced like a hash build over the same rows.  Every other
  // advertised run is free.
  double SortCost(const Entry& e, int col) const {
    return e.leaf >= 0 && leaves_[e.leaf].p_range && col == 0 ? 2 * e.rows
                                                               : 0.0;
  }

  static int FirstLeaf(uint32_t mask) {
    int l = 0;
    while ((mask & (1u << l)) == 0) ++l;
    return l;
  }

  // Keeps the cheapest entry per lead class (schema column 0).  The
  // margin absorbs floating-point noise between symmetric orientations
  // (their selectivities sum the same terms in different orders), so a
  // true tie keeps the first — written-order — candidate.
  static void Offer(std::vector<Entry>* out, const Entry& e) {
    for (Entry& have : *out) {
      if (have.schema[0] == e.schema[0]) {
        if (e.cost * (1.0 + 1e-9) < have.cost) have = e;
        return;
      }
    }
    out->push_back(e);
  }

  // ---- emission --------------------------------------------------------

  // Position of class `cls` in the join's combined (left, right) frame.
  // `fallback_right` resolves classes present on both sides.
  static Pos ClassPos(const Entry& le, const Entry& re, int cls, bool* ok) {
    for (int c = 0; c < 3; ++c) {
      if (le.schema[c] == cls) return static_cast<Pos>(c);
    }
    for (int c = 0; c < 3; ++c) {
      if (re.schema[c] == cls) return static_cast<Pos>(c + 3);
    }
    *ok = false;
    return Pos::P1;
  }

  PlanPtr EmitEntry(uint32_t mask, int idx, const int out_cls[3]) {
    const Entry e = table_[mask][idx];  // copy: table untouched below
    if (e.leaf >= 0) {
      PlanPtr leaf_plan = std::move(leaves_[e.leaf].plan);
      if (leaf_plan != nullptr) leaf_plan->region_mask = mask;
      return leaf_plan;
    }
    const Entry& le = table_[e.lmask][e.lidx];
    const Entry& re = table_[e.rmask][e.ridx];
    PlanPtr l = EmitEntry(e.lmask, e.lidx, nullptr);
    PlanPtr r = EmitEntry(e.rmask, e.ridx, nullptr);
    if (l == nullptr || r == nullptr) return nullptr;

    auto node = std::make_unique<PlanNode>();
    node->op = e.op;
    node->region_mask = mask;
    bool ok = true;
    // Output spec: the entry's schema classes — overridden with the
    // region's original output classes at the root.
    for (int j = 0; j < 3; ++j) {
      int cls = out_cls != nullptr ? out_cls[j] : e.schema[j];
      node->spec.out[j] = ClassPos(le, re, cls, &ok);
      int col = SchemaCol(e, cls);
      node->est_distinct[j] = col >= 0 ? e.dist[col] : e.dist[j];
    }
    // Join keys: one exact equality per shared class.
    for (int c = 0; c < num_cls_; ++c) {
      if ((OccMask(c) & e.lmask) == 0 || (OccMask(c) & e.rmask) == 0) continue;
      int cl = SchemaCol(le, c), cr = SchemaCol(re, c);
      if (cl < 0 || cr < 0) {
        ok = false;
        continue;
      }
      node->spec.cond.theta.push_back(
          Eq(static_cast<Pos>(cl), static_cast<Pos>(cr + 3)));
    }
    // Leaf filter atoms attach at the leaf's (unique) join.
    AttachLeafAtoms(table_[e.lmask][e.lidx], /*primed=*/false, &node->spec.cond);
    AttachLeafAtoms(table_[e.rmask][e.ridx], /*primed=*/true, &node->spec.cond);
    // Spanning predicates newly applicable at this node.
    for (const Predicate& p : preds_) {
      if (!PredApplied(p, mask) || PredApplied(p, e.lmask) ||
          PredApplied(p, e.rmask)) {
        continue;
      }
      if (p.is_data) {
        DataConstraint a = p.data;
        if (a.lhs.is_pos) a.lhs.pos = ClassPos(le, re, p.lcls, &ok);
        if (a.rhs.is_pos) a.rhs.pos = ClassPos(le, re, p.rcls, &ok);
        node->spec.cond.eta.push_back(std::move(a));
      } else {
        ObjConstraint a = p.obj;
        if (a.lhs.is_pos) a.lhs.pos = ClassPos(le, re, p.lcls, &ok);
        if (a.rhs.is_pos) a.rhs.pos = ClassPos(le, re, p.rcls, &ok);
        node->spec.cond.theta.push_back(std::move(a));
      }
    }
    if (!ok) return nullptr;
    node->est_rows = e.rows;
    if (e.op == PlanOp::kMergeJoin) {
      node->merge_lcol = SchemaCol(le, e.merge_cls);
      node->merge_rcol = SchemaCol(re, e.merge_cls);
      node->access = AccessPath{static_cast<IndexOrder>(node->merge_lcol), 1};
    } else if (e.op == PlanOp::kIndexProbeJoin) {
      ProbePlan pp = ProbePlan::Build(JoinPlan::Build(node->spec.cond));
      if (pp.n > 0) {
        node->access = AccessPath{pp.Order(), pp.n};
      } else {
        node->op = PlanOp::kHashJoin;
      }
    }
    node->children.push_back(std::move(l));
    node->children.push_back(std::move(r));
    return node;
  }

  void AttachLeafAtoms(const Entry& child, bool primed, CondSet* cond) {
    if (child.leaf < 0) return;
    const Leaf& leaf = leaves_[child.leaf];
    for (ObjConstraint a : leaf.theta) {
      if (primed) {
        if (a.lhs.is_pos) a.lhs.pos = static_cast<Pos>(PosIndex(a.lhs.pos) + 3);
        if (a.rhs.is_pos) a.rhs.pos = static_cast<Pos>(PosIndex(a.rhs.pos) + 3);
      }
      cond->theta.push_back(std::move(a));
    }
    for (DataConstraint a : leaf.eta) {
      if (primed) {
        if (a.lhs.is_pos) a.lhs.pos = static_cast<Pos>(PosIndex(a.lhs.pos) + 3);
        if (a.rhs.is_pos) a.rhs.pos = static_cast<Pos>(PosIndex(a.rhs.pos) + 3);
      }
      cond->eta.push_back(std::move(a));
    }
  }

  PlanPtr EmitRoot() {
    uint32_t full = (1u << leaves_.size()) - 1;
    std::vector<Entry>& roots = table_[full];
    int best = 0;
    for (size_t i = 1; i < roots.size(); ++i) {
      if (roots[i].cost < roots[best].cost) best = static_cast<int>(i);
    }
    if (roots[best].leaf >= 0) return nullptr;  // degenerate, cannot happen
    return EmitEntry(full, best, root_out_cls_);
  }

  const TripleStore& store_;
  const std::function<PlanPtr(const Expr&)>& lower_leaf_;
  const PlanningHints& hints_;
  const std::function<bool(const Expr&)>& opaque_;
  const Expr* root_ = nullptr;
  std::string region_sig_;  // root.ToString(), when feedback is consulted
  std::unordered_map<uint32_t, double> fb_memo_;

  std::vector<Leaf> leaves_;
  std::vector<std::array<int, 3>> leaf_vars_;
  UnionFind uf_;
  std::vector<Predicate> raw_preds_;  // becomes preds_ after distribution
  std::vector<Predicate> preds_;
  std::vector<std::pair<int, ObjId>> const_eqs_;
  bool ok_ = true;

  int num_cls_ = 0;
  std::vector<uint32_t> cls_leafmask_;
  std::vector<bool> is_out_;
  int root_out_cls_[3] = {0, 0, 0};

  std::map<uint32_t, std::vector<Entry>> table_;
};

}  // namespace

PlanPtr ReorderJoinRegion(
    const Expr& e, const TripleStore& store,
    const std::function<PlanPtr(const Expr&)>& lower_leaf,
    const std::function<bool(const Expr&)>& opaque,
    const PlanningHints& hints) {
  if (e.kind() != ExprKind::kJoin) return nullptr;
  return Reorderer(store, lower_leaf, hints, opaque).Run(e);
}

}  // namespace plan
}  // namespace trial
