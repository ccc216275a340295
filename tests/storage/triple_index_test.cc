// Unit and property tests for the permutation-index layer
// (storage/triple_index.h): planner coverage, agreement of Lookup /
// LookupPair / Scan with the sorted base vector, lazy build and
// invalidation, cache sharing across copies, stats, the merge-based
// Normalize, the SortTriples radix kernel, and the Zipf-skewed store
// generator that exercises skewed index selectivity.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "graph/generators.h"
#include "storage/triple_index.h"
#include "storage/triple_set.h"
#include "storage/triple_store.h"
#include "util/rng.h"

namespace trial {
namespace {

TripleSet RandomSet(Rng* rng, size_t n, ObjId universe) {
  TripleSet s;
  for (size_t i = 0; i < n; ++i) {
    s.Insert(static_cast<ObjId>(rng->Below(universe)),
             static_cast<ObjId>(rng->Below(universe)),
             static_cast<ObjId>(rng->Below(universe)));
  }
  return s;
}

std::vector<Triple> ScanFilter(const TripleSet& s, int col, ObjId v) {
  std::vector<Triple> out;
  for (const Triple& t : s) {
    if (t[col] == v) out.push_back(t);
  }
  return out;
}

TEST(PlanAccess, CoversEverySingleColumnAndPair) {
  EXPECT_EQ(PlanAccess(true, false, false).order, IndexOrder::kSPO);
  EXPECT_EQ(PlanAccess(false, true, false).order, IndexOrder::kPOS);
  EXPECT_EQ(PlanAccess(false, false, true).order, IndexOrder::kOSP);
  EXPECT_EQ(PlanAccess(true, true, false).order, IndexOrder::kSPO);
  EXPECT_EQ(PlanAccess(false, true, true).order, IndexOrder::kPOS);
  EXPECT_EQ(PlanAccess(true, false, true).order, IndexOrder::kOSP);
  // Every bound set is fully covered by the chosen order's prefix.
  for (int mask = 0; mask < 8; ++mask) {
    bool s = mask & 1, p = mask & 2, o = mask & 4;
    AccessPath path = PlanAccess(s, p, o);
    EXPECT_EQ(path.prefix, (s ? 1 : 0) + (p ? 1 : 0) + (o ? 1 : 0));
    // The prefix columns of the order are exactly the bound ones.
    bool bound[3] = {s, p, o};
    for (int k = 0; k < path.prefix; ++k) {
      EXPECT_TRUE(bound[IndexColumn(path.order, k)])
          << "mask=" << mask << " k=" << k;
    }
  }
}

TEST(TripleIndex, LookupAgreesWithLinearScan) {
  Rng rng(7);
  TripleSet s = RandomSet(&rng, 300, 12);
  for (int col = 0; col < 3; ++col) {
    for (ObjId v = 0; v < 13; ++v) {  // one past the universe: empty range
      std::vector<Triple> expect = ScanFilter(s, col, v);
      TripleRange got = s.Lookup(col, v);
      std::vector<Triple> got_v(got.begin(), got.end());
      std::sort(got_v.begin(), got_v.end());
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(got_v, expect) << "col=" << col << " v=" << v;
    }
  }
}

TEST(TripleIndex, LookupPairAgreesWithLinearScan) {
  Rng rng(11);
  TripleSet s = RandomSet(&rng, 400, 8);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      for (ObjId va = 0; va < 8; ++va) {
        for (ObjId vb = 0; vb < 8; ++vb) {
          std::vector<Triple> expect;
          for (const Triple& t : s) {
            if (t[a] == va && t[b] == vb) expect.push_back(t);
          }
          TripleRange got = s.LookupPair(a, va, b, vb);
          std::vector<Triple> got_v(got.begin(), got.end());
          std::sort(got_v.begin(), got_v.end());
          std::sort(expect.begin(), expect.end());
          EXPECT_EQ(got_v, expect)
              << "cols " << a << "," << b << " vals " << va << "," << vb;
        }
      }
    }
  }
}

TEST(TripleIndex, LookupPairSameColumn) {
  TripleSet s({{1, 2, 3}, {1, 5, 6}});
  EXPECT_EQ(s.LookupPair(0, 1, 0, 1).size(), 2u);
  EXPECT_TRUE(s.LookupPair(0, 1, 0, 2).empty());
}

TEST(TripleIndex, ScanIsSortedPermutationOfBase) {
  Rng rng(13);
  TripleSet s = RandomSet(&rng, 250, 9);
  std::vector<Triple> base = s.triples();
  for (IndexOrder ord :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    TripleRange r = s.Scan(ord);
    ASSERT_EQ(r.size(), base.size());
    for (size_t i = 1; i < r.size(); ++i) {
      EXPECT_FALSE(IndexLess(ord, r.begin()[i], r.begin()[i - 1]))
          << IndexOrderName(ord) << " out of order at " << i;
    }
    std::vector<Triple> copy(r.begin(), r.end());
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, base) << IndexOrderName(ord) << " is not a permutation";
  }
}

TEST(TripleIndex, LazyBuildAndInvalidationOnInsert) {
  TripleSet s;
  s.Insert(1, 2, 3);
  // Pending staged inserts: nothing is ready.
  EXPECT_FALSE(s.IndexReady(IndexOrder::kSPO));
  EXPECT_EQ(s.size(), 1u);  // normalizes
  EXPECT_TRUE(s.IndexReady(IndexOrder::kSPO));   // the base vector itself
  EXPECT_FALSE(s.IndexReady(IndexOrder::kPOS));  // lazy: not yet built
  EXPECT_EQ(s.Lookup(1, 2).size(), 1u);          // builds POS
  EXPECT_TRUE(s.IndexReady(IndexOrder::kPOS));
  EXPECT_FALSE(s.IndexReady(IndexOrder::kOSP));

  s.Insert(4, 2, 6);  // invalidates
  EXPECT_FALSE(s.IndexReady(IndexOrder::kPOS));
  EXPECT_EQ(s.Lookup(1, 2).size(), 2u);  // rebuilt over the merged body
  EXPECT_TRUE(s.IndexReady(IndexOrder::kPOS));
}

TEST(TripleIndex, CopiesShareTheCacheUntilMutation) {
  Rng rng(17);
  TripleSet original = RandomSet(&rng, 100, 6);
  original.triples();  // normalize
  TripleSet copy = original;
  // Building through the copy warms the original (shared cell) ...
  copy.Lookup(2, 3);
  EXPECT_TRUE(original.IndexReady(IndexOrder::kOSP));
  // ... and mutating the copy detaches it without touching the original.
  copy.Insert(99, 99, 99);
  EXPECT_FALSE(copy.IndexReady(IndexOrder::kOSP));  // staged insert pending
  EXPECT_EQ(copy.Lookup(2, 99).size(), 1u);  // detaches, rebuilds over merge
  EXPECT_TRUE(original.IndexReady(IndexOrder::kOSP));
  EXPECT_TRUE(original.Lookup(2, 99).empty());
}

TEST(TripleIndex, StatsCountDistinctValues) {
  TripleSet s({{0, 5, 1}, {0, 5, 2}, {1, 5, 2}, {2, 6, 2}});
  const TripleSetStats& st = s.Stats();
  EXPECT_EQ(st.num_triples, 4u);
  EXPECT_EQ(st.distinct[0], 3u);  // s: 0, 1, 2
  EXPECT_EQ(st.distinct[1], 2u);  // p: 5, 6
  EXPECT_EQ(st.distinct[2], 2u);  // o: 1, 2
  EXPECT_DOUBLE_EQ(st.ExpectedMatches(1), 2.0);
}

TEST(TripleIndex, StoreExposesRelationStats) {
  TripleStore store;
  store.Add("E", "a", "p", "b");
  store.Add("E", "a", "p", "c");
  const TripleSetStats& st = store.RelationStats(0);
  EXPECT_EQ(st.num_triples, 2u);
  EXPECT_EQ(st.distinct[0], 1u);
  EXPECT_EQ(st.distinct[2], 2u);
}

// The merge-based Normalize: interleaved insert/read rounds agree with a
// std::set model (this is the semi-naive fixpoint access pattern).
TEST(TripleSetNormalize, InterleavedBatchesMatchSetModel) {
  Rng rng(23);
  TripleSet s;
  std::set<Triple> model;
  for (int round = 0; round < 20; ++round) {
    size_t batch = rng.Below(40);
    for (size_t i = 0; i < batch; ++i) {
      Triple t{static_cast<ObjId>(rng.Below(10)),
               static_cast<ObjId>(rng.Below(10)),
               static_cast<ObjId>(rng.Below(10))};
      s.Insert(t);
      model.insert(t);
    }
    ASSERT_EQ(s.size(), model.size()) << "round " << round;
    std::vector<Triple> expect(model.begin(), model.end());
    EXPECT_EQ(s.triples(), expect) << "round " << round;
  }
}

TEST(ZipfStores, DeterministicInSeed) {
  RandomStoreOptions opts;
  opts.num_objects = 50;
  opts.num_triples = 500;
  opts.zipf_p = 1.2;
  opts.zipf_o = 0.8;
  opts.seed = 5;
  TripleStore a = RandomTripleStore(opts);
  TripleStore b = RandomTripleStore(opts);
  ASSERT_EQ(a.TotalTriples(), b.TotalTriples());
  EXPECT_EQ(*a.FindRelation("E"), *b.FindRelation("E"));
}

TEST(ZipfStores, SkewConcentratesOnLowRanks) {
  RandomStoreOptions opts;
  opts.num_objects = 64;
  opts.num_triples = 2000;
  opts.zipf_p = 1.5;
  opts.seed = 9;
  TripleStore store = RandomTripleStore(opts);
  const TripleSet& rel = *store.FindRelation("E");
  ObjId hottest = store.FindObject("o0");
  ASSERT_NE(hottest, kInvalidIntern);
  size_t hot = rel.Lookup(1, hottest).size();
  // Uniform would give ~2000/64 ≈ 31 (duplicates collapse a little);
  // Zipf(1.5) gives rank 0 about 1/ζ(1.5)·2000 ≈ 40% of all draws.
  EXPECT_GT(hot, 200u);
  const TripleSetStats& st = rel.Stats();
  EXPECT_LT(st.distinct[1], 64u);  // deep ranks are rarely drawn at all
  EXPECT_GT(st.distinct[0], 50u);  // subjects stayed uniform
}

// ---- Materialize -----------------------------------------------------

TEST(Materialize, BuildsTheOrder) {
  Rng rng(79);
  TripleSet s = RandomSet(&rng, 50, 10);
  EXPECT_FALSE(s.IndexReady(IndexOrder::kPOS));
  s.Materialize(IndexOrder::kPOS);
  EXPECT_TRUE(s.IndexReady(IndexOrder::kPOS));
  s.Insert(1, 2, 3);  // staged insert invalidates readiness
  EXPECT_FALSE(s.IndexReady(IndexOrder::kPOS));
}

// Cross-check: the index-routed Smart engine agrees with Naive on
// selective constant selections and joins over a skewed store — the
// workload where index ranges differ most between hot and cold keys.
TEST(ZipfStores, EnginesAgreeOnSelectiveQueries) {
  RandomStoreOptions opts;
  opts.num_objects = 40;
  opts.num_triples = 400;
  opts.zipf_p = 1.3;
  opts.zipf_o = 1.0;
  opts.seed = 31;
  TripleStore store = RandomTripleStore(opts);
  auto naive = MakeNaiveEvaluator();
  auto smart = MakeSmartEvaluator();
  ObjId hot = store.FindObject("o0");
  ObjId cold = store.FindObject("o39");
  ASSERT_NE(hot, kInvalidIntern);
  ASSERT_NE(cold, kInvalidIntern);
  for (ObjId c : {hot, cold}) {
    for (Pos pos : {Pos::P1, Pos::P2, Pos::P3}) {
      // σ_{pos=c}(E) and σ_{pos=c}(E) ⋈_{3=1'} E.
      ExprPtr sel = Expr::Select(Expr::Rel("E"), Where({EqConst(pos, c)}));
      ExprPtr join =
          Expr::Join(sel, Expr::Rel("E"),
                     Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
      for (const ExprPtr& e : {sel, join}) {
        auto rn = naive->Eval(e, store);
        auto rs = smart->Eval(e, store);
        ASSERT_TRUE(rn.ok()) << rn.status().ToString();
        ASSERT_TRUE(rs.ok()) << rs.status().ToString();
        EXPECT_EQ(*rn, *rs) << e->ToString();
      }
    }
  }
}

// ---- the sort kernel ----------------------------------------------------

// SortTriples must order exactly as std::sort with IndexLess, keeping
// duplicates, for every order.  The inputs hit each pass-skipping rule:
// ids that use bits 22-31 (the third 11-bit digit, up to 0xFFFFFFFF),
// duplicate rows, a column constant across all rows (its passes are
// skipped), a column where most but not all rows share one value,
// input already sorted (every pass skipped) and reverse sorted, at
// sizes on both sides of the comparison-sort fallback.
void ExpectSortsLikeStdSort(std::vector<Triple> rows, const char* what) {
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    std::vector<Triple> want = rows;
    std::sort(want.begin(), want.end(),
              [order](const Triple& a, const Triple& b) {
                return IndexLess(order, a, b);
              });
    std::vector<Triple> got = rows;
    SortTriples(&got, order);
    EXPECT_EQ(got, want) << what << ", " << IndexOrderName(order) << ", "
                         << rows.size() << " rows";
    // Sorted input (every order's own output) must stay put, and the
    // other orders must sort it like any input.
    for (IndexOrder again :
         {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
      std::vector<Triple> resorted = want;
      SortTriples(&resorted, again);
      std::vector<Triple> ref = want;
      std::stable_sort(ref.begin(), ref.end(),
                       [again](const Triple& a, const Triple& b) {
                         return IndexLess(again, a, b);
                       });
      EXPECT_EQ(resorted, ref) << what << ", " << IndexOrderName(order)
                               << " then " << IndexOrderName(again);
    }
    std::vector<Triple> reversed(want.rbegin(), want.rend());
    SortTriples(&reversed, order);
    EXPECT_EQ(reversed, want) << what << ", reversed, "
                              << IndexOrderName(order);
  }
}

TEST(SortTriples, MatchesStdSortOnEveryOrder) {
  Rng rng(4242);
  const size_t sizes[] = {0,
                          1,
                          2,
                          37,
                          kSortTriplesRadixMinRows - 1,
                          kSortTriplesRadixMinRows,
                          kSortTriplesRadixMinRows + 1,
                          5000,
                          40000};
  for (size_t n : sizes) {
    // Full 32-bit ids, plus the extremes of the top digit.
    std::vector<Triple> wide(n);
    for (size_t i = 0; i < n; ++i) {
      wide[i] = Triple{static_cast<ObjId>(rng.Next()),
                       static_cast<ObjId>(rng.Next()),
                       static_cast<ObjId>(rng.Next())};
      if (i % 7 == 0) wide[i].o = 0xFFFFFFFFu;
      if (i % 11 == 0) wide[i].s = ObjId{1} << 22;
    }
    ExpectSortsLikeStdSort(wide, "32-bit ids");
    // Ids in bits 22-31 only: every pass but the top digit's is skipped.
    std::vector<Triple> high(n);
    for (Triple& t : high) {
      t = Triple{static_cast<ObjId>(rng.Below(1024)) << 22,
                 static_cast<ObjId>(rng.Below(1024)) << 22,
                 static_cast<ObjId>(rng.Below(1024)) << 22};
    }
    ExpectSortsLikeStdSort(high, "bits 22-31");
    // Small ids with many duplicates.
    std::vector<Triple> dups(n);
    for (Triple& t : dups) {
      t = Triple{static_cast<ObjId>(rng.Below(5)),
                 static_cast<ObjId>(rng.Below(3)),
                 static_cast<ObjId>(rng.Below(5))};
    }
    ExpectSortsLikeStdSort(dups, "duplicates");
    // One column constant across all rows (a POS range with p pinned),
    // and a constant column whose value has bits in every digit.
    for (ObjId pinned : {ObjId{7}, ObjId{0xFFFFFFFFu}}) {
      std::vector<Triple> constant(n);
      for (Triple& t : constant) {
        t = Triple{static_cast<ObjId>(rng.Below(100000)), pinned,
                   static_cast<ObjId>(rng.Below(3000000))};
      }
      ExpectSortsLikeStdSort(constant, "constant p");
    }
    // A skewed column: nine rows in ten share one value, so one digit
    // bucket holds most rows but not all of them.
    std::vector<Triple> skewed(n);
    for (Triple& t : skewed) {
      t = Triple{static_cast<ObjId>(rng.Below(50000)),
                 rng.Below(10) == 0 ? static_cast<ObjId>(rng.Below(5000)) : 3,
                 static_cast<ObjId>(rng.Below(50000))};
    }
    ExpectSortsLikeStdSort(skewed, "skewed p");
    // All-zero rows: nothing to sort at all.
    ExpectSortsLikeStdSort(std::vector<Triple>(n), "all zero");
  }
}

// The one scratch buffer is freed before returning: the sorted vector
// holds one buffer of the input's size, whichever pass count ran.
TEST(SortTriples, LeavesOneBufferOfTheInputSize) {
  Rng rng(7);
  for (ObjId universe : {ObjId{2000}, ObjId{3000000}}) {
    std::vector<Triple> v(3000);
    for (Triple& t : v) {
      t = Triple{static_cast<ObjId>(rng.Below(universe)),
                 static_cast<ObjId>(rng.Below(universe)),
                 static_cast<ObjId>(rng.Below(universe))};
    }
    SortTriples(&v, IndexOrder::kSPO);
    EXPECT_EQ(v.size(), 3000u);
    EXPECT_EQ(v.capacity(), 3000u);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  }
}

}  // namespace
}  // namespace trial
