// Unit tests for the storage module: data values, triple sets, stores.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "rdf/fixtures.h"
#include "storage/data_value.h"
#include "storage/segment/store_snapshot.h"
#include "storage/triple_set.h"
#include "storage/triple_store.h"
#include "util/interner.h"
#include "util/rng.h"

namespace trial {
namespace {

TEST(DataValue, EqualityAcrossKinds) {
  EXPECT_EQ(DataValue::Null(), DataValue::Null());
  EXPECT_EQ(DataValue::Int(7), DataValue::Int(7));
  EXPECT_NE(DataValue::Int(7), DataValue::Int(8));
  EXPECT_NE(DataValue::Int(7), DataValue::Str("7"));
  EXPECT_EQ(DataValue::Str("a"), DataValue::Str("a"));
  DataValue t1 = DataValue::Tuple({DataValue::Int(1), DataValue::Null()});
  DataValue t2 = DataValue::Tuple({DataValue::Int(1), DataValue::Null()});
  DataValue t3 = DataValue::Tuple({DataValue::Int(1), DataValue::Int(2)});
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, t3);
  EXPECT_EQ(t1.Hash(), t2.Hash());
}

TEST(DataValue, OrderingIsTotal) {
  std::vector<DataValue> vals = {
      DataValue::Str("b"), DataValue::Int(2), DataValue::Null(),
      DataValue::Tuple({DataValue::Int(1)}), DataValue::Int(1),
      DataValue::Str("a")};
  std::sort(vals.begin(), vals.end());
  EXPECT_TRUE(vals[0].is_null());
  EXPECT_EQ(vals[1], DataValue::Int(1));
  EXPECT_EQ(vals[3], DataValue::Str("a"));
  EXPECT_TRUE(vals[5].is_tuple());
}

TEST(DataValue, TupleComponentAccess) {
  DataValue t = DataValue::Tuple({DataValue::Int(1), DataValue::Str("x")});
  EXPECT_EQ(TupleComponent(t, 0), DataValue::Int(1));
  EXPECT_EQ(TupleComponent(t, 1), DataValue::Str("x"));
  EXPECT_TRUE(TupleComponent(t, 5).is_null());
  EXPECT_TRUE(TupleComponent(DataValue::Int(3), 0).is_null());
}

TEST(DataValue, ToStringRendering) {
  EXPECT_EQ(DataValue::Null().ToString(), "null");
  EXPECT_EQ(DataValue::Int(-3).ToString(), "-3");
  EXPECT_EQ(DataValue::Str("hi").ToString(), "\"hi\"");
  EXPECT_EQ(
      DataValue::Tuple({DataValue::Int(1), DataValue::Null()}).ToString(),
      "(1, null)");
}

TEST(TripleSet, InsertNormalizeDedup) {
  TripleSet s;
  s.Insert(1, 2, 3);
  s.Insert(1, 2, 3);
  s.Insert(0, 0, 0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(Triple{1, 2, 3}));
  EXPECT_FALSE(s.Contains(Triple{3, 2, 1}));
  // Sorted order.
  EXPECT_EQ(s.triples().front(), (Triple{0, 0, 0}));
}

TEST(TripleSet, InsertBatchMatchesPerTripleInserts) {
  TripleSet batched, single;
  std::vector<Triple> run1 = {{3, 3, 3}, {1, 1, 1}, {1, 1, 1}};
  std::vector<Triple> run2 = {{2, 2, 2}, {1, 1, 1}};
  for (const Triple& t : run1) single.Insert(t);
  for (const Triple& t : run2) single.Insert(t);
  batched.Reserve(run1.size() + run2.size());
  batched.InsertBatch(run1);
  batched.InsertBatch(run2);
  EXPECT_EQ(batched, single);
  EXPECT_EQ(batched.size(), 3u);

  // A batch staged after a read merges through the same normalize path.
  batched.InsertBatch({{0, 0, 0}, {2, 2, 2}});
  EXPECT_EQ(batched.size(), 4u);
  EXPECT_EQ(batched.triples().front(), (Triple{0, 0, 0}));
}

TEST(TripleStore, BulkAppendKeepsIndexCacheSemantics) {
  TripleStore store;
  RelId rel = store.AddRelation("E");
  for (ObjId i = 0; i < 4; ++i) store.InternObject("o" + std::to_string(i));
  store.BulkAppend(rel, {{0, 1, 2}, {0, 1, 2}, {2, 1, 3}});
  EXPECT_EQ(store.Relation(rel).size(), 2u);
  // Warm a non-base permutation, then mutate: the lookup must see the
  // appended triple (the cache cell detaches on mutation).
  EXPECT_EQ(store.Relation(rel).Lookup(2, 2).size(), 1u);
  store.BulkAppend(rel, {{1, 1, 2}});
  EXPECT_EQ(store.Relation(rel).Lookup(2, 2).size(), 2u);
  EXPECT_EQ(store.TotalTriples(), 3u);
}

TEST(TripleStore, MergeDictionaryRemapsAndExtendsRho) {
  TripleStore store;
  store.SetValue(store.InternObject("shared"), DataValue::Int(5));
  StringInterner shard;
  shard.Intern("new1");
  shard.Intern("shared");
  shard.Intern("new2");
  std::vector<ObjId> remap = store.MergeDictionary(shard);
  ASSERT_EQ(remap.size(), 3u);
  EXPECT_EQ(remap[1], store.FindObject("shared"));
  EXPECT_EQ(store.NumObjects(), 3u);
  EXPECT_EQ(store.Value(remap[1]), DataValue::Int(5));
  EXPECT_TRUE(store.Value(remap[2]).is_null());
}

TEST(TripleSet, SetAlgebra) {
  TripleSet a({{1, 1, 1}, {2, 2, 2}, {3, 3, 3}});
  TripleSet b({{2, 2, 2}, {4, 4, 4}});
  EXPECT_EQ(TripleSet::Union(a, b).size(), 4u);
  EXPECT_EQ(TripleSet::Difference(a, b).size(), 2u);
  EXPECT_EQ(TripleSet::Intersection(a, b).size(), 1u);
  EXPECT_EQ(TripleSet::Difference(a, a).size(), 0u);
}

TEST(TripleStore, ObjectsValuesRelations) {
  TripleStore store;
  ObjId a = store.InternObject("a");
  EXPECT_EQ(store.InternObject("a"), a);
  EXPECT_TRUE(store.Value(a).is_null());
  store.SetValue(a, DataValue::Int(9));
  EXPECT_EQ(store.Value(a), DataValue::Int(9));

  Triple t = store.Add("E", "a", "b", "c");
  EXPECT_EQ(t.s, a);
  EXPECT_EQ(store.TotalTriples(), 1u);
  EXPECT_NE(store.FindRelation("E"), nullptr);
  EXPECT_EQ(store.FindRelation("F"), nullptr);
  EXPECT_EQ(store.TripleToString(t), "(a, b, c)");

  ObjId b = store.FindObject("b");
  store.SetValue(b, DataValue::Int(9));
  EXPECT_TRUE(store.SameValue(a, b));
}

TEST(TripleStore, MultipleRelations) {
  TripleStore store;
  store.Add("E1", "x", "y", "z");
  store.Add("E2", "x", "y", "w");
  EXPECT_EQ(store.NumRelations(), 2u);
  EXPECT_EQ(store.TotalTriples(), 2u);
  EXPECT_EQ(store.RelationName(0), "E1");
}

// ---- base + delta: differential battery ---------------------------------
//
// A write to a large set lands in a small sorted delta next to the
// shared body; past 1/16 of the body it compacts.  Every access path of
// such a set must answer exactly like a set rebuilt from scratch.

constexpr ObjId kDomain = 14;  // values per column: collisions are common

std::vector<Triple> Rows(const TripleRange& r) {
  return std::vector<Triple>(r.begin(), r.end());
}

Triple RandomTriple(Rng* rng) {
  return Triple{static_cast<ObjId>(rng->Below(kDomain)),
                static_cast<ObjId>(rng->Below(kDomain)),
                static_cast<ObjId>(rng->Below(kDomain))};
}

// Every access path of `s` against `expect` (sorted, duplicate-free)
// loaded into a fresh set.  Point probes run first, so they meet the
// body-only and delta-only ranges before the scans build merged views.
void ExpectSameSet(const TripleSet& s, const std::vector<Triple>& expect,
                   const std::string& where) {
  SCOPED_TRACE(where);
  const TripleSet fresh(expect);
  ASSERT_EQ(s.size(), expect.size());
  if (const TripleSetStats* cached = s.CachedStats()) {
    // Cached stats survive writes: the count is exact, each distinct
    // count an upper bound.
    const TripleSetStats& exact = fresh.Stats();
    EXPECT_EQ(cached->num_triples, exact.num_triples);
    for (int c = 0; c < 3; ++c) EXPECT_GE(cached->distinct[c], exact.distinct[c]);
  }
  for (ObjId a = 0; a < kDomain; ++a) {
    for (ObjId b = 0; b < kDomain; ++b) {
      Triple t{a, b, static_cast<ObjId>((a * 5 + b) % kDomain)};
      EXPECT_EQ(s.Contains(t), fresh.Contains(t)) << a << " " << b;
    }
  }
  for (const Triple& t : expect) ASSERT_TRUE(s.Contains(t));
  for (int c = 0; c < 3; ++c) {
    for (ObjId v = 0; v < kDomain; ++v) {
      EXPECT_EQ(Rows(s.Lookup(c, v)), Rows(fresh.Lookup(c, v)))
          << "column " << c << " value " << v;
    }
  }
  for (int ca = 0; ca < 3; ++ca) {
    for (int cb = 0; cb < 3; ++cb) {
      if (ca == cb) continue;
      for (ObjId va = 0; va < kDomain; va += 3) {
        for (ObjId vb = 0; vb < kDomain; ++vb) {
          EXPECT_EQ(Rows(s.LookupPair(ca, va, cb, vb)),
                    Rows(fresh.LookupPair(ca, va, cb, vb)))
              << "columns " << ca << "," << cb;
        }
      }
    }
  }
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    EXPECT_EQ(Rows(s.Scan(order)), Rows(fresh.Scan(order)))
        << IndexOrderName(order);
  }
  EXPECT_EQ(s.triples(), expect);
  const TripleSetStats& got = s.Stats();
  const TripleSetStats& want = fresh.Stats();
  EXPECT_EQ(got.num_triples, want.num_triples);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(got.distinct[c], want.distinct[c]) << "column " << c;
    EXPECT_EQ(got.topk[c], want.topk[c]) << "column " << c;
  }
}

// Seeded interleavings of Insert / InsertBatch / BulkAppend on relation
// E of `store` (which holds `base`), with copies taken at random
// points.  Batches repeat base rows, can be empty, and sometimes are
// large enough to cross the compaction point.
void RunWriteBattery(TripleStore* store, std::vector<Triple> base,
                     uint64_t seed, const std::string& label) {
  Rng rng(seed);
  const RelId rel = 0;
  std::set<Triple> model(base.begin(), base.end());
  struct Copy {
    TripleSet set;
    std::vector<Triple> expect;
  };
  std::vector<Copy> copies;
  ExpectSameSet(store->Relation(rel), base, label + " base");
  auto batch_of = [&](size_t n) {
    std::vector<Triple> batch;
    for (size_t i = 0; i < n; ++i) {
      if (!model.empty() && rng.Chance(1, 3)) {
        batch.push_back(base[rng.Below(base.size())]);  // already there
      } else {
        batch.push_back(RandomTriple(&rng));
      }
    }
    return batch;
  };
  for (int step = 0; step < 40; ++step) {
    // Rarely a batch past the compaction point, else a small one.
    const size_t n = rng.Chance(1, 10) ? model.size() / 8 : rng.Below(12);
    std::vector<Triple> batch = batch_of(n);
    model.insert(batch.begin(), batch.end());
    switch (rng.Below(3)) {
      case 0:
        for (const Triple& t : batch) store->MutableRelation(rel).Insert(t);
        break;
      case 1:
        store->MutableRelation(rel).InsertBatch(batch);
        break;
      default:
        store->BulkAppend(rel, batch);
        break;
    }
    if (rng.Chance(1, 4)) continue;  // let writes pile up unread
    const std::vector<Triple> expect(model.begin(), model.end());
    if (rng.Chance(1, 3)) copies.push_back({store->Relation(rel), expect});
    ExpectSameSet(store->Relation(rel), expect,
                  label + " step " + std::to_string(step));
    for (const Copy& c : copies) {
      ASSERT_EQ(c.set.size(), c.expect.size()) << label << " step " << step;
    }
  }
  for (size_t i = 0; i < copies.size(); ++i) {
    ExpectSameSet(copies[i].set, copies[i].expect,
                  label + " copy " + std::to_string(i));
  }
  const std::vector<Triple> expect(model.begin(), model.end());
  ExpectSameSet(store->Relation(rel), expect, label + " final");
}

std::vector<Triple> RandomBase(Rng* rng, size_t n) {
  std::set<Triple> rows;
  while (rows.size() < n) rows.insert(RandomTriple(rng));
  return std::vector<Triple>(rows.begin(), rows.end());
}

TripleStore StoreWithE(const std::vector<Triple>& base) {
  TripleStore store;
  for (ObjId i = 0; i < kDomain; ++i) store.InternObject("o" + std::to_string(i));
  RelId rel = store.AddRelation("E");
  store.BulkAppend(rel, base);
  return store;
}

TEST(TripleSetDelta, InMemoryWritesMatchRebuiltSet) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 7 + 1);
    std::vector<Triple> base = RandomBase(&rng, 1200);
    TripleStore store = StoreWithE(base);
    if (seed == 2) store.RelationStats(0);  // stats cached before writes
    RunWriteBattery(&store, base, seed, "in-memory seed " + std::to_string(seed));
  }
}

TEST(TripleSetDelta, SnapshotWritesMatchRebuiltSet) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 11 + 5);
    std::vector<Triple> base = RandomBase(&rng, 1200);
    std::string path = testing::TempDir() + "/delta_battery.trial";
    ASSERT_TRUE(SaveStoreSnapshot(StoreWithE(base), path).ok());
    auto opened = OpenStoreSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    if (seed == 3) opened->Relation(0).Materialize(IndexOrder::kPOS);
    RunWriteBattery(&*opened, base, seed, "snapshot seed " + std::to_string(seed));
    EXPECT_TRUE(opened->SnapshotStatus().ok());
    std::remove(path.c_str());
  }
}

TEST(TripleSetDelta, SmallWriteKeepsBodyAndStats) {
  Rng rng(41);
  std::vector<Triple> base = RandomBase(&rng, 1000);
  TripleStore store = StoreWithE(base);
  const TripleSet& e = store.Relation(0);
  const TripleSetStats before = e.Stats();
  const Triple* body = e.triples().data();
  store.BulkAppend(0, {Triple{kDomain, 0, 0}});  // a fresh subject
  EXPECT_EQ(e.size(), base.size() + 1);
  // The row sits in the delta: no view is ready, the body was not
  // re-merged, and the cached stats were derived, not dropped.
  EXPECT_FALSE(e.IndexReady(IndexOrder::kSPO));
  ASSERT_NE(e.CachedStats(), nullptr);
  EXPECT_EQ(e.CachedStats()->num_triples, before.num_triples + 1);
  EXPECT_EQ(e.CachedStats()->distinct[0], before.distinct[0] + 1);
  EXPECT_EQ(e.CachedStats()->distinct[1], before.distinct[1]);
  EXPECT_EQ(e.CachedStats()->distinct[2], before.distinct[2]);
  // A subject only the delta holds reads from the delta, one only the
  // body holds from the body itself.
  EXPECT_EQ(Rows(e.Lookup(0, kDomain)), (std::vector<Triple>{{kDomain, 0, 0}}));
  TripleRange in_body = e.Lookup(0, base.front().s);
  EXPECT_EQ(in_body.begin(), body);
  // Re-writing rows already present publishes nothing new.
  store.BulkAppend(0, {base[3], Triple{kDomain, 0, 0}});
  EXPECT_EQ(e.size(), base.size() + 1);
  EXPECT_EQ(e.Lookup(0, base.front().s).begin(), body);
}

TEST(TripleSetDelta, MaterializedDeltaBlockReadsConcurrently) {
  Rng rng(53);
  std::vector<Triple> base = RandomBase(&rng, 2000);
  TripleSet s(base);
  s.size();
  std::set<Triple> model(base.begin(), base.end());
  std::vector<Triple> batch;
  for (int i = 0; i < 30; ++i) batch.push_back(RandomTriple(&rng));
  model.insert(batch.begin(), batch.end());
  s.InsertBatch(batch);
  s.size();
  ASSERT_FALSE(s.IndexReady(IndexOrder::kSPO));  // a delta is pending
  const std::vector<Triple> expect(model.begin(), model.end());
  const TripleSet fresh(expect);
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    s.Materialize(order);
    ASSERT_TRUE(s.IndexReady(order));
    fresh.Materialize(order);  // the reference is read concurrently too
  }
  std::vector<std::thread> readers;
  std::vector<int> mismatches(4, 0);
  for (int w = 0; w < 4; ++w) {
    readers.emplace_back([&, w] {
      for (ObjId v = 0; v < kDomain; ++v) {
        const int c = static_cast<int>((v + w) % 3);
        if (Rows(s.Lookup(c, v)) != Rows(fresh.Lookup(c, v))) ++mismatches[w];
        if (Rows(s.LookupPair(c, v, (c + 1) % 3, w)) !=
            Rows(fresh.LookupPair(c, v, (c + 1) % 3, w))) {
          ++mismatches[w];
        }
      }
      for (const Triple& t : expect) {
        if (!s.Contains(t)) ++mismatches[w];
      }
      if (s.size() != expect.size()) ++mismatches[w];
      if (Rows(s.Scan(IndexOrder::kOSP)) != Rows(fresh.Scan(IndexOrder::kOSP))) {
        ++mismatches[w];
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(Fixtures, MarioNetworkMatchesPaper) {
  TripleStore store = MarioSocialNetwork();
  EXPECT_EQ(store.TotalTriples(), 3u);
  ObjId mario = store.FindObject("o175");
  ASSERT_NE(mario, kInvalidIntern);
  const DataValue& v = store.Value(mario);
  ASSERT_TRUE(v.is_tuple());
  EXPECT_EQ(TupleComponent(v, 0), DataValue::Str("Mario"));
  EXPECT_EQ(TupleComponent(v, 2), DataValue::Int(23));
  EXPECT_TRUE(TupleComponent(v, 3).is_null());
  ObjId c163 = store.FindObject("c163");
  EXPECT_EQ(TupleComponent(store.Value(c163), 3), DataValue::Str("rival"));
}

}  // namespace
}  // namespace trial
