// The on-disk segment store: snapshot round trips (byte-identical
// query results at every thread count), open-is-lazy observables,
// copy-on-write promotion, the frozen dictionary, and a deliberate
// corruption battery — a damaged snapshot must always produce a clear
// diagnostic, never a crash or a silently wrong answer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/plan/plan.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "graph/generators.h"
#include "loader/bulk_load.h"
#include "storage/segment/segment_format.h"
#include "storage/segment/segment_io.h"
#include "storage/segment/segment_source.h"
#include "storage/segment/store_snapshot.h"
#include "storage/triple_store.h"
#include "util/rng.h"

namespace trial {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<uint8_t> bytes;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Re-seals the header checksum after a test mutated a header field, so
// the *intended* validation step fires instead of the checksum one.
void FixHeaderChecksum(std::vector<uint8_t>* bytes) {
  SegmentFileHeader h;
  std::memcpy(&h, bytes->data(), sizeof(h));
  h.header_checksum =
      Checksum64(&h, offsetof(SegmentFileHeader, header_checksum));
  std::memcpy(bytes->data(), &h, sizeof(h));
}

// A store exercising every rho value kind, two relations, and names
// of assorted lengths (including the empty-ish short ones).
TripleStore SmallStore() {
  TripleStore store;
  store.Add("E", "a", "p", "b");
  store.Add("E", "b", "p", "c");
  store.Add("E", "a", "q", "c");
  store.Add("F", "c", "likes", "http://example.org/some/long/name#x");
  store.SetValue(store.InternObject("a"), DataValue::Int(-42));
  store.SetValue(store.InternObject("b"), DataValue::Str("hello"));
  store.SetValue(store.InternObject("c"),
                 DataValue::Tuple({DataValue::Int(7), DataValue::Null(),
                                   DataValue::Str("t")}));
  return store;
}

TripleStore ZipfStore(uint64_t seed) {
  RandomStoreOptions opts;
  opts.num_objects = 12;
  opts.num_triples = 60;
  opts.num_data_values = 3;
  opts.zipf_p = 1.2;
  opts.zipf_o = 0.8;
  opts.seed = seed;
  return RandomTripleStore(opts);
}

// Same generator as the plan-layer equivalence property test.
ExprPtr RandomExpr(Rng* rng, int depth, bool allow_star) {
  auto rand_pos = [&] { return static_cast<Pos>(rng->Below(6)); };
  auto rand_spec = [&] {
    JoinSpec spec;
    spec.out = {rand_pos(), rand_pos(), rand_pos()};
    for (size_t i = 0, n = rng->Below(3); i < n; ++i) {
      spec.cond.theta.push_back(ObjConstraint{
          ObjTerm::P(rand_pos()), ObjTerm::P(rand_pos()), rng->Chance(3, 4)});
    }
    if (rng->Chance(1, 3)) {
      spec.cond.eta.push_back(DataConstraint{
          DataTerm::P(rand_pos()), DataTerm::P(rand_pos()),
          rng->Chance(2, 3)});
    }
    return spec;
  };
  if (depth <= 0) return Expr::Rel("E");
  switch (rng->Below(allow_star ? 7 : 5)) {
    case 0:
      return Expr::Rel("E");
    case 1: {
      CondSet cond;
      cond.theta.push_back(ObjConstraint{
          ObjTerm::P(static_cast<Pos>(rng->Below(3))),
          ObjTerm::C(static_cast<ObjId>(rng->Below(8))), rng->Chance(2, 3)});
      return Expr::Select(RandomExpr(rng, depth - 1, allow_star), cond);
    }
    case 2:
      return Expr::Union(RandomExpr(rng, depth - 1, allow_star),
                         RandomExpr(rng, depth - 1, allow_star));
    case 3:
      return Expr::Diff(RandomExpr(rng, depth - 1, allow_star),
                        RandomExpr(rng, depth - 1, allow_star));
    case 4:
      return Expr::Join(RandomExpr(rng, depth - 1, allow_star),
                        RandomExpr(rng, depth - 1, allow_star), rand_spec());
    case 5:
      return Expr::StarRight(RandomExpr(rng, depth - 1, false), rand_spec());
    default:
      return Expr::StarLeft(RandomExpr(rng, depth - 1, false), rand_spec());
  }
}

// ---- round trips -------------------------------------------------------

TEST(SnapshotRoundTrip, SmallStoreAllValueKinds) {
  TripleStore store = SmallStore();
  std::string path = TempPath("seg_small.trial");
  SaveSnapshotStats save_stats;
  ASSERT_TRUE(SaveStoreSnapshot(store, path, &save_stats).ok());
  EXPECT_GT(save_stats.bytes, 0u);

  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // Ids are preserved exactly (the dictionary is written in id order),
  // so id-level comparisons are valid, not just name-level ones.
  ASSERT_EQ(opened->NumObjects(), store.NumObjects());
  ASSERT_EQ(opened->NumRelations(), store.NumRelations());
  for (ObjId id = 0; id < store.NumObjects(); ++id) {
    EXPECT_EQ(opened->ObjectName(id), store.ObjectName(id));
    EXPECT_EQ(opened->Value(id), store.Value(id));
  }
  for (RelId r = 0; r < store.NumRelations(); ++r) {
    EXPECT_EQ(opened->RelationName(r), store.RelationName(r));
    EXPECT_EQ(opened->Relation(r), store.Relation(r));
  }
  std::string diff;
  EXPECT_TRUE(StoresEquivalent(store, *opened, &diff)) << diff;
}

TEST(SnapshotRoundTrip, EmptyStoreAndEmptyRelation) {
  TripleStore empty;
  std::string path = TempPath("seg_empty.trial");
  ASSERT_TRUE(SaveStoreSnapshot(empty, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->NumObjects(), 0u);
  EXPECT_EQ(opened->NumRelations(), 0u);

  TripleStore store;
  store.AddRelation("E");  // a relation with no triples
  store.InternObject("lonely");
  std::string path2 = TempPath("seg_empty_rel.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path2).ok());
  auto opened2 = OpenStoreSnapshot(path2);
  ASSERT_TRUE(opened2.ok()) << opened2.status().ToString();
  EXPECT_EQ(opened2->NumRelations(), 1u);
  EXPECT_TRUE(opened2->Relation(0).empty());
  EXPECT_EQ(opened2->ObjectName(0), "lonely");
}

TEST(SnapshotRoundTrip, StatsPersistExactly) {
  TripleStore store = ZipfStore(7);
  const TripleSetStats& live = store.RelationStats(0);
  std::string path = TempPath("seg_stats.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // Exact stats are available immediately — no Stats() call, no decode.
  const TripleSetStats* cached = opened->Relation(0).CachedStats();
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->num_triples, live.num_triples);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(cached->distinct[c], live.distinct[c]);
  }
  EXPECT_EQ(SnapshotDecodeCount(*opened), 0u);
}

TEST(SnapshotRoundTrip, AggregatedProjectionsPersistExactly) {
  TripleStore store = ZipfStore(21);
  const TripleSetStats& live = store.RelationStats(0);
  ASSERT_TRUE(live.HasAgg(0));
  std::string path = TempPath("seg_agg.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const TripleSetStats* cached = opened->Relation(0).CachedStats();
  ASSERT_NE(cached, nullptr);
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(cached->topk[c].size(), live.topk[c].size()) << c;
    for (size_t i = 0; i < live.topk[c].size(); ++i) {
      EXPECT_EQ(cached->topk[c][i], live.topk[c][i]) << c << "/" << i;
    }
  }
  // Planning an equi-join consumes the persisted projections — same
  // estimate as against the live store — without decoding any pages.
  ExprPtr e = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                         Spec(Pos::P1, Pos::P3, Pos::P3p,
                              {Eq(Pos::P2, Pos::P2p)}));
  plan::PlanPtr live_plan = plan::PlanExpr(e, store);
  plan::PlanPtr snap_plan = plan::PlanExpr(e, *opened);
  EXPECT_DOUBLE_EQ(snap_plan->est_rows, live_plan->est_rows);
  EXPECT_EQ(SnapshotDecodeCount(*opened), 0u) << "planning decoded triples";
}

TEST(SnapshotRoundTrip, PreAggSnapshotsFallBackToHeuristics) {
  // A snapshot written without the aggregated-stats section (the
  // pre-projection layout) must open and answer queries exactly; the
  // planner just loses the top-k refinement and falls back to the
  // independence estimate.
  TripleStore store = ZipfStore(23);
  store.RelationStats(0);
  std::string path = TempPath("seg_preagg.trial");
  SaveSnapshotOptions old_layout;
  old_layout.write_aggregated_stats = false;
  ASSERT_TRUE(SaveStoreSnapshot(store, path, nullptr, old_layout).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const TripleSetStats* cached = opened->Relation(0).CachedStats();
  ASSERT_NE(cached, nullptr);  // scalar stats still persist
  EXPECT_EQ(cached->num_triples, store.RelationStats(0).num_triples);
  for (int c = 0; c < 3; ++c) EXPECT_FALSE(cached->HasAgg(c));
  // Planning still works (heuristic estimates, no decode)...
  ExprPtr e = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                         Spec(Pos::P1, Pos::P3, Pos::P3p,
                              {Eq(Pos::P2, Pos::P2p)}));
  plan::PlanPtr p = plan::PlanExpr(e, *opened);
  EXPECT_GT(p->est_rows, 0);
  EXPECT_EQ(SnapshotDecodeCount(*opened), 0u);
  // ...and execution answers identically to the in-memory store.
  auto want = plan::ExecutePlan(*plan::PlanExpr(e, store), store);
  auto got = plan::ExecutePlan(*p, *opened);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(*want, *got);
}

// Appends pending in a relation's delta persist like any other
// triples: the reopened store holds the same triples and exact stats,
// whether the appended relation was in memory or snapshot-backed.
TEST(SnapshotRoundTrip, AppendsThenSaveReopenIdentical) {
  RandomStoreOptions opts;
  opts.num_objects = 300;
  opts.num_triples = 2000;
  opts.zipf_p = 1.2;
  opts.zipf_o = 0.8;
  opts.seed = 37;
  TripleStore store = RandomTripleStore(opts);
  const RelId e = store.AddRelation("E");
  store.RelationStats(e);
  auto append = [](TripleStore* st, RelId rel, const std::string& tag) {
    const ObjId s = st->InternObject("appended_" + tag);
    const Triple old = st->Relation(rel).triples()[7];
    const size_t before = st->Relation(rel).size();
    st->BulkAppend(rel, {Triple{s, old.p, old.o}, Triple{old.s, old.p, s},
                         old});
    ASSERT_EQ(st->Relation(rel).size(), before + 2);
    EXPECT_FALSE(st->Relation(rel).IndexReady(IndexOrder::kSPO));
  };
  auto expect_identical = [](const TripleStore& a, const TripleStore& b) {
    ASSERT_EQ(a.NumRelations(), b.NumRelations());
    for (RelId r = 0; r < a.NumRelations(); ++r) {
      EXPECT_EQ(a.Relation(r).triples(), b.Relation(r).triples());
      const TripleSetStats want =
          TripleSet(a.Relation(r).triples()).Stats();
      for (const TripleSetStats* st :
           {&a.RelationStats(r), &b.RelationStats(r)}) {
        EXPECT_EQ(st->num_triples, want.num_triples);
        for (int c = 0; c < 3; ++c) {
          EXPECT_EQ(st->distinct[c], want.distinct[c]);
          EXPECT_EQ(st->topk[c], want.topk[c]);
        }
      }
    }
  };
  // In memory: append, save, reopen.
  append(&store, e, "a");
  const std::string path = TempPath("seg_append.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  expect_identical(store, *opened);

  // Snapshot-backed: append to the opened store, save, reopen.
  append(&*opened, e, "b");
  append(&store, e, "b");
  const std::string path2 = TempPath("seg_append2.trial");
  ASSERT_TRUE(SaveStoreSnapshot(*opened, path2).ok());
  auto reopened = OpenStoreSnapshot(path2);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  expect_identical(store, *reopened);
  EXPECT_TRUE(opened->SnapshotStatus().ok());
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(SnapshotRoundTrip, ResaveReopenedStore) {
  TripleStore store = ZipfStore(13);
  std::string p1 = TempPath("seg_resave1.trial");
  std::string p2 = TempPath("seg_resave2.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, p1).ok());
  auto first = OpenStoreSnapshot(p1);
  ASSERT_TRUE(first.ok());
  // Saving a snapshot-backed store decodes through the lazy sources.
  ASSERT_TRUE(SaveStoreSnapshot(*first, p2).ok());
  auto second = OpenStoreSnapshot(p2);
  ASSERT_TRUE(second.ok());
  std::string diff;
  EXPECT_TRUE(StoresEquivalent(store, *second, &diff)) << diff;
}

TEST(SnapshotLoader, SinkWritesSnapshot) {
  std::string nt =
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "<http://x/b> <http://x/p> <http://x/c> .\n"
      "<http://x/a> <http://x/q> <http://x/c> .\n";
  BulkLoadOptions opts;
  opts.num_threads = 2;
  opts.snapshot_path = TempPath("seg_sink.trial");
  BulkLoadStats stats;
  auto loaded = BulkLoadNTriples(nt, opts, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(stats.snapshot_bytes, 0u);
  auto opened = OpenStoreSnapshot(opts.snapshot_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::string diff;
  EXPECT_TRUE(StoresEquivalent(*loaded, *opened, &diff)) << diff;
}

// ---- open-is-lazy + copy-on-write --------------------------------------

TEST(SnapshotOpen, OpenIsLazyUntilFirstScan) {
  TripleStore store = ZipfStore(3);
  std::string path = TempPath("seg_lazy.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok());

  // Everything the planner and EXPLAIN need is metadata: counts,
  // stats, lowering a join — none of it may touch triple pages.
  EXPECT_EQ(SnapshotDecodeCount(*opened), 0u);
  EXPECT_EQ(opened->Relation(0).size(), store.Relation(0).size());
  EXPECT_EQ(opened->TotalTriples(), store.TotalTriples());
  ASSERT_NE(opened->Relation(0).CachedStats(), nullptr);
  ExprPtr e = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                         Spec(Pos::P1, Pos::P2, Pos::P3p,
                              {Eq(Pos::P3, Pos::P1p)}));
  plan::PlanPtr p = plan::PlanExpr(e, *opened);
  EXPECT_GT(p->est_rows, 0);
  // A constant selection is priced from the persisted top-k, not from a
  // decoded permutation range.
  ObjId pred = store.Relation(0).triples().front().p;
  plan::PlanPtr sel = plan::PlanExpr(
      Expr::Select(Expr::Rel("E"), Where({EqConst(Pos::P2, pred)})), *opened);
  EXPECT_GT(sel->est_rows, 0);
  EXPECT_EQ(SnapshotDecodeCount(*opened), 0u) << "planning decoded triples";
  EXPECT_FALSE(opened->Relation(0).IndexReady(IndexOrder::kSPO));
  EXPECT_FALSE(opened->Relation(0).IndexReady(IndexOrder::kPOS));

  // The first execution decodes — and only then.
  auto r = plan::ExecutePlan(*p, *opened);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(SnapshotDecodeCount(*opened), 0u);
  EXPECT_TRUE(opened->Relation(0).IndexReady(IndexOrder::kSPO));
}

TEST(SnapshotOpen, CopyOnWritePromotion) {
  TripleStore store = SmallStore();
  std::string path = TempPath("seg_cow.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok());

  TripleSet copy = opened->Relation(0);
  EXPECT_TRUE(copy.snapshot_backed());
  size_t before = copy.size();
  copy.Insert(0, 0, 0);  // "a a a" — not in SmallStore
  EXPECT_EQ(copy.size(), before + 1);  // triggers promotion
  EXPECT_FALSE(copy.snapshot_backed());
  EXPECT_TRUE(copy.SnapshotHealth().ok());
  EXPECT_TRUE(copy.Contains(Triple{0, 0, 0}));
  // The store's relation still reads through the snapshot, unchanged.
  EXPECT_TRUE(opened->Relation(0).snapshot_backed());
  EXPECT_EQ(opened->Relation(0).size(), before);
  EXPECT_EQ(opened->Relation(0), store.Relation(0));
}

TEST(SnapshotOpen, MutationThenQueryStillHealthy) {
  TripleStore store = SmallStore();
  std::string path = TempPath("seg_mut.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok());
  opened->MutableRelation(0).Insert(0, 0, 0);
  EXPECT_TRUE(opened->SnapshotStatus().ok());
  auto r = MakeSmartEvaluator()->Eval(Expr::Rel("E"), *opened);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), store.Relation(0).size() + 1);
}

TEST(SnapshotOpen, InternAfterOpen) {
  TripleStore store = SmallStore();
  std::string path = TempPath("seg_intern.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok());

  // Lookups against the frozen block (the lazy index build).
  EXPECT_EQ(opened->FindObject("a"), store.FindObject("a"));
  EXPECT_EQ(opened->FindObject("never-seen"), kInvalidIntern);
  // Interning an existing name is a no-op; a new name extends past the
  // frozen block.
  size_t frozen = opened->NumObjects();
  EXPECT_EQ(opened->InternObject("a"), store.FindObject("a"));
  ObjId fresh = opened->InternObject("brand-new");
  EXPECT_EQ(static_cast<size_t>(fresh), frozen);
  EXPECT_EQ(opened->ObjectName(fresh), "brand-new");
  EXPECT_TRUE(opened->Value(fresh).is_null());
}

// ---- byte-identical queries at 1/2/4 threads ---------------------------

TEST(SnapshotProperty, ZipfRoundTripQueriesByteIdentical) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    TripleStore store = ZipfStore(seed * 31 + 2);
    std::string path = TempPath("seg_prop.trial");
    ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
    auto opened = OpenStoreSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();

    Rng rng(seed * 977 + 5);
    auto serial = MakeSmartEvaluator();
    for (int i = 0; i < 6; ++i) {
      ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
      auto want = serial->Eval(e, store);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        ExecLimits limits;
        limits.exec.num_threads = threads;
        limits.exec.min_parallel_items = 1;
        plan::PlanPtr p = plan::PlanExpr(e, *opened);
        auto got = plan::ExecutePlan(*p, *opened, limits);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*want, *got)
            << threads << " threads on " << e->ToString();
      }
    }
  }
}

TEST(SnapshotProperty, DatalogOnSnapshotMatchesInMemory) {
  TripleStore store = ZipfStore(21);
  std::string path = TempPath("seg_datalog.trial");
  ASSERT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok());

  auto program = datalog::ParseProgram(
      "reach(X, P, Y) :- E(X, P, Y).\n"
      "reach(X, P, Z) :- reach(X, P, Y), E(Y, Q, Z).\n"
      "ans(X, P, Z) :- reach(X, P, Z).");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto want = datalog::EvalProgram(*program, store);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    datalog::DatalogOptions opts;
    opts.exec.num_threads = threads;
    opts.exec.min_parallel_items = 1;
    auto got = datalog::EvalProgram(*program, *opened, "ans", opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*want, *got) << threads << " threads";
  }
}

// ---- the corruption battery --------------------------------------------

// Every damaged file must produce a Status with a diagnostic — never a
// crash, never an OK open followed by silently wrong query results.

TEST(SnapshotCorruption, RejectsTruncatedFile) {
  std::string path = TempPath("seg_trunc.trial");
  ASSERT_TRUE(SaveStoreSnapshot(SmallStore(), path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 7);
  WriteFileBytes(path, bytes);
  auto r = OpenStoreSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("truncated"), std::string::npos)
      << r.status().ToString();
}

TEST(SnapshotCorruption, RejectsBadMagicAndGarbage) {
  std::string path = TempPath("seg_magic.trial");
  ASSERT_TRUE(SaveStoreSnapshot(SmallStore(), path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[0] ^= 0xff;
  WriteFileBytes(path, bytes);
  auto r = OpenStoreSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("not a trial snapshot"),
            std::string::npos);

  // Arbitrary garbage, shorter than a header.
  std::string garbage = TempPath("seg_garbage.trial");
  WriteFileBytes(garbage, std::vector<uint8_t>(23, 0x5a));
  auto g = OpenStoreSnapshot(garbage);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().ToString().find("not a trial snapshot"),
            std::string::npos);

  auto missing = OpenStoreSnapshot(TempPath("never_written.trial"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotCorruption, RejectsWrongVersionAndEndianness) {
  std::string path = TempPath("seg_version.trial");
  ASSERT_TRUE(SaveStoreSnapshot(SmallStore(), path).ok());
  std::vector<uint8_t> pristine = ReadFileBytes(path);

  SegmentFileHeader h;
  std::memcpy(&h, pristine.data(), sizeof(h));
  {
    std::vector<uint8_t> bytes = pristine;
    SegmentFileHeader v = h;
    v.version = kSegmentVersion + 41;
    std::memcpy(bytes.data(), &v, sizeof(v));
    FixHeaderChecksum(&bytes);
    WriteFileBytes(path, bytes);
    auto r = OpenStoreSnapshot(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("unsupported snapshot version"),
              std::string::npos)
        << r.status().ToString();
  }
  {
    std::vector<uint8_t> bytes = pristine;
    SegmentFileHeader v = h;
    v.endian_tag = __builtin_bswap32(kSegmentEndianTag);
    std::memcpy(bytes.data(), &v, sizeof(v));
    FixHeaderChecksum(&bytes);
    WriteFileBytes(path, bytes);
    auto r = OpenStoreSnapshot(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("wrong-endian"), std::string::npos)
        << r.status().ToString();
  }
  {
    // A flipped header field without a re-seal: the checksum catches it.
    std::vector<uint8_t> bytes = pristine;
    bytes[offsetof(SegmentFileHeader, section_count)] ^= 0x01;
    WriteFileBytes(path, bytes);
    auto r = OpenStoreSnapshot(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("corrupt header"),
              std::string::npos);
  }
}

TEST(SnapshotCorruption, RejectsDamagedTocAndMetadataSections) {
  std::string path = TempPath("seg_toc.trial");
  ASSERT_TRUE(SaveStoreSnapshot(SmallStore(), path).ok());
  std::vector<uint8_t> pristine = ReadFileBytes(path);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());

  {
    // A bit flip inside the TOC.
    std::vector<uint8_t> bytes = pristine;
    bytes[sizeof(SegmentFileHeader) + 11] ^= 0x10;
    WriteFileBytes(path, bytes);
    auto r = OpenStoreSnapshot(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("table of contents"),
              std::string::npos)
        << r.status().ToString();
  }
  // A bit flip in each eagerly-verified metadata payload.
  for (uint32_t kind : {uint32_t{kSegDictOffsets}, uint32_t{kSegRelationDir},
                        uint32_t{kSegRho}}) {
    size_t i = reader.value().Find(kind);
    ASSERT_NE(i, SegmentReader::kNotFound);
    if (reader.value().Section(i).bytes == 0) continue;
    std::vector<uint8_t> bytes = pristine;
    bytes[reader.value().Section(i).offset] ^= 0x20;
    WriteFileBytes(path, bytes);
    auto r = OpenStoreSnapshot(path);
    ASSERT_FALSE(r.ok()) << "kind " << kind << " flip was not detected";
    EXPECT_NE(r.status().ToString().find("checksum mismatch"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(SnapshotCorruption, TripleSegmentFlipFailsTheQueryNotTheOpen) {
  std::string path = TempPath("seg_triples.trial");
  ASSERT_TRUE(SaveStoreSnapshot(SmallStore(), path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  size_t i = reader.value().Find(kSegTriples, 0,
                                 static_cast<uint32_t>(IndexOrder::kSPO));
  ASSERT_NE(i, SegmentReader::kNotFound);
  ASSERT_GT(reader.value().Section(i).bytes, 0u);
  bytes[reader.value().Section(i).offset] ^= 0x40;
  WriteFileBytes(path, bytes);

  // Bulk payloads are lazy: the open itself succeeds...
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->SnapshotStatus().ok());
  // ...but every evaluator entry point reports the corruption instead
  // of returning an empty result.
  ExprPtr e = Expr::Rel("E");
  plan::PlanPtr p = plan::PlanExpr(e, *opened);
  auto r = plan::ExecutePlan(*p, *opened);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(opened->SnapshotStatus().ok());
  auto r2 = MakeSmartEvaluator()->Eval(e, *opened);
  ASSERT_FALSE(r2.ok());

  // The full-verification open mode rejects the file up front.
  OpenSnapshotOptions verify;
  verify.verify_payload = true;
  auto strict = OpenStoreSnapshot(path, verify);
  ASSERT_FALSE(strict.ok());
}

// The anti-probe difference reads the right relation only through
// Contains, which decodes its SPO segment lazily.  A corrupt segment
// decodes as empty, so every left triple would survive; the query must
// fail with the snapshot's diagnostic instead of returning the left.
TEST(SnapshotCorruption, AntiProbeDifferenceReportsTheCorruption) {
  std::string path = TempPath("seg_antiprobe.trial");
  ASSERT_TRUE(SaveStoreSnapshot(SmallStore(), path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  size_t i = reader.value().Find(kSegTriples, 0,
                                 static_cast<uint32_t>(IndexOrder::kSPO));
  ASSERT_NE(i, SegmentReader::kNotFound);
  bytes[reader.value().Section(i).offset] ^= 0x40;
  WriteFileBytes(path, bytes);

  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // F (one triple, intact) minus E (three triples, corrupt SPO).
  ExprPtr e = Expr::Diff(Expr::Rel("F"), Expr::Rel("E"));
  plan::PlanPtr p = plan::PlanExpr(e, *opened);
  auto r = plan::ExecutePlan(*p, *opened);
  ASSERT_STREQ(p->runtime.strategy, "anti-probe") << plan::Explain(*p);
  ASSERT_FALSE(r.ok()) << r->size() << " rows";
  EXPECT_NE(r.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(opened->SnapshotStatus().ok());
}

TEST(SnapshotCorruption, DictionaryBytesFlipFailsStrictOpen) {
  std::string path = TempPath("seg_dict.trial");
  ASSERT_TRUE(SaveStoreSnapshot(SmallStore(), path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  size_t i = reader.value().Find(kSegDictBytes);
  ASSERT_NE(i, SegmentReader::kNotFound);
  ASSERT_GT(reader.value().Section(i).bytes, 0u);
  bytes[reader.value().Section(i).offset] ^= 0x04;
  WriteFileBytes(path, bytes);

  OpenSnapshotOptions verify;
  verify.verify_payload = true;
  auto strict = OpenStoreSnapshot(path, verify);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << strict.status().ToString();
}

// ---- codec unit coverage ----------------------------------------------

TEST(TripleCodec, EncodeDecodeRoundTripAllOrders) {
  TripleStore store = ZipfStore(17);
  const TripleSet& rel = store.Relation(0);
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    TripleRange range = rel.Scan(order);
    std::vector<uint8_t> buf;
    EncodeTripleSegment(range, order, &buf);
    EXPECT_LT(buf.size(), range.size() * sizeof(Triple))
        << "no compression for " << IndexOrderName(order);
    std::vector<Triple> out;
    Status st = DecodeTripleSegment(buf.data(), buf.size(), range.size(),
                                    order, "test", &out);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(out.size(), range.size());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), range.begin()));
  }
}

TEST(TripleCodec, DecodeRejectsTruncationAndTrailingBytes) {
  std::vector<Triple> triples = {{0, 0, 0}, {1, 2, 3}, {1, 2, 9}};
  TripleRange range{triples.data(), triples.data() + triples.size()};
  std::vector<uint8_t> buf;
  EncodeTripleSegment(range, IndexOrder::kSPO, &buf);
  std::vector<Triple> out;
  // Declared count larger than the stream: ends early.
  EXPECT_FALSE(DecodeTripleSegment(buf.data(), buf.size(), 4,
                                   IndexOrder::kSPO, "t", &out)
                   .ok());
  // Declared count smaller: trailing bytes.
  EXPECT_FALSE(DecodeTripleSegment(buf.data(), buf.size(), 2,
                                   IndexOrder::kSPO, "t", &out)
                   .ok());
  // Unsorted input (duplicate triple) is rejected by the decoder.
  std::vector<uint8_t> dup;
  std::vector<Triple> bad = {{1, 2, 3}, {1, 2, 3}};
  EncodeTripleSegment({bad.data(), bad.data() + 2}, IndexOrder::kSPO, &dup);
  EXPECT_FALSE(
      DecodeTripleSegment(dup.data(), dup.size(), 2, IndexOrder::kSPO, "t",
                          &out)
          .ok());
}

}  // namespace
}  // namespace trial
