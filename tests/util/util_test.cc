// Unit tests for the util module: Status/Result, interner, bit
// containers, RNG determinism, power-law fitting.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "util/bit_matrix.h"
#include "util/fit.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/status.h"

namespace trial {
namespace {

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("relation X");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not-found: relation X");
}

TEST(Status, ResultPropagation) {
  auto fails = []() -> Result<int> {
    return Status::InvalidArgument("nope");
  };
  auto wraps = [&]() -> Result<int> {
    TRIAL_ASSIGN_OR_RETURN(int v, fails());
    return v + 1;
  };
  Result<int> r = wraps();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  Result<int> ok = 41;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok + 1, 42);
}

TEST(Interner, BidirectionalAndStable) {
  StringInterner in;
  InternId a = in.Intern("alpha");
  InternId b = in.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha"), a);
  EXPECT_EQ(in.Get(a), "alpha");
  EXPECT_EQ(in.TryGet("beta"), b);
  EXPECT_EQ(in.TryGet("gamma"), kInvalidIntern);
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, ReserveAndHeterogeneousLookup) {
  StringInterner in;
  in.Reserve(64);
  // string_view keys (incl. non-terminated substrings) never copy.
  std::string backing = "alpha/beta";
  std::string_view alpha = std::string_view(backing).substr(0, 5);
  std::string_view beta = std::string_view(backing).substr(6);
  InternId a = in.Intern(alpha);
  EXPECT_EQ(in.TryGet(alpha), a);
  EXPECT_EQ(in.TryGet(beta), kInvalidIntern);
  EXPECT_EQ(in.Intern("alpha"), a);
  // Returned views stay valid across growth.
  std::string_view got = in.Get(a);
  for (int i = 0; i < 1000; ++i) in.Intern("filler" + std::to_string(i));
  EXPECT_EQ(got, "alpha");
  EXPECT_EQ(in.Get(a), "alpha");
}

// Many names through many table growths and arena blocks: every view
// handed out earlier still reads the same bytes at the same address.
TEST(Interner, ViewsSurviveTableGrowth) {
  StringInterner in;
  std::vector<std::string_view> views;
  constexpr int kNames = 120'000;
  for (int i = 0; i < kNames; ++i) {
    const std::string name = "http://example.org/resource/" + std::to_string(i);
    ASSERT_EQ(in.Intern(name), static_cast<InternId>(i));
    views.push_back(in.Get(static_cast<InternId>(i)));
  }
  ASSERT_EQ(in.size(), static_cast<size_t>(kNames));
  for (int i = 0; i < kNames; ++i) {
    const std::string name = "http://example.org/resource/" + std::to_string(i);
    ASSERT_EQ(views[i], name);
    ASSERT_EQ(in.Get(static_cast<InternId>(i)).data(), views[i].data());
    ASSERT_EQ(in.TryGet(name), static_cast<InternId>(i));
  }
  EXPECT_EQ(in.TryGet("http://example.org/resource/-1"), kInvalidIntern);
  // A name longer than an arena block gets a block of its own.
  const std::string long_name(200'000, 'x');
  const InternId id = in.Intern(long_name);
  EXPECT_EQ(in.Get(id), long_name);
  EXPECT_EQ(in.Intern(long_name), id);
  EXPECT_EQ(views[0], "http://example.org/resource/0");
}

TEST(Interner, CopyThatGrowsLeavesTheOriginalAlone) {
  StringInterner a;
  for (int i = 0; i < 1000; ++i) a.Intern("n" + std::to_string(i));
  StringInterner b = a;
  // Both intern different new names at the same next id; neither sees
  // the other's, and the shared names keep their ids in both.
  EXPECT_EQ(b.Intern("only-in-b"), 1000u);
  for (int i = 0; i < 5000; ++i) b.Intern("b" + std::to_string(i));
  EXPECT_EQ(a.Intern("only-in-a"), 1000u);
  EXPECT_EQ(a.size(), 1001u);
  EXPECT_EQ(a.TryGet("only-in-b"), kInvalidIntern);
  EXPECT_EQ(a.TryGet("b0"), kInvalidIntern);
  EXPECT_EQ(b.TryGet("only-in-a"), kInvalidIntern);
  EXPECT_EQ(a.Get(1000), "only-in-a");
  EXPECT_EQ(b.Get(1000), "only-in-b");
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "n" + std::to_string(i);
    EXPECT_EQ(a.TryGet(name), static_cast<InternId>(i));
    EXPECT_EQ(b.TryGet(name), static_cast<InternId>(i));
  }
}

TEST(Interner, AdoptFrozenThenInternContinuesTheIds) {
  // A frozen block in the snapshot layout: bytes plus count + 1 offsets.
  const std::string bytes = "alphabetagamma";
  const std::vector<uint64_t> offsets = {0, 5, 9, 14};
  FrozenStrings frozen;
  frozen.bytes = bytes.data();
  frozen.offsets = offsets.data();
  frozen.count = 3;
  StringInterner in;
  in.AdoptFrozen(frozen);
  EXPECT_EQ(in.size(), 3u);
  EXPECT_EQ(in.Get(1), "beta");
  EXPECT_EQ(in.Intern("delta"), 3u);
  EXPECT_EQ(in.Intern("gamma"), 2u);
  EXPECT_EQ(in.TryGet("alpha"), 0u);
  EXPECT_EQ(in.TryGet("delta"), 3u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(in.Intern("x" + std::to_string(i)), static_cast<InternId>(4 + i));
  }
  EXPECT_EQ(in.Get(0), "alpha");
  EXPECT_EQ(in.Get(3), "delta");
  // A copy of an adopted interner whose table is not built yet.
  StringInterner lazy;
  lazy.AdoptFrozen(frozen);
  StringInterner copy = lazy;
  EXPECT_EQ(copy.Intern("beta"), 1u);
  EXPECT_EQ(copy.Intern("epsilon"), 3u);
  EXPECT_EQ(lazy.TryGet("epsilon"), kInvalidIntern);
}

TEST(Interner, BatchEqualsPerNameIntern) {
  StringInterner batched, single;
  for (StringInterner* in : {&batched, &single}) {
    for (int i = 0; i < 50; ++i) in->Intern("pre" + std::to_string(i));
  }
  // Old names, new names, a new name repeated inside the batch, and
  // enough names to span several internal groups and table growths.
  std::vector<std::string> names;
  for (int i = 0; i < 3000; ++i) {
    names.push_back("pre" + std::to_string(i % 70));
    names.push_back("new" + std::to_string(i % 997));
    if (i % 5 == 0) names.push_back("twice");
  }
  std::vector<std::string_view> views(names.begin(), names.end());
  std::vector<InternId> ids(views.size());
  batched.InternBatch(views.data(), views.size(), ids.data());
  for (size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(ids[i], single.Intern(views[i])) << "name " << i;
  }
  EXPECT_EQ(batched.size(), single.size());
  for (InternId id = 0; id < single.size(); ++id) {
    EXPECT_EQ(batched.Get(id), single.Get(id));
  }
  batched.InternBatch(nullptr, 0, nullptr);  // an empty batch is a no-op
  EXPECT_EQ(batched.size(), single.size());
}

TEST(Interner, EmptyName) {
  StringInterner in;
  EXPECT_EQ(in.TryGet(""), kInvalidIntern);
  const InternId e = in.Intern("");
  EXPECT_EQ(in.Get(e), "");
  EXPECT_EQ(in.TryGet(""), e);
  const InternId a = in.Intern("a");
  EXPECT_NE(a, e);
  EXPECT_EQ(in.Intern(""), e);
  std::string_view empty;
  InternId id;
  in.InternBatch(&empty, 1, &id);
  EXPECT_EQ(id, e);
}

TEST(Interner, CopiesAndMovesKeepTheirIds) {
  StringInterner a;
  InternId x = a.Intern("x");
  StringInterner b = a;
  b.Intern("y");
  a = b;  // copy-assign back
  StringInterner c(std::move(b));
  // Every copy resolves lookups through its own storage.
  EXPECT_EQ(a.TryGet("x"), x);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(c.TryGet("y"), c.Intern("y"));
  EXPECT_EQ(c.Get(x), "x");
}

TEST(Interner, MergeFromRemapsSharedAndNewStrings) {
  StringInterner global, shard;
  InternId g0 = global.Intern("x");
  global.Intern("y");
  shard.Intern("z");
  shard.Intern("x");
  std::vector<InternId> remap = global.MergeFrom(shard);
  ASSERT_EQ(remap.size(), 2u);
  EXPECT_EQ(remap[0], global.TryGet("z"));
  EXPECT_EQ(remap[1], g0);
  EXPECT_EQ(global.size(), 3u);
  // Merging an empty dictionary is a no-op.
  EXPECT_TRUE(global.MergeFrom(StringInterner{}).empty());
}

TEST(BitMatrix, TransitiveClosure) {
  BitMatrix m(5);
  m.Set(0, 1);
  m.Set(1, 2);
  m.Set(3, 4);
  m.TransitiveClosureInPlace();
  EXPECT_TRUE(m.Get(0, 2));
  EXPECT_TRUE(m.Get(0, 0));  // reflexive
  EXPECT_FALSE(m.Get(2, 0));
  EXPECT_FALSE(m.Get(0, 4));
  EXPECT_TRUE(m.Get(3, 4));
}

TEST(BitTensor3, SetOperations) {
  BitTensor3 a(8), b(8);
  a.Set(1, 2, 3);
  a.Set(4, 5, 6);
  b.Set(4, 5, 6);
  b.Set(7, 0, 1);
  BitTensor3 u = a;
  EXPECT_TRUE(u.OrInPlace(b));
  EXPECT_EQ(u.Count(), 3u);
  BitTensor3 d = a;
  d.SubtractInPlace(b);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Get(1, 2, 3));
  BitTensor3 i = a;
  i.AndInPlace(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Get(4, 5, 6));
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(c.Below(10), 10u);
    int64_t r = c.Range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    double u = c.Unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Fit, RecoversKnownExponents) {
  std::vector<double> x = {100, 200, 400, 800, 1600};
  std::vector<double> quad, lin;
  for (double v : x) {
    quad.push_back(3e-6 * v * v);
    lin.push_back(2e-4 * v);
  }
  PowerFit fq = FitPowerLaw(x, quad);
  PowerFit fl = FitPowerLaw(x, lin);
  EXPECT_NEAR(fq.exponent, 2.0, 1e-6);
  EXPECT_NEAR(fl.exponent, 1.0, 1e-6);
  EXPECT_GT(fq.r2, 0.999);
}

TEST(Fit, HandlesDegenerateInput) {
  EXPECT_EQ(FitPowerLaw({}, {}).exponent, 0.0);
  EXPECT_EQ(FitPowerLaw({1}, {2}).exponent, 0.0);
  EXPECT_EQ(FitPowerLaw({0, -1}, {1, 1}).exponent, 0.0);  // skipped points
}

}  // namespace
}  // namespace trial
