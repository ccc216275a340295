// Tests for the bulk-load subsystem: pipeline-vs-legacy store
// equivalence on Zipf-skewed synthetic documents (single-relation and
// per-predicate modes, several worker/chunk configurations), the
// skip-and-count ParseOptions, chunk-correct error line numbers, and an
// N-Triples round-trip property test at >= 10^5 lines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "loader/bulk_load.h"
#include "loader/ntriples_writer.h"
#include "rdf/ntriples.h"
#include "storage/segment/segment_format.h"
#include "storage/segment/store_snapshot.h"

namespace trial {
namespace {

// A Zipf-skewed dirty document: skewed predicates/objects, linked
// objects, literal/blank/comment lines, escape-needing IRIs.
std::string DirtyDoc(size_t n, uint64_t seed) {
  SyntheticNTriplesOptions opts;
  opts.num_triples = n;
  opts.num_predicates = 12;  // multi-relation: several busy predicates
  opts.zipf_p = 1.3;
  opts.zipf_o = 0.6;
  opts.literal_fraction = 0.05;
  opts.blank_fraction = 0.03;
  opts.comment_fraction = 0.02;
  opts.escaped_iris = true;
  opts.seed = seed;
  return SyntheticNTriples(opts);
}

void ExpectEquivalentLoads(const std::string& doc, BulkLoadOptions opts) {
  ParseStats legacy_stats;
  auto legacy = LegacyLoadNTriples(doc, opts, &legacy_stats);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  for (size_t threads : {size_t{1}, size_t{3}}) {
    opts.num_threads = threads;
    BulkLoadStats stats;
    auto bulk = BulkLoadNTriples(doc, opts, &stats);
    ASSERT_TRUE(bulk.ok()) << bulk.status().ToString();
    std::string diff;
    EXPECT_TRUE(StoresEquivalent(*bulk, *legacy, &diff))
        << "threads=" << threads << ": " << diff;
    // Line-level accounting matches the single-threaded reference
    // parse exactly, independent of chunking.
    EXPECT_EQ(stats.parse.lines, legacy_stats.lines);
    EXPECT_EQ(stats.parse.triples, legacy_stats.triples);
    EXPECT_EQ(stats.parse.skipped_literals, legacy_stats.skipped_literals);
    EXPECT_EQ(stats.parse.skipped_blanks, legacy_stats.skipped_blanks);
    EXPECT_EQ(stats.triples_loaded, bulk->TotalTriples());
  }
}

TEST(BulkLoad, EquivalentToLegacySingleRelation) {
  std::string doc = DirtyDoc(20'000, /*seed=*/7);
  BulkLoadOptions opts;
  opts.parse.accept_unsupported = true;
  opts.chunk_bytes = 64 << 10;  // force many chunks
  ExpectEquivalentLoads(doc, opts);
}

TEST(BulkLoad, EquivalentToLegacyPerPredicate) {
  std::string doc = DirtyDoc(20'000, /*seed=*/8);
  BulkLoadOptions opts;
  opts.parse.accept_unsupported = true;
  opts.relation_per_predicate = true;
  opts.chunk_bytes = 64 << 10;
  ExpectEquivalentLoads(doc, opts);
}

TEST(BulkLoad, EquivalentOnCleanDocAndCustomRelation) {
  SyntheticNTriplesOptions gen;
  gen.num_triples = 5'000;
  gen.zipf_s = 1.1;
  gen.seed = 9;
  std::string doc = SyntheticNTriples(gen);
  BulkLoadOptions opts;
  opts.relation = "Triples";
  opts.chunk_bytes = 16 << 10;
  ExpectEquivalentLoads(doc, opts);
}

TEST(BulkLoad, TinyAndDegenerateInputs) {
  BulkLoadOptions opts;
  // Empty document: one relation "E", no objects, like the legacy path.
  auto empty = BulkLoadNTriples("", opts);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumRelations(), 1u);
  EXPECT_EQ(empty->TotalTriples(), 0u);
  EXPECT_EQ(empty->NumObjects(), 0u);

  // No trailing newline; duplicate triples collapse.
  auto dup = BulkLoadNTriples("a b c .\na b c .\na b d .", opts);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->TotalTriples(), 2u);
  EXPECT_EQ(dup->NumObjects(), 4u);

  auto legacy = LegacyLoadNTriples("a b c .\na b c .\na b d .", opts);
  ASSERT_TRUE(legacy.ok());
  std::string diff;
  EXPECT_TRUE(StoresEquivalent(*dup, *legacy, &diff)) << diff;
}

TEST(BulkLoad, SkipAndCountUnsupportedLines) {
  const char doc[] =
      "<a> <p> <b> .\n"
      "<a> <p> \"a literal\" .\n"
      "_:blank <p> <b> .\n"
      "<c> <p> \"v\"^^<http://www.w3.org/2001/XMLSchema#int> .\n"
      "# comment\n"
      "<b> <p> <c> .\n";
  // Strict (default): hard error, as the paper's ground documents demand.
  EXPECT_FALSE(BulkLoadNTriples(doc).ok());
  // Accepting: triples load, skips are tallied per kind.
  BulkLoadOptions opts;
  opts.parse.accept_unsupported = true;
  BulkLoadStats stats;
  auto store = BulkLoadNTriples(doc, opts, &stats);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(stats.parse.triples, 2u);
  EXPECT_EQ(stats.parse.skipped_literals, 2u);
  EXPECT_EQ(stats.parse.skipped_blanks, 1u);
  EXPECT_EQ(stats.parse.lines, 6u);
  EXPECT_EQ(store->TotalTriples(), 2u);
}

TEST(BulkLoad, ErrorLineNumbersSurviveChunking) {
  // A parse error deep in the document must be reported with its
  // document-global line number regardless of chunk/worker splits.
  std::string doc;
  for (int i = 0; i < 999; ++i) doc += "<s> <p> <o" + std::to_string(i) + "> .\n";
  doc += "<s> <p>\n";  // line 1000: missing object and dot
  for (int i = 0; i < 500; ++i) doc += "<x> <p> <y" + std::to_string(i) + "> .\n";
  BulkLoadOptions opts;
  opts.chunk_bytes = 4 << 10;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    opts.num_threads = threads;
    auto r = BulkLoadNTriples(doc, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("line 1000"), std::string::npos)
        << r.status().message();
  }
}

TEST(BulkLoad, FileAndMemoryPathsAgree) {
  std::string doc = DirtyDoc(2'000, /*seed=*/11);
  std::string path = testing::TempDir() + "/bulk_load_test.nt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(doc.data(), 1, doc.size(), f), doc.size());
    std::fclose(f);
  }
  BulkLoadOptions opts;
  opts.parse.accept_unsupported = true;
  auto mem = BulkLoadNTriples(doc, opts);
  auto file = BulkLoadNTriplesFile(path, opts);
  std::remove(path.c_str());
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(file.ok());
  std::string diff;
  EXPECT_TRUE(StoresEquivalent(*mem, *file, &diff)) << diff;
  EXPECT_FALSE(BulkLoadNTriplesFile(path + ".missing", opts).ok());
}

// Escaped IRIs reach the sink as views into parser scratch storage
// that lives for one callback, so the loader's batch flushes before
// them.  A document interleaving them with plain lines (across many
// batches) loads to exactly the ids and triples of per-triple
// interning in document order.
TEST(BulkLoad, EscapedTermsInterleavedWithBatchesKeepPerTripleIds) {
  std::string doc;
  for (int i = 0; i < 1000; ++i) {
    const std::string n = std::to_string(i % 97);
    const std::string m = std::to_string((i * 7) % 131);
    if (i % 3 == 0) {
      doc += "<s\\>" + n + "> <p" + std::to_string(i % 4) + "> <o" + m + "> .\n";
    } else if (i % 11 == 0) {
      doc += "<s" + n + "> <p\\t> <o\\\\" + m + "> .\n";
    } else {
      doc += "<s" + n + "> <p" + std::to_string(i % 4) + "> <o" + m + "> .\n";
    }
  }
  TripleStore want;
  const RelId rel = want.AddRelation("E");
  ASSERT_TRUE(ParseNTriplesChunk(
                  doc, ParseOptions{}, 1,
                  [&](std::string_view s, std::string_view p,
                      std::string_view o) {
                    ObjId ids[3] = {want.InternObject(s), want.InternObject(p),
                                    want.InternObject(o)};
                    want.Add(rel, ids[0], ids[1], ids[2]);
                  },
                  nullptr)
                  .ok());
  BulkLoadOptions opts;
  opts.num_threads = 1;
  auto got = BulkLoadNTriples(doc, opts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->NumObjects(), want.NumObjects());
  for (ObjId id = 0; id < want.NumObjects(); ++id) {
    ASSERT_EQ(got->ObjectName(id), want.ObjectName(id)) << "id " << id;
  }
  EXPECT_NE(want.FindObject("s>1"), kInvalidIntern);
  EXPECT_NE(want.FindObject("o\\5"), kInvalidIntern);
  ASSERT_EQ(got->NumRelations(), 1u);
  EXPECT_EQ(got->Relation(0), want.Relation(rel));
}

TEST(BulkLoad, OneAndFourWorkersAreNameIdentical) {
  std::string doc = DirtyDoc(30'000, /*seed=*/17);
  for (bool by_pred : {false, true}) {
    BulkLoadOptions opts;
    opts.parse.accept_unsupported = true;
    opts.relation_per_predicate = by_pred;
    opts.chunk_bytes = 64 << 10;
    opts.num_threads = 1;
    auto one = BulkLoadNTriples(doc, opts);
    opts.num_threads = 4;
    BulkLoadStats stats;
    auto four = BulkLoadNTriples(doc, opts, &stats);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ASSERT_TRUE(four.ok()) << four.status().ToString();
    EXPECT_EQ(stats.threads, 4u);
    std::string diff;
    EXPECT_TRUE(StoresEquivalent(*one, *four, &diff))
        << "by_pred=" << by_pred << ": " << diff;
    EXPECT_TRUE(StoresEquivalent(*four, *one, &diff))
        << "by_pred=" << by_pred << ": " << diff;
  }
}

// A small fixed document: plain IRIs, bare tokens, escaped IRIs (whose
// parsed views live in parser scratch storage) and repeated names.
constexpr char kFixedDoc[] =
    "<alice> <knows> <bob> .\n"
    "<bob> <knows> <carol\\>x> .\n"
    "# a comment line\n"
    "<carol\\>x> <likes> <tab\\tname> .\n"
    "dave knows alice .\n"
    "<tab\\tname> <knows> <alice> .\n"
    "<bob> <likes> <bob> .\n"
    "<eve> <knows> <new\\\\line> .\n"
    "<new\\\\line> <likes> <alice> .\n";

uint64_t SnapshotChecksum(const TripleStore& store, const std::string& name) {
  std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveStoreSnapshot(store, path).ok());
  auto bytes = ReadFileToString(path);
  std::remove(path.c_str());
  EXPECT_TRUE(bytes.ok());
  return Checksum64(bytes->data(), bytes->size());
}

// Ids are part of the on-disk format: the fixed document's snapshot
// bytes are pinned, so a change to how the loader assigns ids (order of
// first occurrence, one worker) shows up here.
TEST(BulkLoad, FixedDocumentSnapshotBytesArePinned) {
  // Recorded from the per-triple interning loader.
  const uint64_t kPinned[2] = {0xa7b32a2f96dcff15ULL, 0x95392bfe794e233aULL};
  for (bool by_pred : {false, true}) {
    BulkLoadOptions opts;
    opts.relation_per_predicate = by_pred;
    opts.num_threads = 1;
    auto store = BulkLoadNTriples(kFixedDoc, opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store->ObjectName(store->FindObject("carol>x")), "carol>x");
    EXPECT_EQ(SnapshotChecksum(*store, "fixed_doc.trial"), kPinned[by_pred])
        << "by_pred=" << by_pred;
  }
}

TEST(Writer, WriteSyntheticNTriplesStreamsSameBytes) {
  SyntheticNTriplesOptions gen;
  gen.num_triples = 3'000;
  gen.literal_fraction = 0.1;
  gen.escaped_iris = true;
  gen.seed = 13;
  std::string path = testing::TempDir() + "/writer_test.nt";
  ASSERT_TRUE(WriteSyntheticNTriples(path, gen).ok());
  auto content = ReadFileToString(path);
  std::remove(path.c_str());
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, SyntheticNTriples(gen));
}

// The round-trip property at scale: a >= 10^5-line generated document
// survives document -> store -> serialized -> store with full
// name-level equivalence, through both load paths and both directions
// of SerializeNTriples.
TEST(BulkLoad, RoundTripPropertyAtScale) {
  SyntheticNTriplesOptions gen;
  gen.num_triples = 100'000;
  gen.num_predicates = 8;
  gen.zipf_p = 1.2;
  gen.zipf_o = 0.5;
  gen.escaped_iris = true;  // exercise the unescape slow path at volume
  gen.seed = 29;
  std::string doc = SyntheticNTriples(gen);
  ASSERT_GE(static_cast<size_t>(
                std::count(doc.begin(), doc.end(), '\n')),
            100'000u);

  // Graph-level round trip (legacy representation).
  auto g1 = ParseNTriples(doc);
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  auto g2 = ParseNTriples(SerializeNTriples(*g1));
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  EXPECT_EQ(*g1, *g2);

  // Store-level round trip through the pipeline, per-predicate mode
  // (the predicate column is the relation name, so relations survive).
  BulkLoadOptions opts;
  opts.relation_per_predicate = true;
  opts.num_threads = 2;
  opts.chunk_bytes = 1 << 20;
  auto store1 = BulkLoadNTriples(doc, opts);
  ASSERT_TRUE(store1.ok()) << store1.status().ToString();
  auto store2 = BulkLoadNTriples(SerializeNTriples(*store1), opts);
  ASSERT_TRUE(store2.ok()) << store2.status().ToString();
  std::string diff;
  EXPECT_TRUE(StoresEquivalent(*store1, *store2, &diff)) << diff;
  EXPECT_EQ(store1->TotalTriples(), g1->size());
}

}  // namespace
}  // namespace trial
