#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/scoring.h"
#include "algebra/threshold.h"
#include "exec/occurrence_stream.h"
#include "exec/parallel_term_join.h"
#include "exec/score_bound.h"
#include "exec/term_join.h"
#include "exec/threshold_operator.h"
#include "index/inverted_index.h"
#include "query/engine.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"

/// \file
/// Top-K threshold pushdown. The contract under test: with an eligible
/// threshold (top_k set, simple monotone scorer), TermJoin's
/// early-terminating mode and ParallelTermJoin's shared-floor mode both
/// return *exactly* the elements the materialize-then-threshold pipeline
/// keeps — same elements, same order, same scores — at every partition
/// count. Plus the building blocks: block-max skip metadata, the heap
/// floor, the dropped_by_heap accounting invariant, and arrival-order
/// independence of the tie-break.

namespace tix::exec {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// ------------------------------------------------------------ scaffolding

struct Corpus {
  TempDir dir;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<index::InvertedIndex> index;
};

std::unique_ptr<Corpus> MakeCorpus(uint64_t articles = 40,
                                   uint64_t seed = 42) {
  auto corpus = std::make_unique<Corpus>();
  corpus->db = MakeTestDatabase(corpus->dir.path());
  workload::CorpusOptions options;
  options.num_articles = articles;
  options.seed = seed;
  options.vocabulary_size = 400;
  options.planted_terms = {{"xq1", 9 * articles}, {"xq2", 4 * articles}};
  options.planted_phrases = {
      {"xpa", "xpb", 5 * articles, 4 * articles, 2 * articles}};
  Unwrap(workload::GenerateCorpus(corpus->db.get(), options));
  corpus->index = std::make_unique<index::InvertedIndex>(
      Unwrap(index::InvertedIndex::Build(corpus->db.get())));
  return corpus;
}

algebra::IrPredicate ThreePhrasePredicate() {
  algebra::IrPredicate predicate;
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq1"}, 0.8});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq2"}, 0.6});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xpa", "xpb"}, 0.7});
  return predicate;
}

void ExpectIdentical(const std::vector<ScoredElement>& actual,
                     const std::vector<ScoredElement>& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << label << " @" << i;
    EXPECT_EQ(actual[i].doc, expected[i].doc) << label << " @" << i;
    EXPECT_EQ(actual[i].start, expected[i].start) << label << " @" << i;
    EXPECT_EQ(actual[i].end, expected[i].end) << label << " @" << i;
    EXPECT_EQ(actual[i].counts, expected[i].counts) << label << " @" << i;
    // Exact equality: pushdown scores through the very same code path.
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " @" << i;
  }
}

/// The reference pipeline: materialize the full join output, then feed
/// it through the post-pass ThresholdOperator.
std::vector<ScoredElement> MaterializeThenThreshold(
    Corpus& corpus, const algebra::IrPredicate& predicate,
    const algebra::Scorer& scorer, const algebra::ThresholdSpec& spec) {
  TermJoin full(corpus.db.get(), corpus.index.get(), &predicate, &scorer);
  std::vector<ScoredElement> all = Unwrap(full.Run());
  ThresholdOperator threshold(spec);
  for (ScoredElement& element : all) threshold.Push(std::move(element));
  return threshold.Finish();
}

// ---------------------------------------------------- block-max metadata

/// Hand-built list: doc 0 holds 140 postings, doc 1 holds 100, doc 2
/// holds 30 — 270 total, i.e. three skip blocks (interval 128) with doc 0
/// straddling the first boundary.
index::PostingList MakeThreeDocList() {
  std::vector<index::Posting> postings;
  const uint32_t counts[] = {140, 100, 30};
  uint32_t pos = 0;
  for (uint32_t doc = 0; doc < 3; ++doc) {
    for (uint32_t i = 0; i < counts[doc]; ++i) {
      postings.push_back(index::Posting{doc, doc * 1000 + i, pos});
      pos += 2;
    }
  }
  return Unwrap(index::PostingList::Build(postings));
}

TEST(BlockMaxTest, BuildComputesPerBlockDocMaxima) {
  const index::PostingList list = MakeThreeDocList();
  ASSERT_EQ(list.skips.size(), 3u);  // ceil(270 / 128)
  // Block 0 holds only doc 0 (count 140). Block 1 is touched by docs 0,
  // 1 and 2 — the maximum is doc 0's *total* count even though only 12
  // of its postings fall inside the block: a straddling document charges
  // its full count to every block it touches, otherwise the bound could
  // undercount an element whose occurrences span blocks. Block 2 holds
  // only doc 2's tail.
  EXPECT_EQ(list.skips[0].max_doc_count, 140u);
  EXPECT_EQ(list.skips[1].max_doc_count, 140u);
  EXPECT_EQ(list.skips[2].max_doc_count, 30u);
  EXPECT_EQ(list.max_doc_count, 140u);
}

TEST(BlockMaxTest, DocPostingCountIsExact) {
  const index::PostingList list = MakeThreeDocList();
  EXPECT_EQ(list.DocPostingCount(0), 140u);
  EXPECT_EQ(list.DocPostingCount(1), 100u);
  EXPECT_EQ(list.DocPostingCount(2), 30u);
  EXPECT_EQ(list.DocPostingCount(3), 0u);
  EXPECT_EQ(list.DocPostingCount(UINT32_MAX), 0u);
}

TEST(BlockMaxTest, BlockBoundWindows) {
  const index::PostingList list = MakeThreeDocList();
  // From doc 0: block 0's window. The next skip entry still starts at
  // doc 0 (the straddle), so the window is clamped to a single document
  // — it must always advance.
  const auto b0 = list.BlockBoundAt(0);
  EXPECT_EQ(b0.max_doc_count, 140u);
  EXPECT_EQ(b0.window_end, 1u);
  // From doc 2 the cursor lands in block 1; block 2 starts at doc 2 as
  // well, so again the clamp applies.
  const auto b2 = list.BlockBoundAt(2);
  EXPECT_EQ(b2.max_doc_count, 140u);
  EXPECT_EQ(b2.window_end, 3u);
  // Past the end: nothing left, bound zero forever.
  const auto past = list.BlockBoundAt(3);
  EXPECT_EQ(past.max_doc_count, 0u);
  EXPECT_EQ(past.window_end, UINT32_MAX);
}

TEST(BlockMaxTest, CorpusListsSatisfyTheBoundInvariant) {
  auto corpus = MakeCorpus(10);
  for (const char* term : {"xq1", "xq2", "xpa", "xpb"}) {
    const index::PostingList* list = corpus->index->Lookup(term);
    ASSERT_NE(list, nullptr) << term;
    ASSERT_FALSE(list->skips.empty()) << term;
    // Every document's exact count must be covered by the block bound of
    // every window containing it, and by the list-level bound.
    uint32_t best = 0;
    for (const auto& [doc, offset] : list->doc_offsets) {
      const uint32_t exact = list->DocPostingCount(doc);
      best = std::max(best, exact);
      storage::DocId probe = doc;
      const auto bound = list->BlockBoundAt(probe);
      EXPECT_GE(bound.max_doc_count, exact) << term << " doc " << doc;
      EXPECT_GT(bound.window_end, probe) << term << " doc " << doc;
    }
    EXPECT_EQ(list->max_doc_count, best) << term;
  }
}

// ------------------------------------------------------ ScoreBoundOracle

TEST(ScoreBoundOracleTest, DocBoundsDominateEveryElementScore) {
  auto corpus = MakeCorpus(12);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  ScoreBoundOracle oracle(*corpus->index, predicate);
  ASSERT_EQ(oracle.num_phrases(), predicate.phrases.size());

  TermJoin join(corpus->db.get(), corpus->index.get(), &predicate, &scorer);
  const std::vector<ScoredElement> all = Unwrap(join.Run());
  ASSERT_FALSE(all.empty());
  std::vector<uint32_t> counts;
  for (const ScoredElement& element : all) {
    oracle.DocBoundCounts(element.doc, &counts);
    const double bound = scorer.Score(counts);
    EXPECT_GE(bound, element.score) << "doc " << element.doc;
    // And the window bound dominates the exact doc bound.
    storage::DocId window_end = 0;
    std::vector<uint32_t> window_counts;
    oracle.WindowBoundCounts(element.doc, &window_counts, &window_end);
    EXPECT_GT(window_end, element.doc);
    EXPECT_GE(scorer.Score(window_counts), bound) << "doc " << element.doc;
  }
}

TEST(ScoreBoundOracleTest, AbsentTermsBoundPhraseAtZero) {
  auto corpus = MakeCorpus(4);
  algebra::IrPredicate predicate;
  predicate.phrases.push_back(
      algebra::WeightedPhrase{{"xq1", "zz_never_occurs"}, 1.0});
  ScoreBoundOracle oracle(*corpus->index, predicate);
  std::vector<uint32_t> counts;
  oracle.DocBoundCounts(0, &counts);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 0u);
  storage::DocId window_end = 0;
  oracle.WindowBoundCounts(0, &counts, &window_end);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_GT(window_end, 0u);
}

TEST(TopKFloorTest, RaiseIsMonotone) {
  TopKFloor floor;
  EXPECT_EQ(floor.Load(), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(floor.Raise(1.5));
  EXPECT_EQ(floor.Load(), 1.5);
  EXPECT_FALSE(floor.Raise(1.0));  // lower: no-op
  EXPECT_FALSE(floor.Raise(1.5));  // equal: no-op
  EXPECT_EQ(floor.Load(), 1.5);
  EXPECT_TRUE(floor.Raise(2.0));
  EXPECT_EQ(floor.Load(), 2.0);
}

// ------------------------------------------------- ThresholdOperator

ScoredElement Element(storage::DocId doc, uint32_t start, uint32_t end,
                      storage::NodeId node, double score) {
  ScoredElement element;
  element.doc = doc;
  element.start = start;
  element.end = end;
  element.node = node;
  element.score = score;
  return element;
}

TEST(ThresholdOperatorTest, AccountingInvariantHolds) {
  algebra::ThresholdSpec spec;
  spec.min_score = 0.5;
  spec.top_k = 3;
  ThresholdOperator op(spec);
  for (uint32_t i = 0; i < 20; ++i) {
    op.Push(Element(i, i, i + 1, i, 0.1 * i));
    // pushed == kept + dropped_by_score + dropped_by_heap, at all times.
    EXPECT_EQ(op.pushed(),
              op.kept() + op.dropped_by_score() + op.dropped_by_heap())
        << "after push " << i;
  }
  EXPECT_EQ(op.pushed(), 20u);
  EXPECT_EQ(op.dropped_by_score(), 6u);  // scores 0.0 .. 0.5 fail > 0.5
  EXPECT_EQ(op.kept(), 3u);
  EXPECT_EQ(op.dropped_by_heap(), 11u);
  EXPECT_EQ(op.Finish().size(), 3u);
}

TEST(ThresholdOperatorTest, TopKZeroDropsEverything) {
  algebra::ThresholdSpec spec;
  spec.top_k = 0;
  ThresholdOperator op(spec);
  ASSERT_TRUE(op.HeapFloor().has_value());
  EXPECT_EQ(*op.HeapFloor(), std::numeric_limits<double>::infinity());
  for (uint32_t i = 0; i < 5; ++i) op.Push(Element(i, 0, 1, i, 1.0));
  EXPECT_EQ(op.pushed(), 5u);
  EXPECT_EQ(op.dropped_by_heap(), 5u);
  EXPECT_EQ(op.kept(), 0u);
  EXPECT_TRUE(op.Finish().empty());
}

TEST(ThresholdOperatorTest, HeapFloorTracksKthBestScore) {
  algebra::ThresholdSpec spec;
  spec.top_k = 2;
  ThresholdOperator op(spec);
  EXPECT_FALSE(op.HeapFloor().has_value());  // heap not full yet
  op.Push(Element(0, 0, 1, 0, 3.0));
  EXPECT_FALSE(op.HeapFloor().has_value());
  op.Push(Element(1, 0, 1, 1, 1.0));
  ASSERT_TRUE(op.HeapFloor().has_value());
  EXPECT_EQ(*op.HeapFloor(), 1.0);
  op.Push(Element(2, 0, 1, 2, 2.0));  // evicts the 1.0
  EXPECT_EQ(*op.HeapFloor(), 2.0);
  op.Push(Element(3, 0, 1, 3, 0.5));  // rejected, floor unchanged
  EXPECT_EQ(*op.HeapFloor(), 2.0);
  // min_score without top_k: no heap, no floor.
  algebra::ThresholdSpec v_only;
  v_only.min_score = 0.5;
  EXPECT_FALSE(ThresholdOperator(v_only).HeapFloor().has_value());
}

// Satellite regression: with more than k elements tied on score, the
// survivors are the first k in document order — for *every* arrival
// order. (HeapLess falls back to DocumentOrderLess, which is a total
// order even for synthetic elements sharing (doc, start).)
TEST(ThresholdOperatorTest, TiedScoresKeepDocumentOrderWinners) {
  constexpr size_t kTopK = 4;
  std::vector<ScoredElement> tied;
  for (uint32_t doc = 0; doc < 4; ++doc) {
    tied.push_back(Element(doc, 10, 90, 100 + doc, 1.0));
    // Same (doc, start) as above, smaller interval: document order is
    // decided by the (end DESC, node) tail of the comparison.
    tied.push_back(Element(doc, 10, 40, 200 + doc, 1.0));
    tied.push_back(Element(doc, 50, 60, 300 + doc, 1.0));
  }
  std::vector<ScoredElement> expected = tied;
  std::sort(expected.begin(), expected.end(), DocumentOrderLess);
  expected.resize(kTopK);

  std::vector<ScoredElement> order = tied;
  std::mt19937 rng(1234);
  for (int permutation = 0; permutation < 8; ++permutation) {
    algebra::ThresholdSpec spec;
    spec.top_k = kTopK;
    ThresholdOperator op(spec);
    for (const ScoredElement& element : order) op.Push(element);
    ExpectIdentical(op.Finish(), expected,
                    "permutation " + std::to_string(permutation));
    if (permutation == 0) {
      std::reverse(order.begin(), order.end());
    } else {
      std::shuffle(order.begin(), order.end(), rng);
    }
  }
}

// ------------------------------------------------------- stream seeking

TEST(SkipToDocTest, TermStreamLeapsAndCountsBypassedPostings) {
  const index::PostingList list = MakeThreeDocList();
  TermOccurrenceStream stream(&list);
  EXPECT_EQ(stream.SkipToDoc(0), 0u);  // already there
  EXPECT_EQ(stream.SkipToDoc(2), 240u);  // doc 0 (140) + doc 1 (100)
  ASSERT_TRUE(stream.Peek().has_value());
  EXPECT_EQ(stream.Peek()->doc, 2u);
  EXPECT_EQ(stream.SkipToDoc(1), 0u);  // never moves backwards
  EXPECT_EQ(stream.Peek()->doc, 2u);
  EXPECT_EQ(stream.SkipToDoc(99), 30u);  // drains the tail
  EXPECT_FALSE(stream.Peek().has_value());
}

TEST(SkipToDocTest, PhraseStreamSkipsToMatchingDoc) {
  auto corpus = MakeCorpus(10);
  algebra::IrPredicate predicate;
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xpa", "xpb"}, 1.0});
  auto streams = MakeOccurrenceStreams(*corpus->index, predicate);
  ASSERT_EQ(streams.size(), 1u);
  OccurrenceStream& stream = *streams[0];
  ASSERT_TRUE(stream.Peek().has_value());
  // Collect the reference occurrence list, then re-open and skip.
  auto reference = MakeOccurrenceStreams(*corpus->index, predicate);
  std::vector<Occurrence> all = reference[0]->DrainAll();
  ASSERT_FALSE(all.empty());
  const storage::DocId target = all.back().doc;
  stream.SkipToDoc(target);
  ASSERT_TRUE(stream.Peek().has_value());
  EXPECT_EQ(stream.Peek()->doc, target);
  EXPECT_EQ(stream.Peek()->word_pos,
            std::find_if(all.begin(), all.end(),
                         [&](const Occurrence& occurrence) {
                           return occurrence.doc == target;
                         })
                ->word_pos);
}

// ------------------------------------------- serial pushdown equivalence

TEST(TermJoinPushdownTest, EligibilityRule) {
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer simple(predicate.Weights());
  const algebra::ComplexProximityScorer complex(predicate.Weights());
  TermJoinOptions options;
  EXPECT_FALSE(TermJoinCanPushThreshold(options, simple));  // no spec
  options.threshold = algebra::ThresholdSpec{};
  options.threshold->min_score = 0.5;  // V-only: no heap to push
  EXPECT_FALSE(TermJoinCanPushThreshold(options, simple));
  options.threshold->top_k = 5;
  EXPECT_TRUE(TermJoinCanPushThreshold(options, simple));
  EXPECT_FALSE(TermJoinCanPushThreshold(options, complex));
  const algebra::WeightedCountScorer negative({-1.0, 0.5});
  EXPECT_FALSE(TermJoinCanPushThreshold(options, negative));  // non-monotone
}

TEST(TermJoinPushdownTest, MatchesMaterializeThenThreshold) {
  auto corpus = MakeCorpus(40);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  for (const size_t top_k : {1u, 3u, 10u, 1000000000u}) {
    algebra::ThresholdSpec spec;
    spec.top_k = top_k;
    const std::vector<ScoredElement> expected =
        MaterializeThenThreshold(*corpus, predicate, scorer, spec);
    TermJoinOptions options;
    options.threshold = spec;
    TermJoin pushdown(corpus->db.get(), corpus->index.get(), &predicate,
                      &scorer, options);
    ExpectIdentical(Unwrap(pushdown.Run()), expected,
                    "k=" + std::to_string(top_k));
  }
}

TEST(TermJoinPushdownTest, MinScorePlusTopK) {
  auto corpus = MakeCorpus(20);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  algebra::ThresholdSpec spec;
  spec.top_k = 5;
  spec.min_score = 2.0;
  const std::vector<ScoredElement> expected =
      MaterializeThenThreshold(*corpus, predicate, scorer, spec);
  TermJoinOptions options;
  options.threshold = spec;
  TermJoin pushdown(corpus->db.get(), corpus->index.get(), &predicate,
                    &scorer, options);
  ExpectIdentical(Unwrap(pushdown.Run()), expected, "v-and-k");
}

TEST(TermJoinPushdownTest, ActuallyPrunesWork) {
  auto corpus = MakeCorpus(40);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  algebra::ThresholdSpec spec;
  spec.top_k = 1;
  TermJoinOptions options;
  options.threshold = spec;
  TermJoin pushdown(corpus->db.get(), corpus->index.get(), &predicate,
                    &scorer, options);
  ASSERT_EQ(Unwrap(pushdown.Run()).size(), 1u);
  const TermJoinStats& stats = pushdown.stats();
  // With k=1 over 40 documents of varying score, most documents cannot
  // beat the running best and must be skipped without being merged.
  EXPECT_GT(stats.docs_pruned, 0u);
  EXPECT_GT(stats.postings_pruned, 0u);
  EXPECT_GT(stats.floor_updates, 0u);

  TermJoin full(corpus->db.get(), corpus->index.get(), &predicate, &scorer);
  (void)Unwrap(full.Run());
  // Pruned postings are postings the full merge consumed but the
  // pushdown run never touched.
  EXPECT_LT(stats.occurrences, full.stats().occurrences);
}

TEST(TermJoinPushdownTest, IneligibleSpecsLeaveOutputUntouched) {
  auto corpus = MakeCorpus(10);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer simple(predicate.Weights());
  const algebra::ComplexProximityScorer complex(predicate.Weights());
  TermJoin reference_simple(corpus->db.get(), corpus->index.get(), &predicate,
                            &simple);
  const auto expected_simple = Unwrap(reference_simple.Run());
  TermJoin reference_complex(corpus->db.get(), corpus->index.get(),
                             &predicate, &complex);
  const auto expected_complex = Unwrap(reference_complex.Run());

  // V-only threshold: ignored by the join (the planner's post-pass
  // applies it), full output in document order.
  TermJoinOptions v_only;
  v_only.threshold = algebra::ThresholdSpec{};
  v_only.threshold->min_score = 0.5;
  TermJoin v_join(corpus->db.get(), corpus->index.get(), &predicate, &simple,
                  v_only);
  ExpectIdentical(Unwrap(v_join.Run()), expected_simple, "v-only");
  EXPECT_EQ(v_join.stats().docs_pruned, 0u);
  EXPECT_EQ(v_join.stats().postings_pruned, 0u);

  // Complex scorer: bounds from per-doc counts do not dominate nested
  // proximity scores, so pushdown must stay off.
  TermJoinOptions with_k;
  with_k.threshold = algebra::ThresholdSpec{};
  with_k.threshold->top_k = 3;
  TermJoin complex_join(corpus->db.get(), corpus->index.get(), &predicate,
                        &complex, with_k);
  ExpectIdentical(Unwrap(complex_join.Run()), expected_complex, "complex");
  EXPECT_EQ(complex_join.stats().docs_pruned, 0u);
}

// ------------------------------------- parallel pushdown property sweep

// Satellite property test: over seeded random corpora, for every top_k
// and partition count, the pushdown path reproduces the reference
// pipeline element for element. Runs under TSan via
// scripts/check_sanitizers.sh — the partitions race on the shared floor.
TEST(ParallelPushdownPropertyTest, TwentySeededCorpora) {
  constexpr size_t kInfinity = 1000000000;  // "no K bound in practice"
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto corpus = MakeCorpus(/*articles=*/10, /*seed=*/1000 + seed * 17);
    const algebra::IrPredicate predicate = ThreePhrasePredicate();
    const algebra::WeightedCountScorer scorer(predicate.Weights());
    for (const size_t top_k : {size_t{1}, size_t{3}, size_t{10}, kInfinity}) {
      algebra::ThresholdSpec spec;
      spec.top_k = top_k;
      const std::vector<ScoredElement> expected =
          MaterializeThenThreshold(*corpus, predicate, scorer, spec);
      const std::string label = "seed=" + std::to_string(seed) +
                                "/k=" + std::to_string(top_k);

      TermJoinOptions serial_options;
      serial_options.threshold = spec;
      TermJoin serial(corpus->db.get(), corpus->index.get(), &predicate,
                      &scorer, serial_options);
      ExpectIdentical(Unwrap(serial.Run()), expected, label + "/serial");

      for (const size_t partitions : {1u, 2u, 4u, 8u}) {
        ParallelTermJoinOptions options;
        options.join.threshold = spec;
        options.num_partitions = partitions;
        options.num_threads = 4;
        ParallelTermJoin parallel(corpus->db.get(), corpus->index.get(),
                                  &predicate, &scorer, options);
        ExpectIdentical(Unwrap(parallel.Run()), expected,
                        label + "/p" + std::to_string(partitions));
      }
    }
  }
}

// --------------------------------------------- engine-level equivalence

class EnginePushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    index_ = std::make_unique<index::InvertedIndex>(
        Unwrap(index::InvertedIndex::Build(db_.get())));
  }

  query::QueryOutput Run(std::string_view text, bool pushdown) {
    query::EngineOptions options;
    options.threshold_pushdown = pushdown;
    query::QueryEngine engine(db_.get(), index_.get(), options);
    return Unwrap(engine.ExecuteText(text));
  }

  void ExpectSameResults(std::string_view text) {
    const query::QueryOutput on = Run(text, true);
    const query::QueryOutput off = Run(text, false);
    ASSERT_EQ(on.results.size(), off.results.size()) << text;
    for (size_t i = 0; i < off.results.size(); ++i) {
      EXPECT_EQ(on.results[i].node, off.results[i].node) << text << " @" << i;
      EXPECT_EQ(on.results[i].score, off.results[i].score)
          << text << " @" << i;
    }
    EXPECT_EQ(on.stats.returned, off.stats.returned) << text;
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::InvertedIndex> index_;
};

TEST_F(EnginePushdownTest, ResultsIdenticalWithAndWithoutPushdown) {
  // Eligible: simple scorer, bare //* target (anchor = document root),
  // STOP AFTER.
  ExpectSameResults(R"(
      FOR $a IN document("articles.xml")//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      THRESHOLD STOP AFTER 3
      RETURN $a)");
  // Eligible, V and K combined.
  ExpectSameResults(R"(
      FOR $a IN document("articles.xml")//*
      SCORE $a USING foo({"search engine"}, {"internet"})
      THRESHOLD score > 0.5 STOP AFTER 2
      RETURN $a)");
  // Anchored path: Scope filters to the article subtree after scoring,
  // so the engine must fall back — and still agree.
  ExpectSameResults(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      THRESHOLD STOP AFTER 3
      RETURN $a)");
  // Fallback paths must be byte-compatible too: complex scorer...
  ExpectSameResults(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING complexfoo({"search engine"}, {"internet"})
      THRESHOLD STOP AFTER 5
      RETURN $a)");
  // ...Pick between TermJoin and Threshold...
  ExpectSameResults(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      PICK $a USING pickfoo(0.8, 0.5)
      THRESHOLD STOP AFTER 2
      RETURN $a)");
  // ...named target (Scope filters after scoring)...
  ExpectSameResults(R"(
      FOR $p IN document("articles.xml")//article//p
      SCORE $p USING foo({"search engine"})
      THRESHOLD STOP AFTER 2
      RETURN $p)");
  // ...and V-only thresholds.
  ExpectSameResults(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"})
      THRESHOLD score > 0.2
      RETURN $a)");
}

TEST_F(EnginePushdownTest, ExplainShowsPushdownAndPruneCounters) {
  query::EngineOptions options;
  options.collect_metrics = true;
  query::QueryEngine engine(db_.get(), index_.get(), options);
  const query::QueryOutput output = Unwrap(engine.ExecuteText(R"(
      FOR $a IN document("articles.xml")//*
      SCORE $a USING foo({"search engine"}, {"internet"})
      THRESHOLD STOP AFTER 1
      RETURN $a)"));
  ASSERT_TRUE(output.plan.has_value());
  const std::string rendered = obs::RenderText(*output.plan);
  EXPECT_NE(rendered.find("topk-pushdown(k=1)"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("pushed down"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("dropped_by_heap"), std::string::npos) << rendered;
}

}  // namespace
}  // namespace tix::exec
