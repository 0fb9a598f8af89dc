#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <random>
#include <unordered_set>

#include <gtest/gtest.h>

#include "algebra/pick.h"
#include "algebra/reference_eval.h"
#include "common/string_util.h"
#include "exec/parallel_term_join.h"
#include "exec/pick_operator.h"
#include "exec/segment_merge.h"
#include "exec/threshold_operator.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/similarity_join.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"

namespace tix::query {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// ------------------------------------------------------------------ Lexer

TEST(LexerTest, TokenizesRepresentativeQuery) {
  const auto tokens = Unwrap(Lex(
      R"(FOR $a IN document("articles.xml")//article[@id = "1"]//* RETURN $a)"));
  ASSERT_GT(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  const auto tokens = Unwrap(Lex("for return DOCUMENT"));
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].text, "RETURN");
  EXPECT_EQ(tokens[2].text, "DOCUMENT");
}

TEST(LexerTest, NumbersAndStrings) {
  const auto tokens = Unwrap(Lex("4.5 'single' \"double\" 42"));
  EXPECT_DOUBLE_EQ(tokens[0].number, 4.5);
  EXPECT_EQ(tokens[1].text, "single");
  EXPECT_EQ(tokens[2].text, "double");
  EXPECT_DOUBLE_EQ(tokens[3].number, 42.0);
}

TEST(LexerTest, CommentsIgnored) {
  const auto tokens = Unwrap(Lex("FOR # a comment\n$a"));
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("$").ok());
  EXPECT_FALSE(Lex("%").ok());
}

// ----------------------------------------------------------------- Parser

constexpr char kQuery2Text[] = R"(
  FOR $a IN document("articles.xml")//article[author/sname = "Doe"]//*
  SCORE $a USING foo({"search engine"}, {"internet", "information retrieval"})
  PICK $a USING pickfoo(0.8, 0.5)
  THRESHOLD score > 0.5 STOP AFTER 5
  RETURN $a
)";

TEST(ParserTest, ParsesQuery2) {
  const Query query = Unwrap(ParseQuery(kQuery2Text));
  EXPECT_EQ(query.variable, "a");
  EXPECT_EQ(query.path.document, "articles.xml");
  ASSERT_EQ(query.path.steps.size(), 2u);
  EXPECT_TRUE(query.path.steps[0].descendant);
  EXPECT_EQ(query.path.steps[0].name, "article");
  ASSERT_EQ(query.path.steps[0].predicates.size(), 1u);
  EXPECT_EQ(query.path.steps[0].predicates[0].path,
            (std::vector<std::string>{"author", "sname"}));
  EXPECT_EQ(*query.path.steps[0].predicates[0].value, "Doe");
  EXPECT_EQ(query.path.steps[1].name, "*");

  ASSERT_TRUE(query.score.has_value());
  EXPECT_EQ(query.score->scorer, "foo");
  EXPECT_EQ(query.score->primary,
            (std::vector<std::string>{"search engine"}));
  ASSERT_TRUE(query.pick.has_value());
  EXPECT_DOUBLE_EQ(query.pick->threshold, 0.8);
  ASSERT_TRUE(query.threshold.has_value());
  EXPECT_DOUBLE_EQ(*query.threshold->min_score, 0.5);
  EXPECT_EQ(*query.threshold->top_k, 5u);
}

TEST(ParserTest, AttributePredicate) {
  const Query query = Unwrap(ParseQuery(
      R"(FOR $r IN document("reviews.xml")//review[@id = "1"] RETURN $r)"));
  ASSERT_EQ(query.path.steps.size(), 1u);
  const StepPredicate& predicate = query.path.steps[0].predicates[0];
  EXPECT_TRUE(predicate.path.empty());
  EXPECT_EQ(predicate.attribute, "id");
  EXPECT_EQ(*predicate.value, "1");
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("RETURN $a").ok());
  EXPECT_FALSE(ParseQuery("FOR $a IN document(\"d\") RETURN $a").ok());
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x RETURN $b").ok());
  EXPECT_FALSE(
      ParseQuery(
          "FOR $a IN document(\"d\")//x PICK $a USING pickfoo RETURN $a")
          .ok());  // PICK without SCORE
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x SCORE $a USING bogus({\"t\"}) "
                 "RETURN $a")
          .ok());
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x THRESHOLD RETURN $a").ok());
}

// ----------------------------------------------------------------- Engine

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    index_ = std::make_unique<index::InvertedIndex>(
        Unwrap(index::InvertedIndex::Build(db_.get())));
    engine_ = std::make_unique<QueryEngine>(db_.get(), index_.get());
  }

  std::string TagOf(storage::NodeId node) {
    const storage::NodeRecord record = Unwrap(db_->GetNode(node));
    return db_->TagName(record.tag_id);
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::InvertedIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(EngineTest, BooleanQueryReturnsMatches) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(
      R"(FOR $s IN document("articles.xml")//chapter/section RETURN $s)"));
  EXPECT_EQ(output.results.size(), 3u);
  for (const QueryResultItem& item : output.results) {
    EXPECT_EQ(TagOf(item.node), "section");
  }
}

TEST_F(EngineTest, BooleanQueryWithValuePredicate) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(
      R"(FOR $r IN document("reviews.xml")//review[rating = "5"] RETURN $r)"));
  ASSERT_EQ(output.results.size(), 1u);
  EXPECT_EQ(TagOf(output.results[0].node), "review");
}

TEST_F(EngineTest, Query1StyleScoring) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      THRESHOLD STOP AFTER 3
      RETURN $a)"));
  ASSERT_EQ(output.results.size(), 3u);
  // Scores descend.
  EXPECT_GE(output.results[0].score, output.results[1].score);
  EXPECT_GE(output.results[1].score, output.results[2].score);
  // The top element is the article (contains everything); the runner-up
  // is the search chapter (the paper's target result).
  EXPECT_EQ(TagOf(output.results[0].node), "article");
  EXPECT_EQ(TagOf(output.results[1].node), "chapter");
}

TEST_F(EngineTest, Query2StructurePlusScoring) {
  const QueryOutput query2 = Unwrap(engine_->ExecuteText(kQuery2Text));
  ASSERT_FALSE(query2.results.empty());
  EXPECT_LE(query2.results.size(), 5u);
  for (const QueryResultItem& item : query2.results) {
    EXPECT_GT(item.score, 0.5);
  }
  // With an author that does not exist, the same query is empty.
  const QueryOutput none = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Roe"]//*
      SCORE $a USING foo({"search engine"})
      RETURN $a)"));
  EXPECT_TRUE(none.results.empty());
  EXPECT_EQ(none.stats.anchors, 0u);
}

TEST_F(EngineTest, PickReducesGranularityRedundancy) {
  const QueryOutput unpicked = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      RETURN $a)"));
  const QueryOutput picked = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      PICK $a USING pickfoo(0.8, 0.5)
      RETURN $a)"));
  EXPECT_LT(picked.results.size(), unpicked.results.size());
  ASSERT_FALSE(picked.results.empty());
}

TEST_F(EngineTest, ComplexScorerRuns) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING complexfoo({"search engine"}, {"internet"})
      THRESHOLD STOP AFTER 5
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  for (const QueryResultItem& item : output.results) {
    EXPECT_GT(item.score, 0.0);
  }
}

TEST_F(EngineTest, TfIdfScorerRuns) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING tfidf({"newsinessence"})
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
}

TEST_F(EngineTest, Bm25ScorerRanksShortFocusedElements) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING bm25({"search engine"}, {"internet"})
      THRESHOLD STOP AFTER 3
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  // Length normalization must not rank the whole article first: a
  // focused descendant wins.
  EXPECT_NE(TagOf(output.results[0].node), "article");
}

TEST_F(EngineTest, TopFractionPickUsesHistogram) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      PICK $a USING topfraction(0.3, 0.2)
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  // The histogram-driven criterion picks a granularity without an
  // absolute threshold; results are a strict subset of the unpicked set.
  EXPECT_LT(output.results.size(), 12u);
}

TEST_F(EngineTest, NamedTargetStep) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $p IN document("articles.xml")//article//p
      SCORE $p USING foo({"search engine"})
      RETURN $p)"));
  ASSERT_FALSE(output.results.empty());
  for (const QueryResultItem& item : output.results) {
    EXPECT_EQ(TagOf(item.node), "p");
  }
}

TEST_F(EngineTest, UnknownDocumentIsNotFound) {
  EXPECT_TRUE(engine_->ExecuteText(
                     R"(FOR $a IN document("nope.xml")//a RETURN $a)")
                  .status()
                  .IsNotFound());
}

TEST_F(EngineTest, RenderXmlEmitsResults) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//p
      SCORE $a USING foo({"search engine"})
      THRESHOLD STOP AFTER 1
      RETURN $a)"));
  const std::string xml = Unwrap(engine_->RenderXml(output));
  EXPECT_NE(xml.find("<result>"), std::string::npos);
  EXPECT_NE(xml.find("<score>"), std::string::npos);
  EXPECT_NE(xml.find("<p>"), std::string::npos);
}

// ---------------------------------------------------------- join queries

TEST_F(EngineTest, Query3InTheLanguage) {
  // The paper's Query 3, end to end in the query language: articles by
  // Doe joined with reviews on title similarity, IR-scored, combined
  // with ScoreBar.
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Doe"]
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 1
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      RETURN $a)"));
  // Only review 1 ("Internet Technologies", sim 2) passes SIMSCORE > 1.
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(output.pairs[0].similarity, 2.0);
  // Combined = ScoreBar(2, best component score) > 2.
  EXPECT_GT(output.pairs[0].combined, 2.0);
  EXPECT_EQ(output.results.size(), 1u);
  EXPECT_EQ(output.results[0].node, output.pairs[0].left);
  EXPECT_EQ(TagOf(output.pairs[0].left), "article");
  EXPECT_EQ(TagOf(output.pairs[0].right), "review");
}

TEST_F(EngineTest, JoinWithoutScoreUsesSimilarity) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 0.5
      RETURN $a)"));
  // Both reviews match "Internet Technologies" (sim 2 and 1).
  ASSERT_EQ(output.pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(output.pairs[0].combined, 2.0);
  EXPECT_DOUBLE_EQ(output.pairs[1].combined, 1.0);
}

TEST_F(EngineTest, JoinThresholdAndTopK) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      THRESHOLD score > 0.5 STOP AFTER 1
      RETURN $a)"));
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(output.pairs[0].combined, 2.0);
}

TEST_F(EngineTest, JoinEdgeCases) {
  // Missing key tag: no pairs, no error.
  const QueryOutput no_tag = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/nonexistent WITH $b/title
      RETURN $a)"));
  EXPECT_TRUE(no_tag.pairs.empty());
  // No matching left anchors: empty output.
  const QueryOutput no_anchor = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Roe"]
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      RETURN $a)"));
  EXPECT_TRUE(no_anchor.pairs.empty());
  // Default SIMSCORE threshold is 0: any positive similarity joins.
  const QueryOutput default_threshold = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      RETURN $a)"));
  EXPECT_EQ(default_threshold.pairs.size(), 2u);
}

TEST_F(EngineTest, JoinWithComplexScorer) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 1
      SCORE $a USING complexfoo({"search engine"}, {"internet"})
      RETURN $a)"));
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_GT(output.pairs[0].combined, output.pairs[0].similarity);
}

TEST_F(EngineTest, JoinGrammarErrors) {
  // SIMJOIN without a second FOR.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      SIMJOIN $a/atl WITH $b/title
      RETURN $a)")
                   .ok());
  // Second FOR without SIMJOIN.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      RETURN $a)")
                   .ok());
  // PICK in a join query.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      SCORE $a USING foo({"x"})
      PICK $a USING pickfoo
      RETURN $a)")
                   .ok());
  // Variables in the wrong order.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $b/title WITH $a/article-title
      RETURN $a)")
                   .ok());
}

// -------------------------------------------------------- SimilarityJoin

TEST_F(EngineTest, SimilarityJoinQuery3Shape) {
  // Query 3: join article titles with review titles.
  const auto* articles = db_->ElementsWithTag(db_->LookupTag("article"));
  const auto* reviews = db_->ElementsWithTag(db_->LookupTag("review"));
  ASSERT_NE(articles, nullptr);
  ASSERT_NE(reviews, nullptr);
  const auto titles = Unwrap(
      FirstDescendantWithTag(db_.get(), *articles, "article-title"));
  const auto review_titles =
      Unwrap(FirstDescendantWithTag(db_.get(), *reviews, "title"));
  ASSERT_EQ(titles.size(), 1u);
  ASSERT_EQ(review_titles.size(), 2u);

  SimilarityJoinOptions options;
  options.min_similarity = 1.0;  // Query 3's "Threshold simScore > 1"
  const auto pairs = Unwrap(SimilarityJoin(db_.get(), titles,
                                           review_titles, options));
  // "Internet Technologies" vs "Internet Technologies" (sim 2) survives;
  // vs "WWW Technologies" (sim 1) does not (> 1 strict).
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 2.0);
  EXPECT_EQ(pairs[0].right, review_titles[0]);
}

TEST_F(EngineTest, FirstDescendantWithTagMissing) {
  const auto* articles = db_->ElementsWithTag(db_->LookupTag("article"));
  const auto missing =
      Unwrap(FirstDescendantWithTag(db_.get(), *articles, "nonexistent"));
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], storage::kInvalidNodeId);
}

// ------------------------------------------ workload-corpus differentials

/// A small workload corpus (16 articles plus a reviews document) with a
/// monolithic index and a multi-segment snapshot of the same documents.
struct WorkloadCorpus {
  TempDir dir;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<index::InvertedIndex> index;
  std::unique_ptr<index::SegmentedIndex> segmented;
  std::shared_ptr<const index::IndexSnapshot> snapshot;
};

std::unique_ptr<WorkloadCorpus> MakeWorkloadCorpus() {
  auto corpus = std::make_unique<WorkloadCorpus>();
  corpus->db = MakeTestDatabase(corpus->dir.path());
  workload::CorpusOptions options;
  options.num_articles = 16;
  options.vocabulary_size = 300;
  options.planted_terms = {{"xq1", 140}, {"xq2", 60}};
  options.planted_phrases = {{"xpa", "xpb", 70, 60, 30}};
  options.generate_reviews = true;
  options.num_reviews = 10;
  Unwrap(workload::GenerateCorpus(corpus->db.get(), options));
  corpus->index = std::make_unique<index::InvertedIndex>(
      Unwrap(index::InvertedIndex::Build(corpus->db.get())));
  const std::string segment_dir = corpus->dir.path() + "/segments";
  std::filesystem::create_directories(segment_dir);
  index::SegmentedIndexOptions segment_options;
  segment_options.seal_doc_count = 5;  // several segments
  corpus->segmented =
      Unwrap(index::SegmentedIndex::Open(segment_dir, segment_options));
  for (storage::DocId doc = 0; doc < corpus->db->documents().size(); ++doc) {
    ExpectOk(corpus->segmented->Ingest(corpus->db.get(), doc));
  }
  ExpectOk(corpus->segmented->Seal(corpus->db.get()));
  corpus->snapshot = corpus->segmented->Acquire();
  return corpus;
}

constexpr const char* kScorerNames[] = {"foo", "tfidf", "complexfoo", "bm25"};

/// Seeded 1-3 phrase score clause over planted terms, the planted phrase
/// and frequent background words, split into primary and desirable
/// phrases the way the benchmark's generators split them.
struct Clause {
  std::vector<std::string> primary;
  std::vector<std::string> desirable;

  std::string Text(const std::string& scorer) const {
    auto list = [](const std::vector<std::string>& phrases) {
      std::string out = "{";
      for (size_t i = 0; i < phrases.size(); ++i) {
        out += (i > 0 ? ", \"" : "\"") + phrases[i] + "\"";
      }
      return out + "}";
    };
    std::string out = scorer + "(" + list(primary);
    if (!desirable.empty()) out += ", " + list(desirable);
    return out + ")";
  }
};

Clause DrawClause(std::mt19937_64* rng) {
  std::vector<std::string> pool = {"xq1", "xq2", "xpa xpb",
                                   workload::VocabWord(1),
                                   workload::VocabWord(6)};
  std::shuffle(pool.begin(), pool.end(), *rng);
  const size_t count = 1 + (*rng)() % 3;
  const size_t split = (count + 1) / 2;
  return Clause{{pool.begin(), pool.begin() + split},
                {pool.begin() + split, pool.begin() + count}};
}

/// The scorer the engine builds for `name`: IDF per phrase is the
/// largest term IDF, bm25's average span is words per node.
std::unique_ptr<algebra::Scorer> MakeEngineScorer(
    const std::string& name, const algebra::IrPredicate& predicate,
    const WorkloadCorpus& corpus) {
  std::vector<double> idf;
  for (const algebra::WeightedPhrase& phrase : predicate.phrases) {
    double value = 0.0;
    for (const std::string& term : phrase.terms) {
      value = std::max(value, corpus.index->InverseDocumentFrequency(term));
    }
    idf.push_back(value);
  }
  if (name == "complexfoo") {
    return std::make_unique<algebra::ComplexProximityScorer>(
        predicate.Weights());
  }
  if (name == "tfidf") {
    return std::make_unique<algebra::TfIdfScorer>(predicate.Weights(), idf);
  }
  if (name == "bm25") {
    uint64_t words = 0;
    for (const storage::DocumentInfo& info : corpus.db->documents()) {
      words += info.word_count;
    }
    return std::make_unique<algebra::LengthNormalizedScorer>(
        predicate.Weights(), idf,
        static_cast<double>(words) /
            static_cast<double>(corpus.db->num_nodes()));
  }
  return std::make_unique<algebra::WeightedCountScorer>(predicate.Weights());
}

// The serving engine always runs the Enhanced TermJoin. This sweep is
// its proof against the plain (record-navigating) TermJoin: same
// elements in the same order, same counts, bit-identical scores, for
// every scorer, whole-corpus and single-document ranges, and both the
// monolithic and the segmented join the engine dispatches to.
TEST(TermJoinDifferentialTest, EnhancedEqualsPlainOnWorkloadCorpus) {
  auto corpus = MakeWorkloadCorpus();
  std::mt19937_64 rng(2003);
  for (int round = 0; round < 4; ++round) {
    const Clause clause = DrawClause(&rng);
    const algebra::IrPredicate predicate =
        algebra::IrPredicate::FooStyle(clause.primary, clause.desirable);
    const storage::DocId doc =
        static_cast<storage::DocId>(rng() % corpus->db->documents().size());
    for (const char* name : kScorerNames) {
      const auto scorer = MakeEngineScorer(name, predicate, *corpus);
      for (const exec::DocRange range :
           {exec::DocRange{}, exec::DocRange{doc, doc + 1}}) {
        for (const bool segmented : {false, true}) {
          auto run = [&](bool enhanced) {
            exec::ParallelTermJoinOptions options;
            options.join.enhanced = enhanced;
            options.join.range = range;
            if (segmented) {
              exec::SegmentedTermJoin join(corpus->db.get(),
                                           corpus->snapshot.get(), &predicate,
                                           scorer.get(), options);
              return Unwrap(join.Run());
            }
            exec::ParallelTermJoin join(corpus->db.get(), corpus->index.get(),
                                        &predicate, scorer.get(), options);
            return Unwrap(join.Run());
          };
          const std::string label =
              clause.Text(name) + (range.IsAll() ? " corpus" : " doc") +
              (segmented ? " segmented" : " monolithic");
          const std::vector<exec::ScoredElement> plain = run(false);
          const std::vector<exec::ScoredElement> enhanced = run(true);
          if (range.IsAll()) {
            EXPECT_FALSE(plain.empty()) << label;
          }
          ASSERT_EQ(enhanced.size(), plain.size()) << label;
          for (size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(enhanced[i].node, plain[i].node) << label << " @" << i;
            EXPECT_EQ(enhanced[i].counts, plain[i].counts)
                << label << " @" << i;
            EXPECT_EQ(std::bit_cast<uint64_t>(enhanced[i].score),
                      std::bit_cast<uint64_t>(plain[i].score))
                << label << " @" << i;
          }
        }
      }
    }
  }
}

/// One FOR path of the engine sweep and what its oracle needs to know:
/// the anchor tag, reached on the child axis from `anchor_parent` when
/// that is set, with an optional child-path value predicate; and the
/// target step.
struct SweepPath {
  std::string text;
  std::string anchor;
  std::string anchor_parent;
  std::vector<std::string> predicate_path;
  std::string predicate_value;
  std::string target;  // "*" or a tag
  bool child_axis = false;
};

/// True when a child path `path[i..]` below `id` ends in an element whose
/// trimmed text is `value`. Navigates stored records, not the in-memory
/// index the engine reads.
bool HasChildPathWithText(storage::Database* db, storage::NodeId id,
                          const std::vector<std::string>& path, size_t i,
                          const std::string& value) {
  if (i == path.size()) {
    return std::string(Trim(Unwrap(db->AllTextOf(id)))) == value;
  }
  for (const storage::NodeId child : Unwrap(db->ChildrenOf(id))) {
    const storage::NodeRecord record = Unwrap(db->GetNode(child));
    if (record.is_element() && db->TagName(record.tag_id) == path[i] &&
        HasChildPathWithText(db, child, path, i + 1, value)) {
      return true;
    }
  }
  return false;
}

/// Oracle for one path in one scope (`doc`, or UINT32_MAX for all):
/// anchors found by navigating stored records, and a test of whether an
/// element is a target. Scored queries scope `*` targets
/// descendant-or-self (the ad* edge); boolean queries match the full
/// pattern, whose `*` step is a strict descendant.
struct PathOracle {
  std::vector<storage::NodeRecord> anchors;
  std::vector<storage::NodeId> anchor_ids;

  PathOracle(storage::Database* db, const SweepPath& path,
             storage::DocId doc) {
    for (storage::NodeId id = 0; id < db->num_nodes(); ++id) {
      const storage::NodeRecord record = Unwrap(db->GetNode(id));
      if (!record.is_element() ||
          (doc != UINT32_MAX && record.doc_id != doc) ||
          db->TagName(record.tag_id) != path.anchor) {
        continue;
      }
      if (!path.anchor_parent.empty()) {
        if (record.parent == storage::kInvalidNodeId) continue;
        const storage::NodeRecord parent = Unwrap(db->GetNode(record.parent));
        if (db->TagName(parent.tag_id) != path.anchor_parent) continue;
      }
      if (!path.predicate_path.empty() &&
          !HasChildPathWithText(db, id, path.predicate_path, 0,
                                path.predicate_value)) {
        continue;
      }
      anchors.push_back(record);
      anchor_ids.push_back(id);
    }
  }

  bool IsTarget(storage::Database* db, const SweepPath& path,
                const storage::NodeRecord& record, bool scored) const {
    if (!record.is_element()) return false;
    if (path.target != "*" && db->TagName(record.tag_id) != path.target) {
      return false;
    }
    for (size_t a = 0; a < anchors.size(); ++a) {
      bool related = false;
      if (path.child_axis) {
        related = record.parent == anchor_ids[a];
      } else if (path.target == "*" && scored) {
        related = anchors[a].ContainsOrSelf(record);
      } else {
        related = anchors[a].Contains(record);
      }
      if (related) return true;
    }
    return false;
  }
};

// The engine answers navigation from the in-memory node index. Its
// oracle navigates stored records instead. Scored queries must return
// every element ReferenceScoreAllElements scores that an anchor scopes
// in; boolean queries every element the path reaches.
TEST(EngineOracleTest, SelectQueriesMatchReferenceScoring) {
  auto corpus = MakeWorkloadCorpus();
  storage::Database* db = corpus->db.get();
  const std::vector<SweepPath> paths = {
      {"//article//*", "article", "", {}, "", "*", false},
      {"//sec//*", "sec", "", {}, "", "*", false},
      {"//article//p", "article", "", {}, "", "p", false},
      {"//article/sec", "article", "", {}, "", "sec", true},
      {"//bdy/sec", "bdy", "", {}, "", "sec", true},
      {"//article/sec//*", "sec", "article", {}, "", "*", false},
      {"//bdy/sec//p", "sec", "bdy", {}, "", "p", false},
      {R"(//article[fm/au/snm = "doe"]//*)", "article", "",
       {"fm", "au", "snm"}, "doe", "*", false},
  };
  std::mt19937_64 rng(1701);
  QueryEngine engine(db, corpus->index.get());
  auto sorted_results = [&](const std::string& text) {
    QueryOutput output = Unwrap(engine.ExecuteText(text));
    std::sort(output.results.begin(), output.results.end(),
              [](const QueryResultItem& a, const QueryResultItem& b) {
                return a.node < b.node;
              });
    return output;
  };
  for (int round = 0; round < 2; ++round) {
    const Clause clause = DrawClause(&rng);
    const algebra::IrPredicate predicate =
        algebra::IrPredicate::FooStyle(clause.primary, clause.desirable);
    const std::string doc_name =
        "article" + std::to_string(rng() % 16) + ".xml";
    for (const std::string& document : {doc_name, std::string("*")}) {
      const storage::DocId doc =
          document == "*" ? UINT32_MAX
                          : Unwrap(db->GetDocumentByName(document)).doc_id;
      const std::string prefix = "FOR $a IN document(\"" + document + "\")";
      std::vector<PathOracle> oracles;
      for (const SweepPath& path : paths) {
        oracles.emplace_back(db, path, doc);
        if (round > 0) continue;
        // Boolean query: the full pattern, every target it reaches.
        const std::string text = prefix + path.text + " RETURN $a";
        std::vector<storage::NodeId> expected;
        for (storage::NodeId id = 0; id < db->num_nodes(); ++id) {
          if (oracles.back().IsTarget(db, path, Unwrap(db->GetNode(id)),
                                      /*scored=*/false)) {
            expected.push_back(id);
          }
        }
        const QueryOutput output = sorted_results(text);
        ASSERT_EQ(output.results.size(), expected.size()) << text;
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(output.results[i].node, expected[i]) << text;
        }
      }
      for (const char* name : kScorerNames) {
        const auto scorer = MakeEngineScorer(name, predicate, *corpus);
        const std::vector<algebra::ScoredNodeResult> reference =
            Unwrap(algebra::ReferenceScoreAllElements(db, predicate, *scorer,
                                                      doc));
        for (size_t p = 0; p < paths.size(); ++p) {
          std::vector<QueryResultItem> expected;
          for (const algebra::ScoredNodeResult& result : reference) {
            if (oracles[p].IsTarget(db, paths[p],
                                    Unwrap(db->GetNode(result.node)),
                                    /*scored=*/true)) {
              expected.push_back(QueryResultItem{result.node, result.score});
            }
          }
          const std::string text = prefix + paths[p].text +
                                   " SCORE $a USING " + clause.Text(name) +
                                   " RETURN $a";
          const QueryOutput output = sorted_results(text);
          EXPECT_EQ(output.stats.anchors, oracles[p].anchors.size()) << text;
          ASSERT_EQ(output.results.size(), expected.size()) << text;
          for (size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(output.results[i].node, expected[i].node) << text;
            EXPECT_NEAR(output.results[i].score, expected[i].score, 1e-9)
                << text;
          }
        }
      }
    }
  }
}

/// The plain per-anchor Pick loop, the oracle: for every anchor it scans
/// all of `scored` for the anchor itself and for its descendants.
std::unordered_set<storage::NodeId> NestedLoopPick(
    const std::vector<exec::ScoredElement>& scored,
    const std::vector<exec::ScoredElement>& anchors,
    const algebra::PickCriterion& criterion) {
  std::unordered_set<storage::NodeId> picked_set;
  for (const exec::ScoredElement& anchor : anchors) {
    std::vector<exec::PickEntry> entries;
    std::vector<const exec::ScoredElement*> stack;
    exec::ScoredElement anchor_entry = anchor;
    for (const exec::ScoredElement& element : scored) {
      if (element.node == anchor.node) anchor_entry = element;
    }
    entries.push_back(
        exec::PickEntry{anchor_entry.node, 0, anchor_entry.score});
    stack.push_back(&anchor_entry);
    for (const exec::ScoredElement& element : scored) {
      if (element.node == anchor.node) continue;
      if (!(element.doc == anchor.doc && element.start > anchor.start &&
            element.end < anchor.end)) {
        continue;
      }
      while (!(element.start > stack.back()->start &&
               element.end < stack.back()->end)) {
        stack.pop_back();
      }
      entries.push_back(exec::PickEntry{
          element.node, static_cast<uint16_t>(stack.size()), element.score});
      stack.push_back(&element);
    }
    exec::PickOperator pick(&criterion);
    const std::vector<storage::NodeId> picked = Unwrap(pick.Run(entries));
    picked_set.insert(picked.begin(), picked.end());
  }
  return picked_set;
}

// Pick finds each anchor's elements by binary search over the
// document-ordered scored set. Corpus-wide queries give it many anchors
// per document; the picked top-K must equal the nested loop's.
TEST(EnginePickTest, AnchorRunsMatchNestedLoop) {
  auto corpus = MakeWorkloadCorpus();
  storage::Database* db = corpus->db.get();
  QueryEngine engine(db, corpus->index.get());
  auto element_of = [&](storage::NodeId node, double score) {
    exec::ScoredElement element;
    const storage::NodeRecord record = Unwrap(db->GetNode(node));
    element.node = node;
    element.doc = record.doc_id;
    element.start = record.start;
    element.end = record.end;
    element.level = record.level;
    element.score = score;
    return element;
  };
  std::mt19937_64 rng(31);
  for (int i = 0; i < 24; ++i) {
    const std::string scorer = i % 2 == 0 ? "complexfoo" : "bm25";
    const std::string criterion =
        std::vector<std::string>{"pickfoo", "parity", "topfraction"}[i % 3];
    const std::string anchor_tag = (i / 3) % 2 == 0 ? "article" : "sec";
    const double threshold = static_cast<double>(10 + rng() % 17 * 5) / 100;
    const double fraction = static_cast<double>(10 + rng() % 17 * 5) / 100;
    const size_t k = std::vector<size_t>{5, 10, 20}[rng() % 3];
    const Clause clause = DrawClause(&rng);
    const std::string prefix = "FOR $a IN document(\"*\")//" + anchor_tag +
                               "//* SCORE $a USING " + clause.Text(scorer);
    const std::string text =
        prefix + StrFormat(" PICK $a USING %s(%.2f, %.2f)", criterion.c_str(),
                           threshold, fraction) +
        StrFormat(" THRESHOLD STOP AFTER %zu RETURN $a", k);
    const QueryOutput picked = Unwrap(engine.ExecuteText(text));

    // Oracle inputs: the scoped scored elements and the anchors, both
    // in document order.
    std::vector<exec::ScoredElement> scored;
    for (const QueryResultItem& item :
         Unwrap(engine.ExecuteText(prefix + " RETURN $a")).results) {
      scored.push_back(element_of(item.node, item.score));
    }
    std::sort(scored.begin(), scored.end(), exec::DocumentOrderLess);
    std::vector<exec::ScoredElement> anchors;
    for (const QueryResultItem& item :
         Unwrap(engine.ExecuteText("FOR $a IN document(\"*\")//" +
                                   anchor_tag + " RETURN $a"))
             .results) {
      anchors.push_back(element_of(item.node, 0.0));
    }
    std::sort(anchors.begin(), anchors.end(), exec::DocumentOrderLess);
    ASSERT_GE(anchors.size(), 16u) << text;

    std::unique_ptr<algebra::PickCriterion> pick_criterion;
    if (criterion == "parity") {
      pick_criterion = std::make_unique<algebra::LevelParityPickCriterion>(
          threshold, fraction);
    } else if (criterion == "topfraction") {
      std::vector<double> scores;
      for (const exec::ScoredElement& element : scored) {
        scores.push_back(element.score);
      }
      pick_criterion = std::make_unique<algebra::QuantilePickCriterion>(
          algebra::ScoreHistogram(scores), threshold, fraction);
    } else {
      pick_criterion =
          std::make_unique<algebra::PickFooCriterion>(threshold, fraction);
    }
    const std::unordered_set<storage::NodeId> picked_set =
        NestedLoopPick(scored, anchors, *pick_criterion);
    algebra::ThresholdSpec spec;
    spec.top_k = k;
    exec::ThresholdOperator top_k(spec);
    size_t picked_count = 0;
    for (const exec::ScoredElement& element : scored) {
      if (picked_set.count(element.node) == 0) continue;
      ++picked_count;
      top_k.Push(element);
    }
    const std::vector<exec::ScoredElement> expected = top_k.Finish();

    EXPECT_EQ(picked.stats.picked, picked_count) << text;
    ASSERT_EQ(picked.results.size(), expected.size()) << text;
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(picked.results[r].node, expected[r].node) << text;
      EXPECT_EQ(picked.results[r].score, expected[r].score) << text;
    }
  }
}

}  // namespace
}  // namespace tix::query
