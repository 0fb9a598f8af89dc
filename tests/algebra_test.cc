#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "algebra/pattern_tree.h"
#include "algebra/pick.h"
#include "algebra/reference_eval.h"
#include "algebra/scored_tree.h"
#include "algebra/scoring.h"
#include "algebra/threshold.h"
#include "algebra/tree_render.h"
#include "tests/test_util.h"
#include "workload/paper_example.h"

namespace tix::algebra {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// ---------------------------------------------------------------- Scoring

TEST(ScoringTest, FooStylepredicateWeights) {
  const IrPredicate predicate = IrPredicate::FooStyle(
      {"search engine"}, {"internet", "information retrieval"});
  ASSERT_EQ(predicate.num_phrases(), 3u);
  EXPECT_EQ(predicate.phrases[0].terms,
            (std::vector<std::string>{"search", "engine"}));
  EXPECT_DOUBLE_EQ(predicate.phrases[0].weight, 0.8);
  EXPECT_EQ(predicate.phrases[1].terms, (std::vector<std::string>{"internet"}));
  EXPECT_DOUBLE_EQ(predicate.phrases[1].weight, 0.6);
  EXPECT_EQ(predicate.Weights(), (std::vector<double>{0.8, 0.6, 0.6}));
}

TEST(ScoringTest, WeightedCountScorerIsScoreFoo) {
  WeightedCountScorer scorer({0.8, 0.6, 0.6});
  const uint32_t counts[] = {1, 0, 0};
  EXPECT_DOUBLE_EQ(scorer.Score(counts), 0.8);
  const uint32_t counts2[] = {2, 1, 3};
  EXPECT_DOUBLE_EQ(scorer.Score(counts2), 2 * 0.8 + 0.6 + 3 * 0.6);
  EXPECT_FALSE(scorer.is_complex());
}

TEST(ScoringTest, TfIdfScorerUsesLogTf) {
  TfIdfScorer scorer({1.0, 1.0}, {2.0, 0.5});
  const uint32_t counts[] = {1, 0};
  EXPECT_DOUBLE_EQ(scorer.Score(counts), 2.0);  // (1+log 1) * 2
  const uint32_t counts2[] = {0, 4};
  EXPECT_NEAR(scorer.Score(counts2), (1.0 + std::log(4.0)) * 0.5, 1e-12);
}

TEST(ScoringTest, ComplexScorerBoostsProximity) {
  ComplexProximityScorer scorer({1.0, 1.0});
  EXPECT_TRUE(scorer.is_complex());
  const uint32_t counts[] = {1, 1};

  // Two occurrences of different phrases, adjacent in one text node.
  const TermOccurrence near_pair[] = {{0, 100, 5}, {1, 101, 5}};
  ScoreContext near_context;
  near_context.counts = counts;
  near_context.occurrences = near_pair;

  const TermOccurrence far_pair[] = {{0, 100, 5}, {1, 900, 5}};
  ScoreContext far_context;
  far_context.counts = counts;
  far_context.occurrences = far_pair;

  EXPECT_GT(scorer.ScoreComplex(near_context),
            scorer.ScoreComplex(far_context));
  // Both at least the base (proximity multiplies by >= 1).
  EXPECT_GE(scorer.ScoreComplex(far_context), 2.0);
}

TEST(ScoringTest, ComplexScorerChildRatio) {
  ComplexProximityScorer scorer({1.0});
  const uint32_t counts[] = {2};
  const TermOccurrence occurrences[] = {{0, 10, 3}, {0, 11, 3}};
  ScoreContext focused;
  focused.counts = counts;
  focused.occurrences = occurrences;
  focused.total_children = 4;
  focused.relevant_children = 4;
  ScoreContext diluted = focused;
  diluted.relevant_children = 1;
  EXPECT_GT(scorer.ScoreComplex(focused), scorer.ScoreComplex(diluted));
  EXPECT_NEAR(scorer.ScoreComplex(focused) / 4.0,
              scorer.ScoreComplex(diluted), 1e-12);
}

TEST(ScoringTest, ComplexScorerZeroBaseStaysZero) {
  ComplexProximityScorer scorer({1.0});
  const uint32_t counts[] = {0};
  ScoreContext context;
  context.counts = counts;
  context.total_children = 3;
  EXPECT_DOUBLE_EQ(scorer.ScoreComplex(context), 0.0);
}

TEST(ScoringTest, LengthNormalizedScorerPenalizesLongElements) {
  LengthNormalizedScorer scorer({1.0}, {1.0}, /*average_element_span=*/50.0);
  EXPECT_TRUE(scorer.is_complex());
  const uint32_t counts[] = {3};
  ScoreContext short_element;
  short_element.counts = counts;
  short_element.element_start = 0;
  short_element.element_end = 20;
  ScoreContext long_element;
  long_element.counts = counts;
  long_element.element_start = 0;
  long_element.element_end = 500;
  EXPECT_GT(scorer.ScoreComplex(short_element),
            scorer.ScoreComplex(long_element));
  // Saturation: 100 occurrences score less than 100x one occurrence.
  const uint32_t one[] = {1};
  const uint32_t many[] = {100};
  ScoreContext base = short_element;
  base.counts = one;
  ScoreContext heavy = short_element;
  heavy.counts = many;
  EXPECT_LT(scorer.ScoreComplex(heavy),
            100.0 * scorer.ScoreComplex(base));
  EXPECT_GT(scorer.ScoreComplex(heavy), scorer.ScoreComplex(base));
}

TEST(ScoringTest, LengthNormalizedScorerFallbackWithoutSpan) {
  LengthNormalizedScorer scorer({1.0}, {2.0}, 50.0);
  const uint32_t counts[] = {2};
  // Simple path assumes average length; must be finite and positive.
  EXPECT_GT(scorer.Score(counts), 0.0);
  const uint32_t zero[] = {0};
  EXPECT_DOUBLE_EQ(scorer.Score(zero), 0.0);
}

TEST(ScoringTest, ScoreSimCountsCommonWords) {
  const std::string a[] = {"internet", "technologies"};
  const std::string b[] = {"internet", "technologies"};
  EXPECT_DOUBLE_EQ(ScoreSim(a, b), 2.0);
  const std::string c[] = {"www", "technologies"};
  EXPECT_DOUBLE_EQ(ScoreSim(a, c), 1.0);
  const std::string d[] = {"unrelated"};
  EXPECT_DOUBLE_EQ(ScoreSim(a, d), 0.0);
  // Multiset semantics: repeated words only match as often as they occur.
  const std::string e[] = {"x", "x"};
  const std::string f[] = {"x"};
  EXPECT_DOUBLE_EQ(ScoreSim(e, f), 1.0);
}

TEST(ScoringTest, ScoreBarGatesOnIrScore) {
  EXPECT_DOUBLE_EQ(ScoreBar(2.0, 0.8), 2.8);
  EXPECT_DOUBLE_EQ(ScoreBar(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ScoreBar(0.0, 1.0), 1.0);
}

// -------------------------------------------------------------- Threshold

TEST(ThresholdTest, MinScoreFilters) {
  const std::vector<double> scores = {0.5, 2.0, 1.0, 3.0};
  ThresholdSpec spec;
  spec.min_score = 0.9;
  const auto kept =
      ApplyThreshold(scores.size(), [&](size_t i) { return scores[i]; }, spec);
  EXPECT_EQ(kept, (std::vector<size_t>{3, 1, 2}));
}

TEST(ThresholdTest, TopKKeepsBest) {
  const std::vector<double> scores = {0.5, 2.0, 1.0, 3.0, 2.5};
  ThresholdSpec spec;
  spec.top_k = 2;
  const auto kept =
      ApplyThreshold(scores.size(), [&](size_t i) { return scores[i]; }, spec);
  EXPECT_EQ(kept, (std::vector<size_t>{3, 4}));
}

TEST(ThresholdTest, NoOpSpecKeepsEverythingSorted) {
  const std::vector<double> scores = {1.0, 1.0, 0.5};
  ThresholdSpec spec;
  EXPECT_TRUE(spec.IsNoOp());
  const auto kept =
      ApplyThreshold(scores.size(), [&](size_t i) { return scores[i]; }, spec);
  EXPECT_EQ(kept, (std::vector<size_t>{0, 1, 2}));  // stable on ties
}

// ------------------------------------------------------------------ Pick

/// Builds the scored tree of Figure 6 (projection result of Query 2):
/// article[5.6]{ article-title[0.6], chapter[5.0]{ section[0.8]{st[0.8]},
/// section[0.6]{st2[0.6]}, section[3.6]{p[0.8],p[1.4],p[1.4]} } }.
ScoredTree Figure6Tree() {
  auto root = std::make_unique<ScoredTreeNode>(1);  // article
  root->set_score(5.6);
  ScoredTreeNode* title = root->AddChild(2);
  title->set_score(0.6);
  ScoredTreeNode* chapter = root->AddChild(10);
  chapter->set_score(5.0);
  ScoredTreeNode* section1 = chapter->AddChild(12);
  section1->set_score(0.8);
  section1->AddChild(13)->set_score(0.8);
  ScoredTreeNode* section2 = chapter->AddChild(14);
  section2->set_score(0.6);
  section2->AddChild(15)->set_score(0.6);
  ScoredTreeNode* section3 = chapter->AddChild(16);
  section3->set_score(3.6);
  section3->AddChild(18)->set_score(0.8);
  section3->AddChild(19)->set_score(1.4);
  section3->AddChild(20)->set_score(1.4);
  return ScoredTree(std::move(root));
}

TEST(PickTest, PickFooDetWorth) {
  PickFooCriterion criterion;  // threshold 0.8, fraction 0.5
  PickNodeInfo info;
  info.total_children = 3;
  info.relevant_children = 2;
  EXPECT_TRUE(criterion.DetWorth(info));  // 2/3 > 50%
  info.relevant_children = 1;
  EXPECT_FALSE(criterion.DetWorth(info));
  info.total_children = 0;
  EXPECT_FALSE(criterion.DetWorth(info));
}

TEST(PickTest, ReferencePickOnFigure6MatchesFigure8) {
  // With PickFoo semantics: article (1 of 3 children relevant: chapter
  // 5.0 >= .8, title 0.6 < .8 ... chapter relevant only => 1/3 < 50% not
  // worth). chapter: children sections scored {0.8, 0.6, 3.6}: two of
  // three >= 0.8 => worth, picked. section3: children {0.8,1.4,1.4} all
  // relevant => worth, but parent chapter picked => suppressed
  // (parent/child redundancy). section1: child st 0.8 relevant => worth
  // (1/1), parent chapter picked => suppressed.
  const ScoredTree tree = Figure6Tree();
  PickFooCriterion criterion;
  const auto picked = ReferencePick(tree, criterion);
  EXPECT_EQ(picked, (std::vector<storage::NodeId>{10}));
}

TEST(PickTest, SuppressionOnlyAppliesToDirectParent) {
  // grandparent picked, parent not worth -> grandchild pickable.
  auto root = std::make_unique<ScoredTreeNode>(1);
  ScoredTreeNode* a = root->AddChild(2);
  a->set_score(1.0);
  ScoredTreeNode* b = root->AddChild(3);
  b->set_score(1.0);
  ScoredTreeNode* c = a->AddChild(4);
  c->set_score(0.1);
  ScoredTreeNode* d = c->AddChild(5);
  d->set_score(1.0);
  d->AddChild(6)->set_score(1.0);
  // root: 2/2 children relevant -> picked.
  // a: children {0.1} -> not worth. c: child {1.0} -> worth; parent a not
  // picked, grandparent root picked but IsSameClass(default) only
  // matches the direct parent level... c's level is 2, root level 0 ->
  // not suppressed -> picked. d: worth (child 1.0), parent c picked ->
  // suppressed.
  ScoredTree tree(std::move(root));
  PickFooCriterion criterion;
  const auto picked = ReferencePick(tree, criterion);
  EXPECT_EQ(picked, (std::vector<storage::NodeId>{1, 4}));
}

TEST(PickTest, LevelParityClassSuppressesAcrossLevels) {
  auto root = std::make_unique<ScoredTreeNode>(1);
  ScoredTreeNode* a = root->AddChild(2);
  a->set_score(1.0);
  ScoredTreeNode* b = root->AddChild(3);
  b->set_score(1.0);
  ScoredTreeNode* c = a->AddChild(4);
  c->set_score(0.1);
  ScoredTreeNode* d = c->AddChild(5);
  d->set_score(1.0);
  d->AddChild(6)->set_score(1.0);
  ScoredTree tree(std::move(root));
  // With parity classes, node 4 (level 2) shares root's class (level 0)
  // and is suppressed; node 5 (level 3, odd parity) is NOT suppressed by
  // the even-level root, so it is picked.
  LevelParityPickCriterion criterion;
  const auto picked = ReferencePick(tree, criterion);
  EXPECT_EQ(picked, (std::vector<storage::NodeId>{1, 5}));
}

TEST(ScoreHistogramTest, ThresholdForTopFraction) {
  std::vector<double> scores;
  for (int i = 1; i <= 100; ++i) scores.push_back(i);
  ScoreHistogram histogram(scores, 100);
  EXPECT_EQ(histogram.total(), 100u);
  const double t10 = histogram.ThresholdForTopFraction(0.10);
  EXPECT_GE(histogram.CountAbove(t10), 10u);
  EXPECT_LE(histogram.CountAbove(t10), 13u);
  EXPECT_EQ(histogram.CountAbove(histogram.min_score()), 100u);
}

TEST(PickTest, QuantileCriterionDerivesThresholdFromHistogram) {
  // Scores 1..100: the top-20% threshold lands around 80, so a node
  // with children scored {85, 90} is worth returning while one with
  // children {10, 20} is not — without the user naming "80".
  std::vector<double> scores;
  for (int i = 1; i <= 100; ++i) scores.push_back(i);
  const ScoreHistogram histogram(scores, 100);
  const QuantilePickCriterion criterion(histogram, 0.2, 0.5);
  EXPECT_NEAR(criterion.relevance_threshold(), 80.0, 3.0);
  PickNodeInfo hot;
  hot.total_children = 2;
  hot.relevant_children = 2;
  EXPECT_TRUE(criterion.DetWorth(hot));
}

TEST(ScoreHistogramTest, EmptyAndConstantInputs) {
  ScoreHistogram empty({});
  EXPECT_EQ(empty.total(), 0u);
  EXPECT_EQ(empty.CountAbove(1.0), 0u);
  ScoreHistogram constant({2.0, 2.0, 2.0});
  EXPECT_EQ(constant.total(), 3u);
  EXPECT_EQ(constant.CountAbove(2.0), 3u);
}

// --------------------------------------------------- Pattern + reference

class ReferenceEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
  }

  /// The scored pattern tree of Figure 3 (Query 2): article with
  /// author/sname = "Doe" and an ad* IR node scored by ScoreFoo.
  ScoredPatternTree Query2Pattern() {
    ScoredPatternTree pattern;
    PatternNode* article = pattern.CreateRoot(1);
    article->set_tag("article");
    article->set_secondary_score(SecondaryScore{4, SecondaryScore::Aggregate::kMax});
    PatternNode* author = article->AddChild(2, Axis::kDescendant);
    author->set_tag("author");
    PatternNode* sname = author->AddChild(3, Axis::kChild);
    sname->set_tag("sname");
    sname->AddPredicate(
        Predicate{Predicate::Kind::kContentEquals, "", "Doe"});
    PatternNode* unit = article->AddChild(4, Axis::kDescendantOrSelf);
    unit->set_ir(IrPredicate::FooStyle(
                     {"search engine"}, {"internet", "information retrieval"}),
                 std::make_shared<WeightedCountScorer>(
                     std::vector<double>{0.8, 0.6, 0.6}));
    return pattern;
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
};

TEST_F(ReferenceEvalTest, ScanSubtreeCountsPhrases) {
  const IrPredicate predicate = IrPredicate::FooStyle(
      {"search engine"}, {"internet", "information retrieval"});
  const storage::NodeId article_root = db_->documents()[0].root;
  const auto occurrences =
      Unwrap(ScanSubtreeOccurrences(db_.get(), article_root, predicate));
  // "search engine" appears as an exact phrase twice: the section title
  // "Search Engine Basics" and "search engine NewsInEssence". The other
  // mentions are "search engines" (no stemming by default).
  EXPECT_EQ(occurrences.counts[0], 2u);
  EXPECT_GE(occurrences.counts[1], 2u);  // "internet"
  EXPECT_GE(occurrences.counts[2], 2u);  // "information retrieval"
  // Occurrences sorted by position.
  for (size_t i = 1; i < occurrences.occurrences.size(); ++i) {
    EXPECT_LE(occurrences.occurrences[i - 1].word_pos,
              occurrences.occurrences[i].word_pos);
  }
}

TEST_F(ReferenceEvalTest, MatchPatternFindsEmbeddings) {
  const ScoredPatternTree pattern = Query2Pattern();
  const auto embeddings = Unwrap(MatchPattern(db_.get(), pattern));
  // One article, one author "Doe", and one binding of $4 per element in
  // the article subtree (ad* includes the article itself).
  ASSERT_FALSE(embeddings.empty());
  for (const Embedding& embedding : embeddings) {
    ASSERT_EQ(embedding.size(), 4u);
    EXPECT_EQ(embedding[0].first, 1);
    // $1 must bind the article root.
    EXPECT_EQ(embedding[0].second, db_->documents()[0].root);
  }
}

TEST_F(ReferenceEvalTest, MatchPatternRestrictedToOneDocument) {
  // An untagged root (every node a candidate) with a tagged child: the
  // per-document matches partition the whole-database matches.
  ScoredPatternTree pattern;
  PatternNode* any = pattern.CreateRoot(1);
  any->AddChild(2, Axis::kDescendant)->set_tag("title");
  const auto all = Unwrap(MatchPattern(db_.get(), pattern));
  ASSERT_FALSE(all.empty());
  size_t total = 0;
  for (const storage::DocumentInfo& info : db_->documents()) {
    const auto scoped = Unwrap(MatchPattern(db_.get(), pattern, info.doc_id));
    for (const Embedding& embedding : scoped) {
      EXPECT_EQ(db_->DocFromIndex(embedding[0].second), info.doc_id);
      EXPECT_NE(std::find(all.begin(), all.end(), embedding), all.end());
    }
    total += scoped.size();
  }
  EXPECT_EQ(total, all.size());
  EXPECT_FALSE(MatchPattern(db_.get(), pattern,
                            static_cast<storage::DocId>(
                                db_->documents().size()))
                   .ok());
}

TEST_F(ReferenceEvalTest, NoEmbeddingsWhenPredicateFails) {
  ScoredPatternTree pattern;
  PatternNode* article = pattern.CreateRoot(1);
  article->set_tag("article");
  PatternNode* sname = article->AddChild(2, Axis::kDescendant);
  sname->set_tag("sname");
  sname->AddPredicate(Predicate{Predicate::Kind::kContentEquals, "", "Roe"});
  EXPECT_TRUE(Unwrap(MatchPattern(db_.get(), pattern)).empty());
}

TEST_F(ReferenceEvalTest, AttributePredicate) {
  ScoredPatternTree pattern;
  PatternNode* author = pattern.CreateRoot(1);
  author->set_tag("author");
  author->AddPredicate(
      Predicate{Predicate::Kind::kAttributeEquals, "id", "first"});
  EXPECT_EQ(Unwrap(MatchPattern(db_.get(), pattern)).size(), 1u);
  ScoredPatternTree none;
  PatternNode* author2 = none.CreateRoot(1);
  author2->set_tag("author");
  author2->AddPredicate(
      Predicate{Predicate::Kind::kAttributeEquals, "id", "second"});
  EXPECT_TRUE(Unwrap(MatchPattern(db_.get(), none)).empty());
}

TEST_F(ReferenceEvalTest, ScoredSelectionProducesScoredTrees) {
  const ScoredPatternTree pattern = Query2Pattern();
  const auto trees = Unwrap(ScoredSelection(db_.get(), pattern));
  ASSERT_FALSE(trees.empty());
  // Each witness tree is rooted at the article, whose (secondary) score
  // equals the bound $4 node's score in that embedding.
  double best = 0.0;
  for (const ScoredTree& tree : trees) {
    ASSERT_FALSE(tree.empty());
    EXPECT_EQ(tree.root()->node(), db_->documents()[0].root);
    best = std::max(best, tree.Score());
  }
  // The best embedding binds $4 to a node containing everything:
  // 1*0.8 + internet_count*0.6 + ir_count*0.6 > 2.
  EXPECT_GT(best, 2.0);
}

TEST_F(ReferenceEvalTest, ScoredProjectionMergesPerRoot) {
  const ScoredPatternTree pattern = Query2Pattern();
  const auto trees = Unwrap(ScoredProjection(db_.get(), pattern, {1, 4}));
  ASSERT_EQ(trees.size(), 1u);  // one article
  const ScoredTree& tree = trees[0];
  EXPECT_EQ(tree.root()->node(), db_->documents()[0].root);
  // Root (secondary IR) carries the max over $4 scores, and at least the
  // whole-article score.
  EXPECT_GT(tree.Score(), 2.0);
  // All zero-score IR matches were removed: every node in the tree with
  // a score has score > 0.
  size_t scored_nodes = 0;
  tree.root()->PreOrderConst([&](const ScoredTreeNode& node) {
    if (node.score().has_value()) {
      EXPECT_GT(*node.score(), 0.0);
      ++scored_nodes;
    }
  });
  EXPECT_GT(scored_nodes, 3u);
}

TEST_F(ReferenceEvalTest, ScoredJoinReproducesFigure7) {
  // Query 3: articles by Doe joined with reviews on title similarity;
  // the product root's score is ScoreBar(simScore, unit score).
  ScoredPatternTree left;
  PatternNode* article = left.CreateRoot(2);
  article->set_tag("article");
  PatternNode* title = article->AddChild(3, Axis::kChild);
  title->set_tag("article-title");
  PatternNode* author = article->AddChild(4, Axis::kDescendant);
  author->set_tag("author");
  PatternNode* sname = author->AddChild(5, Axis::kChild);
  sname->set_tag("sname");
  sname->AddPredicate(
      Predicate{Predicate::Kind::kContentEquals, "", "Doe"});
  PatternNode* unit = article->AddChild(6, Axis::kDescendantOrSelf);
  unit->set_ir(IrPredicate::FooStyle(
                   {"search engine"}, {"internet", "information retrieval"}),
               std::make_shared<WeightedCountScorer>(
                   std::vector<double>{0.8, 0.6, 0.6}));

  ScoredPatternTree right;
  PatternNode* review = right.CreateRoot(7);
  review->set_tag("review");
  PatternNode* review_title = review->AddChild(8, Axis::kChild);
  review_title->set_tag("title");

  ScoredJoinSpec spec;
  spec.left_sim_label = 3;
  spec.right_sim_label = 8;
  spec.min_similarity = 1.0;  // Query 3: Threshold simScore > 1
  spec.left_ir_label = 6;

  const auto trees = Unwrap(ScoredJoin(db_.get(), left, right, spec));
  ASSERT_FALSE(trees.empty());
  // Only review 1 ("Internet Technologies", sim 2) survives; review 2
  // ("WWW Technologies", sim 1) fails the strict threshold. Every
  // product root has a virtual node, two children, and score =
  // 2 + unit score > 2.
  double best = 0.0;
  for (const ScoredTree& tree : trees) {
    EXPECT_EQ(tree.root()->node(), storage::kInvalidNodeId);
    ASSERT_EQ(tree.root()->children().size(), 2u);
    EXPECT_GT(tree.Score(), 2.0);
    best = std::max(best, tree.Score());
    // The right child is the review witness tree.
    EXPECT_EQ(tree.root()->children()[1]->matched_label(), 7);
  }
  // Best pair: sim 2 + the whole-article unit score.
  const double article_unit_score =
      Unwrap(ScoreNodeReference(db_.get(), db_->documents()[0].root,
                                *left.FindLabel(6)->ir(),
                                *left.FindLabel(6)->scorer()));
  EXPECT_NEAR(best, 2.0 + article_unit_score, 1e-9);
}

TEST_F(ReferenceEvalTest, ScoredJoinWithoutIrLabelUsesSimilarity) {
  ScoredPatternTree left;
  left.CreateRoot(1)->set_tag("article-title");
  ScoredPatternTree right;
  right.CreateRoot(2)->set_tag("title");
  ScoredJoinSpec spec;
  spec.left_sim_label = 1;
  spec.right_sim_label = 2;
  spec.min_similarity = 0.5;
  const auto trees = Unwrap(ScoredJoin(db_.get(), left, right, spec));
  // "Internet Technologies" matches both review titles (sim 2 and 1).
  ASSERT_EQ(trees.size(), 2u);
  EXPECT_DOUBLE_EQ(std::max(trees[0].Score(), trees[1].Score()), 2.0);
  EXPECT_DOUBLE_EQ(std::min(trees[0].Score(), trees[1].Score()), 1.0);
}

TEST_F(ReferenceEvalTest, ProjectionRequiresRootLabel) {
  const ScoredPatternTree pattern = Query2Pattern();
  EXPECT_TRUE(ScoredProjection(db_.get(), pattern, {4})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ReferenceEvalTest, RenderScoredTreeMatchesFigureNotation) {
  const ScoredPatternTree pattern = Query2Pattern();
  const auto trees = Unwrap(ScoredProjection(db_.get(), pattern, {1, 4}));
  ASSERT_EQ(trees.size(), 1u);
  const std::string rendered =
      Unwrap(RenderScoredTree(db_.get(), trees[0]));
  // Root line: article[<score>] #<id>.
  EXPECT_EQ(rendered.rfind("article[", 0), 0u);
  EXPECT_NE(rendered.find("chapter["), std::string::npos);
  EXPECT_NE(rendered.find(" #"), std::string::npos);
  // Indentation grows with depth: a doubly indented line exists.
  EXPECT_NE(rendered.find("\n    "), std::string::npos);

  RenderOptions options;
  options.show_node_ids = false;
  const std::string no_ids =
      Unwrap(RenderScoredTree(db_.get(), trees[0], options));
  EXPECT_EQ(no_ids.find(" #"), std::string::npos);
}

TEST_F(ReferenceEvalTest, RenderVirtualProductRoot) {
  auto root = std::make_unique<ScoredTreeNode>(storage::kInvalidNodeId);
  root->set_score(2.8);
  const ScoredTree tree(std::move(root));
  const std::string rendered = Unwrap(RenderScoredTree(db_.get(), tree));
  EXPECT_EQ(rendered, "tix_prod_root[2.80]\n");
}

}  // namespace
}  // namespace tix::algebra
