#ifndef TIX_ALGEBRA_REFERENCE_EVAL_H_
#define TIX_ALGEBRA_REFERENCE_EVAL_H_

#include <vector>

#include "algebra/pattern_tree.h"
#include "algebra/scored_tree.h"
#include "algebra/scoring.h"
#include "common/result.h"
#include "storage/database.h"

/// \file
/// Reference (non-pipelined) evaluation of TIX operators, computed
/// directly from the definitions in Sec. 3 by scanning stored documents.
/// This is the semantic ground truth: the physical access methods
/// (TermJoin, PhraseFinder, the Comp pipelines, Generalized Meet) are
/// property-tested for agreement with these functions. It is also a
/// usable evaluator for small collections.

namespace tix::algebra {

/// Phrase occurrences found in one subtree.
struct SubtreeOccurrences {
  /// Count per phrase index of the IrPredicate.
  std::vector<uint32_t> counts;
  /// All occurrences, ascending by word position.
  std::vector<TermOccurrence> occurrences;

  bool any() const {
    for (uint32_t c : counts) {
      if (c > 0) return true;
    }
    return false;
  }
};

/// Scans the stored text of the subtree rooted at `node`, counting
/// phrase occurrences of `predicate` (adjacent in-order terms within one
/// text node).
Result<SubtreeOccurrences> ScanSubtreeOccurrences(
    storage::Database* db, storage::NodeId node, const IrPredicate& predicate);

/// Score of one node under `scorer`, per the definitions: counts from the
/// node's subtree, plus child statistics when the scorer is complex.
Result<double> ScoreNodeReference(storage::Database* db,
                                  storage::NodeId node,
                                  const IrPredicate& predicate,
                                  const Scorer& scorer);

/// One scored element in a flat result set.
struct ScoredNodeResult {
  storage::NodeId node = storage::kInvalidNodeId;
  double score = 0.0;
  std::vector<uint32_t> counts;

  friend bool operator==(const ScoredNodeResult&,
                         const ScoredNodeResult&) = default;
};

/// Scores every element whose subtree contains at least one occurrence —
/// the output TermJoin must produce (Sec. 5.1.1), computed the slow,
/// obviously-correct way. `doc` restricts to one document;
/// UINT32_MAX means the whole database.
Result<std::vector<ScoredNodeResult>> ReferenceScoreAllElements(
    storage::Database* db, const IrPredicate& predicate, const Scorer& scorer,
    storage::DocId doc = UINT32_MAX);

/// An embedding of a pattern tree: (label, data node) pairs, one per
/// pattern node, in pattern pre-order.
using Embedding = std::vector<std::pair<int, storage::NodeId>>;

/// All embeddings of the pattern's structural/value part (IR predicates
/// do not constrain matching; they only produce scores). `doc` restricts
/// the pattern root to one document; UINT32_MAX means the whole database.
Result<std::vector<Embedding>> MatchPattern(storage::Database* db,
                                            const ScoredPatternTree& pattern,
                                            storage::DocId doc = UINT32_MAX);

/// Scored selection (Sec. 3.2.1): one scored witness tree per embedding.
Result<ScoredTreeCollection> ScoredSelection(storage::Database* db,
                                             const ScoredPatternTree& pattern);

/// Scored projection (Sec. 3.2.2): one tree per distinct root-label
/// match, retaining only nodes whose label is in `projection_labels`;
/// secondary IR-nodes take the max score over their source matches.
Result<ScoredTreeCollection> ScoredProjection(
    storage::Database* db, const ScoredPatternTree& pattern,
    const std::vector<int>& projection_labels);

/// Parameters of a scored join (Sec. 3.2.3): the product of two pattern
/// matches with an IR-style similarity join condition. The similarity of
/// the two `sim_label` bindings is computed with ScoreSim over their
/// alltext(); pairs at or below `min_similarity` are dropped; the
/// product root's score is ScoreBar(similarity, score of the left
/// `ir_label` binding) — exactly Query 3 / Figure 7.
struct ScoredJoinSpec {
  int left_sim_label = 0;
  int right_sim_label = 0;
  double min_similarity = 0.0;
  /// Label on the left side whose score feeds ScoreBar; 0 disables the
  /// IR component (root score = similarity).
  int left_ir_label = 0;
};

/// Scored join: every output tree has a virtual root (node id
/// kInvalidNodeId, playing tix_prod_root) whose two children are the
/// left and right witness trees.
Result<ScoredTreeCollection> ScoredJoin(storage::Database* db,
                                        const ScoredPatternTree& left,
                                        const ScoredPatternTree& right,
                                        const ScoredJoinSpec& spec);

}  // namespace tix::algebra

#endif  // TIX_ALGEBRA_REFERENCE_EVAL_H_
