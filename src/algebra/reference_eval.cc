#include "algebra/reference_eval.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace tix::algebra {

namespace {

/// Normalized phrase terms, aligned with predicate.phrases.
std::vector<std::vector<std::string>> NormalizePhrases(
    const storage::Database& db, const IrPredicate& predicate) {
  std::vector<std::vector<std::string>> out;
  out.reserve(predicate.phrases.size());
  for (const WeightedPhrase& phrase : predicate.phrases) {
    std::vector<std::string> terms;
    terms.reserve(phrase.terms.size());
    for (const std::string& term : phrase.terms) {
      terms.push_back(db.tokenizer().Normalize(term));
    }
    out.push_back(std::move(terms));
  }
  return out;
}

/// Finds phrase occurrences within one text node's token stream.
void ScanTextNode(const storage::NodeRecord& record,
                  const std::vector<text::Token>& tokens,
                  const std::vector<std::vector<std::string>>& phrases,
                  storage::NodeId node_id, SubtreeOccurrences* out) {
  // Map raw position -> term (holes where stopwords were removed).
  std::vector<const std::string*> by_pos(record.num_words, nullptr);
  for (const text::Token& token : tokens) {
    if (token.position < by_pos.size()) by_pos[token.position] = &token.term;
  }
  for (size_t phrase_index = 0; phrase_index < phrases.size();
       ++phrase_index) {
    const std::vector<std::string>& terms = phrases[phrase_index];
    if (terms.empty()) continue;
    if (by_pos.size() < terms.size()) continue;
    for (size_t p = 0; p + terms.size() <= by_pos.size(); ++p) {
      bool match = true;
      for (size_t k = 0; k < terms.size(); ++k) {
        if (by_pos[p + k] == nullptr || *by_pos[p + k] != terms[k]) {
          match = false;
          break;
        }
      }
      if (match) {
        ++out->counts[phrase_index];
        out->occurrences.push_back(TermOccurrence{
            static_cast<uint32_t>(phrase_index),
            record.start + static_cast<uint32_t>(p), node_id});
      }
    }
  }
}

}  // namespace

Result<SubtreeOccurrences> ScanSubtreeOccurrences(
    storage::Database* db, storage::NodeId node,
    const IrPredicate& predicate) {
  SubtreeOccurrences out;
  out.counts.assign(predicate.num_phrases(), 0);
  const std::vector<std::vector<std::string>> phrases =
      NormalizePhrases(*db, predicate);

  TIX_ASSIGN_OR_RETURN(const storage::NodeRecord root, db->GetNode(node));
  auto scan_one = [&](storage::NodeId id,
                      const storage::NodeRecord& record) -> Status {
    if (!record.is_text() || record.blob_length == 0) return Status::OK();
    TIX_ASSIGN_OR_RETURN(const std::string data, db->TextOf(record));
    ScanTextNode(record, db->tokenizer().Tokenize(data), phrases, id, &out);
    return Status::OK();
  };

  TIX_RETURN_IF_ERROR(scan_one(node, root));
  if (root.is_element()) {
    for (storage::NodeId id = node + 1; id < db->num_nodes(); ++id) {
      TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record, db->GetNode(id));
      if (record.doc_id != root.doc_id || record.start >= root.end) break;
      TIX_RETURN_IF_ERROR(scan_one(id, record));
    }
  }
  std::sort(out.occurrences.begin(), out.occurrences.end(),
            [](const TermOccurrence& a, const TermOccurrence& b) {
              return a.word_pos < b.word_pos;
            });
  return out;
}

Result<double> ScoreNodeReference(storage::Database* db,
                                  storage::NodeId node,
                                  const IrPredicate& predicate,
                                  const Scorer& scorer) {
  TIX_ASSIGN_OR_RETURN(SubtreeOccurrences occurrences,
                       ScanSubtreeOccurrences(db, node, predicate));
  if (!scorer.is_complex()) {
    return scorer.Score(occurrences.counts);
  }
  TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record, db->GetNode(node));
  ScoreContext context;
  context.counts = occurrences.counts;
  context.occurrences = occurrences.occurrences;
  context.total_children = record.num_children;
  context.element_start = record.start;
  context.element_end = record.end;
  if (record.is_element()) {
    TIX_ASSIGN_OR_RETURN(const std::vector<storage::NodeId> children,
                         db->ChildrenOf(node));
    for (storage::NodeId child : children) {
      TIX_ASSIGN_OR_RETURN(const SubtreeOccurrences child_occurrences,
                           ScanSubtreeOccurrences(db, child, predicate));
      if (child_occurrences.any()) ++context.relevant_children;
    }
  }
  return scorer.ScoreComplex(context);
}

Result<std::vector<ScoredNodeResult>> ReferenceScoreAllElements(
    storage::Database* db, const IrPredicate& predicate, const Scorer& scorer,
    storage::DocId doc) {
  std::vector<ScoredNodeResult> out;
  for (storage::NodeId id = 0; id < db->num_nodes(); ++id) {
    TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record, db->GetNode(id));
    if (!record.is_element()) continue;
    if (doc != UINT32_MAX && record.doc_id != doc) continue;
    TIX_ASSIGN_OR_RETURN(SubtreeOccurrences occurrences,
                         ScanSubtreeOccurrences(db, id, predicate));
    if (!occurrences.any()) continue;
    ScoredNodeResult result;
    result.node = id;
    result.counts = occurrences.counts;
    TIX_ASSIGN_OR_RETURN(result.score,
                         ScoreNodeReference(db, id, predicate, scorer));
    out.push_back(std::move(result));
  }
  return out;
}

namespace {

Result<bool> NodeSatisfies(storage::Database* db, const PatternNode& pattern,
                           storage::NodeId id,
                           const storage::NodeRecord& record) {
  if (!record.is_element()) return false;
  if (pattern.tag().has_value() &&
      db->TagName(record.tag_id) != *pattern.tag()) {
    return false;
  }
  for (const Predicate& predicate : pattern.predicates()) {
    switch (predicate.kind) {
      case Predicate::Kind::kContentEquals: {
        TIX_ASSIGN_OR_RETURN(const std::string text, db->AllTextOf(id));
        if (std::string(Trim(text)) != predicate.value) return false;
        break;
      }
      case Predicate::Kind::kContentContainsWord: {
        TIX_ASSIGN_OR_RETURN(const std::string text, db->AllTextOf(id));
        const std::string needle = db->tokenizer().Normalize(predicate.value);
        bool found = false;
        for (const text::Token& token : db->tokenizer().Tokenize(text)) {
          if (token.term == needle) {
            found = true;
            break;
          }
        }
        if (!found) return false;
        break;
      }
      case Predicate::Kind::kAttributeEquals: {
        TIX_ASSIGN_OR_RETURN(const storage::AttributeList attrs,
                             db->AttributesOf(record));
        bool found = false;
        for (const xml::XmlAttribute& attr : attrs) {
          if (attr.name == predicate.name && attr.value == predicate.value) {
            found = true;
            break;
          }
        }
        if (!found) return false;
        break;
      }
    }
  }
  return true;
}

/// One past the last node of `id`'s subtree. A document's nodes are
/// contiguous and in document order, so the subtree is the id run after
/// `id` whose nodes start inside its interval; binary search over the
/// in-memory doc/start index finds its end without a record fetch.
storage::NodeId SubtreeEnd(const storage::Database& db, storage::NodeId id) {
  const storage::DocId doc = db.DocFromIndex(id);
  const uint32_t end = db.EndFromIndex(id);
  storage::NodeId lo = id + 1;
  storage::NodeId hi = static_cast<storage::NodeId>(db.num_nodes());
  while (lo < hi) {
    const storage::NodeId mid = lo + (hi - lo) / 2;
    if (db.DocFromIndex(mid) == doc && db.StartFromIndex(mid) < end) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Data nodes with ids in [begin, end) that match `pattern`, restricted
/// to children of `parent` unless it is kInvalidNodeId. Structure comes
/// from the in-memory node index; a record is fetched only to test what
/// the index does not hold: the kind of an untagged candidate and value
/// or attribute predicates.
Result<std::vector<storage::NodeId>> CandidatesInRange(
    storage::Database* db, const PatternNode& pattern, storage::NodeId begin,
    storage::NodeId end, storage::NodeId parent) {
  std::vector<storage::NodeId> raw;
  if (pattern.tag().has_value()) {
    const storage::TagId tag = db->LookupTag(*pattern.tag());
    if (tag == text::kInvalidTermId) return raw;
    const std::vector<storage::NodeId>* nodes = db->ElementsWithTag(tag);
    if (nodes == nullptr) return raw;
    raw.assign(std::lower_bound(nodes->begin(), nodes->end(), begin),
               std::lower_bound(nodes->begin(), nodes->end(), end));
  } else {
    for (storage::NodeId id = begin; id < end; ++id) raw.push_back(id);
  }
  if (parent != storage::kInvalidNodeId) {
    std::erase_if(raw, [&](storage::NodeId id) {
      return db->ParentFromIndex(id) != parent;
    });
  }
  // The tag index holds only elements with that tag, so its candidates
  // of a predicate-free step match as they are.
  if (pattern.tag().has_value() && pattern.predicates().empty()) return raw;
  std::vector<storage::NodeId> out;
  for (storage::NodeId id : raw) {
    TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record, db->GetNode(id));
    TIX_ASSIGN_OR_RETURN(const bool ok, NodeSatisfies(db, pattern, id, record));
    if (ok) out.push_back(id);
  }
  return out;
}

/// Candidate data nodes for non-root `pattern` related to the bound data
/// node `anchor` by the pattern's axis: drawn from the anchor's subtree
/// (the anchor itself included for ad*).
Result<std::vector<storage::NodeId>> Candidates(storage::Database* db,
                                                const PatternNode& pattern,
                                                storage::NodeId anchor) {
  const storage::NodeId begin =
      pattern.axis() == Axis::kDescendantOrSelf ? anchor : anchor + 1;
  const storage::NodeId parent =
      pattern.axis() == Axis::kChild ? anchor : storage::kInvalidNodeId;
  return CandidatesInRange(db, pattern, begin, SubtreeEnd(*db, anchor),
                           parent);
}

Result<std::vector<Embedding>> MatchSub(storage::Database* db,
                                        const PatternNode* pattern,
                                        storage::NodeId bound) {
  std::vector<Embedding> results;
  results.push_back(Embedding{{pattern->label(), bound}});
  for (const auto& child : pattern->children()) {
    TIX_ASSIGN_OR_RETURN(const std::vector<storage::NodeId> candidates,
                         Candidates(db, *child, bound));
    std::vector<Embedding> child_bindings;
    for (storage::NodeId candidate : candidates) {
      TIX_ASSIGN_OR_RETURN(std::vector<Embedding> subs,
                           MatchSub(db, child.get(), candidate));
      for (Embedding& sub : subs) child_bindings.push_back(std::move(sub));
    }
    if (child_bindings.empty()) return std::vector<Embedding>{};
    std::vector<Embedding> next;
    next.reserve(results.size() * child_bindings.size());
    for (const Embedding& base : results) {
      for (const Embedding& extension : child_bindings) {
        Embedding combined = base;
        combined.insert(combined.end(), extension.begin(), extension.end());
        next.push_back(std::move(combined));
      }
    }
    results = std::move(next);
  }
  return results;
}

/// One node to place in a witness tree.
struct NodeSpec {
  storage::NodeId node = storage::kInvalidNodeId;
  std::optional<double> score;
  int label = 0;
};

/// Builds a containment tree over `nodes` (same document). Nodes must be
/// unique.
Result<ScoredTree> BuildContainmentTree(storage::Database* db,
                                        std::vector<NodeSpec> nodes) {
  struct Entry {
    storage::NodeId id;
    uint32_t start;
    uint32_t end;
    std::optional<double> score;
    int label;
  };
  std::vector<Entry> entries;
  entries.reserve(nodes.size());
  for (const NodeSpec& spec : nodes) {
    TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record,
                         db->GetNode(spec.node));
    entries.push_back(
        Entry{spec.node, record.start, record.end, spec.score, spec.label});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });

  ScoredTree tree;
  std::vector<ScoredTreeNode*> stack;
  for (const Entry& entry : entries) {
    while (!stack.empty()) {
      // Pop frames that do not contain this entry.
      const ScoredTreeNode* top = stack.back();
      TIX_ASSIGN_OR_RETURN(const storage::NodeRecord top_record,
                           db->GetNode(top->node()));
      if (entry.start >= top_record.end) {
        stack.pop_back();
      } else {
        break;
      }
    }
    auto scored = std::make_unique<ScoredTreeNode>(entry.id);
    if (entry.score.has_value()) scored->set_score(*entry.score);
    scored->set_matched_label(entry.label);
    ScoredTreeNode* inserted;
    if (stack.empty()) {
      if (!tree.empty()) {
        return Status::InvalidArgument(
            "containment tree has multiple roots; include a common ancestor");
      }
      tree.set_root(std::move(scored));
      inserted = tree.mutable_root();
    } else {
      inserted = stack.back()->AddChild(std::move(scored));
    }
    stack.push_back(inserted);
  }
  return tree;
}

}  // namespace

Result<std::vector<Embedding>> MatchPattern(storage::Database* db,
                                            const ScoredPatternTree& pattern,
                                            storage::DocId doc) {
  if (pattern.root() == nullptr) {
    return Status::InvalidArgument("empty pattern tree");
  }
  // A document's nodes are the contiguous id run from its root.
  storage::NodeId begin = 0;
  storage::NodeId end = static_cast<storage::NodeId>(db->num_nodes());
  if (doc != UINT32_MAX) {
    if (doc >= db->documents().size()) {
      return Status::InvalidArgument("no document " + std::to_string(doc));
    }
    const storage::DocumentInfo& info = db->documents()[doc];
    begin = info.root;
    end = static_cast<storage::NodeId>(info.root + info.node_count);
  }
  TIX_ASSIGN_OR_RETURN(
      const std::vector<storage::NodeId> roots,
      CandidatesInRange(db, *pattern.root(), begin, end,
                        storage::kInvalidNodeId));
  std::vector<Embedding> out;
  for (storage::NodeId root : roots) {
    TIX_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                         MatchSub(db, pattern.root(), root));
    for (Embedding& embedding : embeddings) {
      out.push_back(std::move(embedding));
    }
  }
  return out;
}

Result<ScoredTreeCollection> ScoredSelection(storage::Database* db,
                                             const ScoredPatternTree& pattern) {
  TIX_ASSIGN_OR_RETURN(const std::vector<Embedding> embeddings,
                       MatchPattern(db, pattern));
  ScoredTreeCollection out;
  for (const Embedding& embedding : embeddings) {
    // Scores per label for this embedding.
    std::unordered_map<int, double> label_scores;
    for (const auto& [label, node] : embedding) {
      const PatternNode* pattern_node = pattern.FindLabel(label);
      if (pattern_node != nullptr && pattern_node->is_primary_ir()) {
        TIX_ASSIGN_OR_RETURN(
            const double score,
            ScoreNodeReference(db, node, *pattern_node->ir(),
                               *pattern_node->scorer()));
        label_scores[label] = score;
      }
    }
    for (const auto& [label, node] : embedding) {
      const PatternNode* pattern_node = pattern.FindLabel(label);
      if (pattern_node != nullptr && pattern_node->is_secondary_ir()) {
        auto it = label_scores.find(pattern_node->secondary_score()->source_label);
        label_scores[label] = it == label_scores.end() ? 0.0 : it->second;
      }
    }
    std::vector<NodeSpec> nodes;
    std::unordered_set<storage::NodeId> seen;
    for (const auto& [label, node] : embedding) {
      std::optional<double> score;
      auto it = label_scores.find(label);
      if (it != label_scores.end()) score = it->second;
      if (seen.insert(node).second) {
        nodes.push_back(NodeSpec{node, score, label});
      } else if (score.has_value()) {
        // ad* self-match: the same data node carries the IR score and
        // the IR label.
        for (NodeSpec& existing : nodes) {
          if (existing.node == node &&
              (!existing.score.has_value() || *existing.score < *score)) {
            existing.score = score;
            existing.label = label;
          }
        }
      }
    }
    TIX_ASSIGN_OR_RETURN(ScoredTree tree,
                         BuildContainmentTree(db, std::move(nodes)));
    out.push_back(std::move(tree));
  }
  return out;
}

Result<ScoredTreeCollection> ScoredProjection(
    storage::Database* db, const ScoredPatternTree& pattern,
    const std::vector<int>& projection_labels) {
  TIX_ASSIGN_OR_RETURN(const std::vector<Embedding> embeddings,
                       MatchPattern(db, pattern));
  if (pattern.root() == nullptr) {
    return Status::InvalidArgument("empty pattern tree");
  }
  const int root_label = pattern.root()->label();
  const std::unordered_set<int> retained(projection_labels.begin(),
                                         projection_labels.end());
  if (retained.count(root_label) == 0) {
    return Status::InvalidArgument(
        "projection list must include the pattern root label");
  }

  // Group (label, node) bindings by the root-label match.
  std::map<storage::NodeId, std::vector<std::pair<int, storage::NodeId>>>
      groups;
  for (const Embedding& embedding : embeddings) {
    storage::NodeId root_node = storage::kInvalidNodeId;
    for (const auto& [label, node] : embedding) {
      if (label == root_label) root_node = node;
    }
    TIX_CHECK(root_node != storage::kInvalidNodeId);
    auto& group = groups[root_node];
    group.insert(group.end(), embedding.begin(), embedding.end());
  }

  ScoredTreeCollection out;
  for (auto& [root_node, bindings] : groups) {
    std::sort(bindings.begin(), bindings.end());
    bindings.erase(std::unique(bindings.begin(), bindings.end()),
                   bindings.end());

    // Primary IR scores per (label, node).
    std::map<std::pair<int, storage::NodeId>, double> primary_scores;
    for (const auto& [label, node] : bindings) {
      const PatternNode* pattern_node = pattern.FindLabel(label);
      if (pattern_node != nullptr && pattern_node->is_primary_ir()) {
        TIX_ASSIGN_OR_RETURN(
            const double score,
            ScoreNodeReference(db, node, *pattern_node->ir(),
                               *pattern_node->scorer()));
        primary_scores[{label, node}] = score;
      }
    }

    // Node set to retain, with scores and labels.
    std::map<storage::NodeId, std::pair<std::optional<double>, int>>
        node_scores;
    for (const auto& [label, node] : bindings) {
      if (retained.count(label) == 0) continue;
      const PatternNode* pattern_node = pattern.FindLabel(label);
      std::optional<double> score;
      if (pattern_node != nullptr && pattern_node->is_primary_ir()) {
        score = primary_scores[{label, node}];
        // Zero-score IR matches are removed (Fig. 6).
        if (*score == 0.0) continue;
      } else if (pattern_node != nullptr && pattern_node->is_secondary_ir()) {
        const SecondaryScore& rule = *pattern_node->secondary_score();
        double aggregate = 0.0;
        bool first = true;
        for (const auto& [key, value] : primary_scores) {
          if (key.first != rule.source_label) continue;
          if (rule.aggregate == SecondaryScore::Aggregate::kSum) {
            aggregate += value;
          } else {
            aggregate = first ? value : std::max(aggregate, value);
          }
          first = false;
        }
        score = aggregate;
      }
      auto it = node_scores.find(node);
      if (it == node_scores.end()) {
        node_scores[node] = {score, label};
      } else if (score.has_value() && (!it->second.first.has_value() ||
                                       *it->second.first < *score)) {
        it->second = {score, label};
      }
    }
    if (node_scores.find(root_node) == node_scores.end()) continue;

    std::vector<NodeSpec> nodes;
    nodes.reserve(node_scores.size());
    for (const auto& [node, score_label] : node_scores) {
      nodes.push_back(NodeSpec{node, score_label.first, score_label.second});
    }
    TIX_ASSIGN_OR_RETURN(ScoredTree tree,
                         BuildContainmentTree(db, std::move(nodes)));
    out.push_back(std::move(tree));
  }
  return out;
}

namespace {

/// First node in the tree matched to `label`, else nullptr.
const ScoredTreeNode* FindLabelInTree(const ScoredTreeNode* node, int label) {
  if (node == nullptr) return nullptr;
  if (node->matched_label() == label) return node;
  for (const auto& child : node->children()) {
    if (const ScoredTreeNode* found = FindLabelInTree(child.get(), label)) {
      return found;
    }
  }
  return nullptr;
}

/// Highest score among nodes matched to `label` (0 when absent).
double MaxScoreOfLabel(const ScoredTreeNode* node, int label) {
  if (node == nullptr) return 0.0;
  double best =
      node->matched_label() == label ? node->score_or_zero() : 0.0;
  for (const auto& child : node->children()) {
    best = std::max(best, MaxScoreOfLabel(child.get(), label));
  }
  return best;
}

}  // namespace

Result<ScoredTreeCollection> ScoredJoin(storage::Database* db,
                                        const ScoredPatternTree& left,
                                        const ScoredPatternTree& right,
                                        const ScoredJoinSpec& spec) {
  TIX_ASSIGN_OR_RETURN(ScoredTreeCollection left_trees,
                       ScoredSelection(db, left));
  TIX_ASSIGN_OR_RETURN(ScoredTreeCollection right_trees,
                       ScoredSelection(db, right));

  // Tokenize the sim-label text of each side once.
  auto sim_terms = [&](const ScoredTreeCollection& trees, int label)
      -> Result<std::vector<std::vector<std::string>>> {
    std::vector<std::vector<std::string>> out;
    out.reserve(trees.size());
    for (const ScoredTree& tree : trees) {
      const ScoredTreeNode* node = FindLabelInTree(tree.root(), label);
      if (node == nullptr) {
        out.emplace_back();
        continue;
      }
      TIX_ASSIGN_OR_RETURN(const std::string text,
                           db->AllTextOf(node->node()));
      out.push_back(db->tokenizer().TokenizeToTerms(text));
    }
    return out;
  };
  TIX_ASSIGN_OR_RETURN(const std::vector<std::vector<std::string>> left_terms,
                       sim_terms(left_trees, spec.left_sim_label));
  TIX_ASSIGN_OR_RETURN(const std::vector<std::vector<std::string>> right_terms,
                       sim_terms(right_trees, spec.right_sim_label));

  ScoredTreeCollection out;
  for (size_t i = 0; i < left_trees.size(); ++i) {
    for (size_t j = 0; j < right_trees.size(); ++j) {
      const double similarity = ScoreSim(left_terms[i], right_terms[j]);
      if (!(similarity > spec.min_similarity)) continue;
      // Virtual product root (the paper's tix_prod_root).
      auto root = std::make_unique<ScoredTreeNode>(storage::kInvalidNodeId);
      double ir_score = similarity;
      if (spec.left_ir_label != 0) {
        ir_score = ScoreBar(
            similarity,
            MaxScoreOfLabel(left_trees[i].root(), spec.left_ir_label));
        if (ir_score == 0.0) continue;  // ScoreBar gates on relevance
      }
      root->set_score(ir_score);
      root->AddChild(left_trees[i].root()->Clone());
      root->AddChild(right_trees[j].root()->Clone());
      out.push_back(ScoredTree(std::move(root)));
    }
  }
  return out;
}

}  // namespace tix::algebra
