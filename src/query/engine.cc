#include "query/engine.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "algebra/pattern_tree.h"
#include "algebra/pick.h"
#include "algebra/reference_eval.h"
#include "algebra/scoring.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/parallel_term_join.h"
#include "exec/pick_operator.h"
#include "exec/segment_merge.h"
#include "exec/structural_join.h"
#include "exec/term_join.h"
#include "exec/threshold_operator.h"
#include "query/parser.h"
#include "query/similarity_join.h"
#include "xml/serializer.h"

namespace tix::query {

namespace {

/// Translates path steps [0, count) into a chain-shaped scored pattern
/// tree; step predicates become predicate subtrees. `step_labels[i]` is
/// the pattern label bound to the i-th step.
Result<algebra::ScoredPatternTree> BuildPattern(
    const std::vector<PathStep>& steps, size_t count,
    std::vector<int>* step_labels) {
  algebra::ScoredPatternTree pattern;
  algebra::PatternNode* current = nullptr;
  int next_label = 1;
  step_labels->clear();
  for (size_t i = 0; i < count; ++i) {
    const PathStep& step = steps[i];
    algebra::PatternNode* node;
    if (current == nullptr) {
      node = pattern.CreateRoot(next_label++);
      node->set_axis(algebra::Axis::kDescendant);
    } else {
      node = current->AddChild(
          next_label++,
          step.descendant ? algebra::Axis::kDescendant
                          : algebra::Axis::kChild);
    }
    step_labels->push_back(node->label());
    if (step.name != "*") node->set_tag(step.name);
    for (const StepPredicate& predicate : step.predicates) {
      // Walk the relative path with child-axis pattern nodes; the final
      // node carries the value predicate.
      algebra::PatternNode* target = node;
      for (const std::string& name : predicate.path) {
        target = target->AddChild(next_label++, algebra::Axis::kChild);
        target->set_tag(name);
      }
      if (!predicate.attribute.empty()) {
        if (!predicate.value.has_value()) {
          return Status::NotImplemented(
              "attribute existence tests are not supported");
        }
        target->AddPredicate(algebra::Predicate{
            algebra::Predicate::Kind::kAttributeEquals, predicate.attribute,
            *predicate.value});
      } else if (predicate.value.has_value()) {
        target->AddPredicate(algebra::Predicate{
            algebra::Predicate::Kind::kContentEquals, "", *predicate.value});
      }
      // A bare element path is an existence test — the structural match
      // itself enforces it.
    }
    current = node;
  }
  return pattern;
}

/// Distinct nodes bound to `label` by any of `embeddings` whose document
/// passes `in_scope`, in node-id order. The document comes from the
/// in-memory node index, so the filter fetches no record.
template <typename InScope>
std::vector<storage::NodeId> BoundNodes(
    const storage::Database& db,
    const std::vector<algebra::Embedding>& embeddings, int label,
    InScope in_scope) {
  std::vector<storage::NodeId> out;
  for (const algebra::Embedding& embedding : embeddings) {
    for (const auto& [bound_label, node] : embedding) {
      if (bound_label == label && in_scope(db.DocFromIndex(node))) {
        out.push_back(node);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Elements for sorted, distinct `nodes`, read from the in-memory node
/// index. Node-id order is document order, so the result is too.
std::vector<exec::ScoredElement> ToElements(
    const storage::Database& db, const std::vector<storage::NodeId>& nodes) {
  std::vector<exec::ScoredElement> out;
  out.reserve(nodes.size());
  for (storage::NodeId id : nodes) {
    exec::ScoredElement element;
    element.node = id;
    element.doc = db.DocFromIndex(id);
    element.start = db.StartFromIndex(id);
    element.end = db.EndFromIndex(id);
    element.level = db.LevelFromIndex(id);
    out.push_back(element);
  }
  return out;
}

/// Copies a join's merged and per-partition statistics onto its EXPLAIN
/// span (no-op when the span is disabled). Works for any join exposing
/// the ParallelTermJoin interface — SegmentedTermJoin mirrors it.
template <typename Join>
void AttachTermJoinStats(obs::OperatorSpan* span, const Join& join) {
  obs::OperatorMetrics* node = span->mutable_node();
  if (node == nullptr) return;
  const exec::TermJoinStats& stats = join.stats();
  node->SetCounter("occurrences", stats.occurrences);
  node->SetCounter("stack_pushes", stats.stack_pushes);
  node->SetCounter("max_stack_depth", stats.max_stack_depth);
  // blocks skipped / postings pruned / floor updates reach the span
  // through its metrics context (obs::Count); only docs_pruned has no
  // enum counter and rides on the stats struct.
  if (stats.docs_pruned > 0) {
    node->SetCounter("topk_docs_pruned", stats.docs_pruned);
  }
  const std::vector<exec::DocRange>& partitions = join.partitions();
  const std::vector<exec::TermJoinStats>& partition_stats =
      join.partition_stats();
  for (size_t i = 0;
       i < partition_stats.size() && i < partitions.size(); ++i) {
    obs::OperatorMetrics child;
    child.name = "TermJoin";
    child.detail = StrFormat("partition %zu: docs [%u, %u)", i,
                             partitions[i].begin, partitions[i].end);
    child.rows = partition_stats[i].outputs;
    child.SetCounter(obs::CounterName(obs::Counter::kRecordFetches),
                     partition_stats[i].record_fetches);
    child.SetCounter("occurrences", partition_stats[i].occurrences);
    child.SetCounter("stack_pushes", partition_stats[i].stack_pushes);
    if (partition_stats[i].docs_pruned > 0) {
      child.SetCounter("topk_docs_pruned", partition_stats[i].docs_pruned);
    }
    if (partition_stats[i].blocks_skipped > 0) {
      child.SetCounter(obs::CounterName(obs::Counter::kTopkBlocksSkipped),
                       partition_stats[i].blocks_skipped);
    }
    if (partition_stats[i].postings_pruned > 0) {
      child.SetCounter(obs::CounterName(obs::Counter::kTopkPostingsPruned),
                       partition_stats[i].postings_pruned);
    }
    if (partition_stats[i].blocks_decoded > 0) {
      child.SetCounter(obs::CounterName(obs::Counter::kIndexBlocksDecoded),
                       partition_stats[i].blocks_decoded);
    }
    if (partition_stats[i].block_cache_hits > 0) {
      child.SetCounter(obs::CounterName(obs::Counter::kIndexBlockCacheHits),
                       partition_stats[i].block_cache_hits);
    }
    node->AddChild(std::move(child));
  }
}

}  // namespace

Result<QueryOutput> QueryEngine::ExecuteText(std::string_view text) {
  TIX_ASSIGN_OR_RETURN(const Query query, ParseQuery(text));
  return Execute(query);
}

Status QueryEngine::CheckDeadline(const char* stage) const {
  if (options_.deadline.Expired()) {
    return Status::DeadlineExceeded(
        StrFormat("query deadline exceeded (at %s)", stage));
  }
  return Status::OK();
}

double QueryEngine::TermIdf(std::string_view term) const {
  return snapshot_ != nullptr ? snapshot_->InverseDocumentFrequency(term)
                              : index_->InverseDocumentFrequency(term);
}

Result<storage::DocumentInfo> QueryEngine::ResolveDocument(
    const std::string& name) const {
  if (snapshot_ == nullptr) return db_->GetDocumentByName(name);
  for (const storage::DocumentInfo& info : db_->documents()) {
    if (info.name == name && snapshot_->IsLiveDocument(info.doc_id)) {
      return info;
    }
  }
  return Status::NotFound("no document named '" + name + "'");
}

Result<std::vector<exec::ScoredElement>> QueryEngine::RunScoringJoin(
    const algebra::IrPredicate& predicate, const algebra::Scorer& scorer,
    const exec::ParallelTermJoinOptions& join_options,
    obs::OperatorSpan* span) {
  std::vector<exec::ScoredElement> scored;
  if (snapshot_ != nullptr) {
    exec::SegmentedTermJoin join(db_, snapshot_.get(), &predicate, &scorer,
                                 join_options);
    TIX_ASSIGN_OR_RETURN(scored, join.Run());
    span->set_rows(scored.size());
    AttachTermJoinStats(span, join);
  } else {
    exec::ParallelTermJoin join(db_, index_, &predicate, &scorer,
                                join_options);
    TIX_ASSIGN_OR_RETURN(scored, join.Run());
    span->set_rows(scored.size());
    AttachTermJoinStats(span, join);
  }
  return scored;
}

Result<std::unique_ptr<algebra::Scorer>> QueryEngine::MakeScorerForClause(
    const ScoreClause& clause, const algebra::IrPredicate& predicate) const {
  auto phrase_idf = [&] {
    std::vector<double> idf;
    for (const algebra::WeightedPhrase& phrase : predicate.phrases) {
      double value = 0.0;
      for (const std::string& term : phrase.terms) {
        value = std::max(value, TermIdf(term));
      }
      idf.push_back(value);
    }
    return idf;
  };
  std::unique_ptr<algebra::Scorer> scorer;
  if (clause.scorer == "complexfoo") {
    scorer = std::make_unique<algebra::ComplexProximityScorer>(
        predicate.Weights());
  } else if (clause.scorer == "tfidf") {
    scorer = std::make_unique<algebra::TfIdfScorer>(predicate.Weights(),
                                                    phrase_idf());
  } else if (clause.scorer == "bm25") {
    uint64_t total_words = 0;
    for (const storage::DocumentInfo& info : db_->documents()) {
      total_words += info.word_count;
    }
    const double average_span =
        db_->num_nodes() == 0 ? 1.0
                              : static_cast<double>(total_words) /
                                    static_cast<double>(db_->num_nodes());
    scorer = std::make_unique<algebra::LengthNormalizedScorer>(
        predicate.Weights(), phrase_idf(), average_span);
  } else {
    scorer =
        std::make_unique<algebra::WeightedCountScorer>(predicate.Weights());
  }
  return scorer;
}

Result<QueryOutput> QueryEngine::Execute(const Query& query) {
  if (!options_.collect_metrics) {
    // No plan tree: every OperatorSpan below is a disabled no-op and no
    // metrics context is installed, so the hot path only pays the null
    // thread-local check inside obs::Count.
    if (query.simjoin.has_value()) return ExecuteJoin(query, nullptr);
    return ExecuteSelect(query, nullptr);
  }
  obs::OperatorMetrics root;
  root.name = "Query";
  root.detail = query.simjoin.has_value() ? "similarity join" : "select";
  obs::MetricsContext query_metrics;
  WallTimer timer;
  Result<QueryOutput> result = [&]() -> Result<QueryOutput> {
    // Installing the query context here makes every storage access of
    // this query — including ones outside any operator span — charge
    // the query, and only this query.
    const obs::ScopedMetrics scope(&query_metrics);
    return query.simjoin.has_value() ? ExecuteJoin(query, &root)
                                     : ExecuteSelect(query, &root);
  }();
  if (!result.ok()) return result;
  root.seconds = timer.ElapsedSeconds();
  root.rows = result.value().stats.returned;
  for (int i = 0; i < obs::kNumCounters; ++i) {
    const obs::Counter counter = static_cast<obs::Counter>(i);
    const uint64_t value = query_metrics.value(counter);
    if (value != 0) root.SetCounter(obs::CounterName(counter), value);
  }
  result.value().plan = std::move(root);
  return result;
}

Result<QueryOutput> QueryEngine::ExecuteSelect(const Query& query,
                                               obs::OperatorMetrics* plan) {
  QueryOutput output;
  TIX_RETURN_IF_ERROR(CheckDeadline("start"));
  // document("*") targets every live document — the corpus-wide mode a
  // scatter-gather shard executes (docs/SHARDING.md). Every per-document
  // filter below widens to "any live document".
  const bool all_documents = query.path.document == "*";
  storage::DocumentInfo doc;
  if (!all_documents) {
    TIX_ASSIGN_OR_RETURN(doc, ResolveDocument(query.path.document));
  }
  auto in_scope = [&](storage::DocId doc_id) {
    if (!all_documents) return doc_id == doc.doc_id;
    return snapshot_ == nullptr || snapshot_->IsLiveDocument(doc_id);
  };
  // Pattern matches are rooted in the query's document.
  const storage::DocId match_doc = all_documents ? UINT32_MAX : doc.doc_id;

  const std::vector<PathStep>& steps = query.path.steps;
  const PathStep& target_step = steps.back();

  algebra::ThresholdSpec threshold_spec;
  if (query.threshold.has_value()) {
    threshold_spec.min_score = query.threshold->min_score;
    threshold_spec.top_k = query.threshold->top_k;
  }
  bool pushed_down = false;

  // ---- Anchors: the structural part (every step but the last). -------
  std::vector<storage::NodeId> anchor_nodes;
  std::vector<exec::ScoredElement> anchors;
  {
    obs::OperatorSpan span(plan, "StructuralMatch",
                           steps.size() == 1 ? "document root"
                                             : "anchor pattern");
    if (steps.size() == 1) {
      if (all_documents) {
        for (const storage::DocumentInfo& info : db_->documents()) {
          if (in_scope(info.doc_id)) anchor_nodes.push_back(info.root);
        }
        std::sort(anchor_nodes.begin(), anchor_nodes.end());
      } else {
        anchor_nodes.push_back(doc.root);
      }
    } else {
      std::vector<int> step_labels;
      TIX_ASSIGN_OR_RETURN(
          const algebra::ScoredPatternTree anchor_pattern,
          BuildPattern(steps, steps.size() - 1, &step_labels));
      TIX_ASSIGN_OR_RETURN(
          const std::vector<algebra::Embedding> embeddings,
          algebra::MatchPattern(db_, anchor_pattern, match_doc));
      anchor_nodes =
          BoundNodes(*db_, embeddings, step_labels.back(), in_scope);
    }
    output.stats.anchors = anchor_nodes.size();
    span.set_rows(anchor_nodes.size());
    if (anchor_nodes.empty()) return output;
    anchors = ToElements(*db_, anchor_nodes);
  }

  // ---- Score generation (TermJoin) or pure structural matching. ------
  std::vector<exec::ScoredElement> scored;
  std::unique_ptr<algebra::Scorer> scorer;
  if (query.score.has_value()) {
    const ScoreClause& clause = *query.score;
    algebra::IrPredicate predicate =
        algebra::IrPredicate::FooStyle(clause.primary, clause.desirable);
    TIX_ASSIGN_OR_RETURN(scorer, MakeScorerForClause(clause, predicate));

    // Threshold pushdown eligibility. Every condition guards a way the
    // downstream pipeline could still drop or reorder scored elements,
    // which would make an early top-K wrong:
    //  - top_k must be set (min_score alone cannot terminate a merge);
    //  - the scorer must be simple and monotone, or count bounds are
    //    not score bounds;
    //  - no Pick (it filters between TermJoin and Threshold);
    //  - a single-step `*` descendant path, so Scope (anchored at the
    //    document root) keeps every scored element of the query's
    //    document — and the join is restricted to that document, since
    //    a global top-K over other documents would answer the wrong
    //    query. document("*") widens the restriction to every live
    //    document (the whole corpus), which is its meaning.
    const bool pushdown =
        options_.threshold_pushdown && threshold_spec.top_k.has_value() &&
        !query.pick.has_value() && steps.size() == 1 &&
        target_step.name == "*" && target_step.descendant &&
        !scorer->is_complex() && scorer->is_monotone();
    pushed_down = pushdown;

    std::vector<exec::ScoredElement> all_scored;
    {
      std::string detail = "enhanced";
      if (options_.num_threads > 0) {
        detail += StrFormat(", threads=%zu", options_.num_threads);
      }
      if (pushdown) {
        detail += StrFormat(", topk-pushdown(k=%zu)", *threshold_spec.top_k);
      }
      obs::OperatorSpan span(
          plan, options_.num_threads > 0 ? "ParallelTermJoin" : "TermJoin",
          std::move(detail));
      exec::ParallelTermJoinOptions join_options;
      join_options.join.enhanced = true;
      join_options.join.deadline = &options_.deadline;
      join_options.num_threads = options_.num_threads;
      if (pushdown) {
        join_options.join.threshold = threshold_spec;
        join_options.join.range =
            all_documents ? exec::DocRange{}
                          : exec::DocRange{doc.doc_id, doc.doc_id + 1};
        // Cross-process floor sharing (a shard session sets these).
        join_options.join.shared_floor = options_.shared_topk_floor;
        join_options.join.floor_poll = options_.topk_floor_poll;
      }
      TIX_ASSIGN_OR_RETURN(
          all_scored, RunScoringJoin(predicate, *scorer, join_options, &span));
    }
    TIX_RETURN_IF_ERROR(CheckDeadline("Scope"));

    // Scope to the anchors; `*` targets use descendant-or-self (the
    // paper's ad* edge), named targets plain descendant/child. Only
    // documents holding an anchor can hold a scoped element, so the rest
    // are dropped before sorting TermJoin's post-order output into the
    // document order the semi-join needs.
    obs::OperatorSpan span(plan, "Scope",
                           "anchor semi-join + target filters");
    std::vector<storage::DocId> anchor_docs;
    for (const exec::ScoredElement& anchor : anchors) {
      if (anchor_docs.empty() || anchor_docs.back() != anchor.doc) {
        anchor_docs.push_back(anchor.doc);
      }
    }
    std::erase_if(all_scored, [&](const exec::ScoredElement& element) {
      return !std::binary_search(anchor_docs.begin(), anchor_docs.end(),
                                 element.doc);
    });
    std::sort(all_scored.begin(), all_scored.end(), exec::DocumentOrderLess);
    const bool or_self = target_step.name == "*";
    std::vector<exec::ScoredElement> scoped =
        exec::SemiJoinDescendants(all_scored, anchors, or_self);
    // Name and axis filters on the target step. Only the name needs the
    // record; the parent comes from the in-memory index.
    for (exec::ScoredElement& element : scoped) {
      if (target_step.name != "*") {
        TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record,
                             db_->GetNode(element.node));
        if (db_->TagName(record.tag_id) != target_step.name) continue;
      }
      // Child axis: the parent must be an anchor.
      if (!target_step.descendant &&
          !std::binary_search(anchor_nodes.begin(), anchor_nodes.end(),
                              db_->ParentFromIndex(element.node))) {
        continue;
      }
      scored.push_back(std::move(element));
    }
    span.set_rows(scored.size());
  } else {
    // Boolean query: match the full pattern and return target bindings.
    obs::OperatorSpan span(plan, "StructuralMatch", "full pattern");
    std::vector<int> step_labels;
    TIX_ASSIGN_OR_RETURN(const algebra::ScoredPatternTree full_pattern,
                         BuildPattern(steps, steps.size(), &step_labels));
    TIX_ASSIGN_OR_RETURN(
        const std::vector<algebra::Embedding> embeddings,
        algebra::MatchPattern(db_, full_pattern, match_doc));
    scored = ToElements(
        *db_, BoundNodes(*db_, embeddings, step_labels.back(), in_scope));
    span.set_rows(scored.size());
  }
  output.stats.scored_elements = scored.size();

  // ---- Pick: granularity selection per anchor. ------------------------
  TIX_RETURN_IF_ERROR(CheckDeadline("Pick"));
  if (query.pick.has_value() && !scored.empty()) {
    obs::OperatorSpan span(plan, "Pick", query.pick->criterion);
    std::unique_ptr<algebra::PickCriterion> criterion;
    if (query.pick->criterion == "parity") {
      criterion = std::make_unique<algebra::LevelParityPickCriterion>(
          query.pick->threshold, query.pick->fraction);
    } else if (query.pick->criterion == "topfraction") {
      // Sec. 5.3: derive the relevance threshold from the score
      // distribution of this query's components; the first PICK
      // parameter is the top fraction, not an absolute score.
      std::vector<double> scores;
      scores.reserve(scored.size());
      for (const exec::ScoredElement& element : scored) {
        scores.push_back(element.score);
      }
      const algebra::ScoreHistogram histogram(scores);
      criterion = std::make_unique<algebra::QuantilePickCriterion>(
          histogram, query.pick->threshold, query.pick->fraction);
    } else {
      criterion = std::make_unique<algebra::PickFooCriterion>(
          query.pick->threshold, query.pick->fraction);
    }

    std::unordered_set<storage::NodeId> picked_set;
    for (const exec::ScoredElement& anchor : anchors) {
      // `scored` is in document order, so the anchor's self-or-descendant
      // elements are the run whose (doc, start) lies in
      // [(doc, anchor.start), (doc, anchor.end)); flatten it to a
      // pre-order level stream.
      auto first = std::lower_bound(
          scored.begin(), scored.end(), anchor.start,
          [&](const exec::ScoredElement& element, uint32_t start) {
            return element.doc < anchor.doc ||
                   (element.doc == anchor.doc && element.start < start);
          });
      const auto last = std::lower_bound(
          first, scored.end(), anchor.end,
          [&](const exec::ScoredElement& element, uint32_t end) {
            return element.doc == anchor.doc && element.start < end;
          });
      std::vector<exec::PickEntry> entries;
      std::vector<const exec::ScoredElement*> stack;
      // Root entry: the anchor itself (score 0 unless scored).
      exec::ScoredElement anchor_entry = anchor;
      if (first != last && first->node == anchor.node) anchor_entry = *first++;
      entries.push_back(exec::PickEntry{anchor_entry.node, 0,
                                        anchor_entry.score});
      stack.push_back(&anchor_entry);
      for (auto it = first; it != last; ++it) {
        const exec::ScoredElement& element = *it;
        while (!(element.start > stack.back()->start &&
                 element.end < stack.back()->end)) {
          stack.pop_back();
        }
        entries.push_back(exec::PickEntry{
            element.node, static_cast<uint16_t>(stack.size()),
            element.score});
        stack.push_back(&element);
      }
      exec::PickOperator pick(criterion.get());
      TIX_ASSIGN_OR_RETURN(const std::vector<storage::NodeId> picked,
                           pick.Run(entries));
      picked_set.insert(picked.begin(), picked.end());
    }
    std::vector<exec::ScoredElement> filtered;
    for (exec::ScoredElement& element : scored) {
      if (picked_set.count(element.node) > 0) {
        filtered.push_back(std::move(element));
      }
    }
    scored = std::move(filtered);
    output.stats.picked = scored.size();
    span.set_rows(scored.size());
  }

  // ---- Threshold / top-K. ---------------------------------------------
  // In pushdown mode the heavy lifting already happened inside TermJoin
  // and `scored` holds (at most) the top-K; re-applying the operator to
  // the survivors is idempotent and keeps one code path.
  {
    std::string detail;
    if (threshold_spec.min_score.has_value()) {
      detail += "min_score=" + FormatDouble(*threshold_spec.min_score, 2);
    }
    if (threshold_spec.top_k.has_value()) {
      if (!detail.empty()) detail += ", ";
      detail += StrFormat("top_k=%zu", *threshold_spec.top_k);
    }
    if (detail.empty()) detail = "pass-through";
    if (pushed_down) detail += ", pushed down";
    obs::OperatorSpan span(plan, "Threshold", std::move(detail));
    exec::ThresholdOperator threshold(threshold_spec);
    for (exec::ScoredElement& element : scored) {
      threshold.Push(std::move(element));
    }
    for (const exec::ScoredElement& element : threshold.Finish()) {
      output.results.push_back(QueryResultItem{element.node, element.score});
    }
    span.set_rows(output.results.size());
    span.SetCounter("pushed", threshold.pushed());
    span.SetCounter("dropped_by_score", threshold.dropped_by_score());
    span.SetCounter("dropped_by_heap", threshold.dropped_by_heap());
  }
  output.stats.returned = output.results.size();
  return output;
}

Result<QueryOutput> QueryEngine::ExecuteJoin(const Query& query,
                                             obs::OperatorMetrics* plan) {
  QueryOutput output;
  TIX_RETURN_IF_ERROR(CheckDeadline("start"));
  const SimJoinClause& simjoin = *query.simjoin;

  // Bindings of each FOR variable: the full structural pattern of its
  // path (no ad* target in join queries; the variable IS the last step).
  auto bindings = [&](const PathExpr& path)
      -> Result<std::vector<storage::NodeId>> {
    TIX_ASSIGN_OR_RETURN(const storage::DocumentInfo doc,
                         ResolveDocument(path.document));
    std::vector<int> step_labels;
    TIX_ASSIGN_OR_RETURN(
        const algebra::ScoredPatternTree pattern,
        BuildPattern(path.steps, path.steps.size(), &step_labels));
    TIX_ASSIGN_OR_RETURN(const std::vector<algebra::Embedding> embeddings,
                         algebra::MatchPattern(db_, pattern, doc.doc_id));
    return BoundNodes(*db_, embeddings, step_labels.back(),
                      [&](storage::DocId doc_id) {
                        return doc_id == doc.doc_id;
                      });
  };
  std::vector<storage::NodeId> left_anchors;
  std::vector<storage::NodeId> right_anchors;
  {
    obs::OperatorSpan span(plan, "StructuralMatch", "join bindings");
    TIX_ASSIGN_OR_RETURN(left_anchors, bindings(query.path));
    TIX_ASSIGN_OR_RETURN(right_anchors, bindings(*query.path2));
    output.stats.anchors = left_anchors.size() + right_anchors.size();
    span.set_rows(output.stats.anchors);
  }
  if (left_anchors.empty() || right_anchors.empty()) return output;
  TIX_RETURN_IF_ERROR(CheckDeadline("SimilarityJoin"));

  // Similarity join on the designated descendant elements.
  obs::OperatorSpan simjoin_span(
      plan, "SimilarityJoin",
      simjoin.left_tag + " ~ " + simjoin.right_tag);
  TIX_ASSIGN_OR_RETURN(
      const std::vector<storage::NodeId> left_keys,
      FirstDescendantWithTag(db_, left_anchors, simjoin.left_tag));
  TIX_ASSIGN_OR_RETURN(
      const std::vector<storage::NodeId> right_keys,
      FirstDescendantWithTag(db_, right_anchors, simjoin.right_tag));
  // Keep only anchors that have the key element, remembering the anchor
  // each key belongs to.
  std::unordered_map<storage::NodeId, storage::NodeId> key_to_anchor;
  std::vector<storage::NodeId> left_present;
  std::vector<storage::NodeId> right_present;
  for (size_t i = 0; i < left_keys.size(); ++i) {
    if (left_keys[i] == storage::kInvalidNodeId) continue;
    key_to_anchor[left_keys[i]] = left_anchors[i];
    left_present.push_back(left_keys[i]);
  }
  for (size_t i = 0; i < right_keys.size(); ++i) {
    if (right_keys[i] == storage::kInvalidNodeId) continue;
    key_to_anchor[right_keys[i]] = right_anchors[i];
    right_present.push_back(right_keys[i]);
  }
  SimilarityJoinOptions join_options;
  join_options.min_similarity = simjoin.min_similarity;
  TIX_ASSIGN_OR_RETURN(
      const std::vector<SimilarityPair> sim_pairs,
      SimilarityJoin(db_, left_present, right_present, join_options));
  simjoin_span.set_rows(sim_pairs.size());
  simjoin_span.Finish();

  // Best IR component score per left anchor (Query 3's $d/@score).
  std::unordered_map<storage::NodeId, double> ir_score;
  if (query.score.has_value()) {
    std::string detail = "enhanced";
    if (options_.num_threads > 0) {
      detail += StrFormat(", threads=%zu", options_.num_threads);
    }
    obs::OperatorSpan span(
        plan, options_.num_threads > 0 ? "ParallelTermJoin" : "TermJoin",
        std::move(detail));
    algebra::IrPredicate predicate = algebra::IrPredicate::FooStyle(
        query.score->primary, query.score->desirable);
    TIX_ASSIGN_OR_RETURN(const std::unique_ptr<algebra::Scorer> scorer,
                         MakeScorerForClause(*query.score, predicate));
    exec::ParallelTermJoinOptions term_join_options;
    term_join_options.join.enhanced = true;
    term_join_options.join.deadline = &options_.deadline;
    term_join_options.num_threads = options_.num_threads;
    TIX_ASSIGN_OR_RETURN(
        const std::vector<exec::ScoredElement> scored,
        RunScoringJoin(predicate, *scorer, term_join_options, &span));
    output.stats.scored_elements = scored.size();
    for (const storage::NodeId anchor : left_anchors) {
      const storage::DocId doc_id = db_->DocFromIndex(anchor);
      const uint32_t start = db_->StartFromIndex(anchor);
      const uint32_t end = db_->EndFromIndex(anchor);
      double best = 0.0;
      for (const exec::ScoredElement& element : scored) {
        if (element.doc == doc_id && element.start >= start &&
            element.end <= end) {
          best = std::max(best, element.score);
        }
      }
      ir_score[anchor] = best;
    }
  }

  // Combine, threshold, sort.
  obs::OperatorSpan combine_span(plan, "Threshold", "combine + threshold");
  std::vector<QueryPairResult> pairs;
  for (const SimilarityPair& pair : sim_pairs) {
    QueryPairResult result;
    result.left = key_to_anchor[pair.left];
    result.right = key_to_anchor[pair.right];
    result.similarity = pair.similarity;
    if (query.score.has_value()) {
      result.combined =
          algebra::ScoreBar(pair.similarity, ir_score[result.left]);
      if (result.combined == 0.0) continue;  // ScoreBar gates on relevance
    } else {
      result.combined = pair.similarity;
    }
    pairs.push_back(result);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const QueryPairResult& a, const QueryPairResult& b) {
              if (a.combined != b.combined) return a.combined > b.combined;
              if (a.left != b.left) return a.left < b.left;
              return a.right < b.right;
            });
  if (query.threshold.has_value()) {
    if (query.threshold->min_score.has_value()) {
      std::erase_if(pairs, [&](const QueryPairResult& pair) {
        return !(pair.combined > *query.threshold->min_score);
      });
    }
    if (query.threshold->top_k.has_value() &&
        pairs.size() > *query.threshold->top_k) {
      pairs.resize(*query.threshold->top_k);
    }
  }
  for (const QueryPairResult& pair : pairs) {
    output.results.push_back(QueryResultItem{pair.left, pair.combined});
  }
  output.pairs = std::move(pairs);
  output.stats.returned = output.results.size();
  combine_span.set_rows(output.results.size());
  return output;
}

Result<std::string> QueryEngine::RenderXml(const QueryOutput& output,
                                           size_t limit) const {
  std::string xml;
  const size_t n = std::min(limit, output.results.size());
  for (size_t i = 0; i < n; ++i) {
    const QueryResultItem& item = output.results[i];
    TIX_ASSIGN_OR_RETURN(const std::unique_ptr<xml::XmlNode> subtree,
                         db_->ReconstructSubtree(item.node));
    xml += "<result>\n  <score>";
    xml += FormatDouble(item.score, 2);
    xml += "</score>\n  ";
    xml += xml::SerializeNode(*subtree);
    xml += "\n</result>\n";
  }
  return xml;
}

}  // namespace tix::query
