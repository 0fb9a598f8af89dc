#include "exec/parallel_term_join.h"

#include <algorithm>
#include <future>
#include <utility>

#include "common/obs.h"
#include "common/thread_pool.h"
#include "exec/threshold_operator.h"

namespace tix::exec {

std::vector<DocRange> PlanDocPartitions(const index::InvertedIndex& index,
                                        const algebra::IrPredicate& predicate,
                                        storage::DocId num_docs,
                                        size_t target_partitions,
                                        DocRange within) {
  std::vector<DocRange> ranges;
  const storage::DocId lo = within.begin;
  const storage::DocId hi = std::min(num_docs, within.end);
  if (lo >= hi) return ranges;
  const size_t target = std::max<size_t>(1, target_partitions);

  // Posting mass per document, from the doc-offset tables: one entry per
  // (term, doc) pair, no posting scan.
  std::vector<uint64_t> mass(hi - lo, 0);
  uint64_t total = 0;
  for (const algebra::WeightedPhrase& phrase : predicate.phrases) {
    for (const std::string& term : phrase.terms) {
      const index::PostingList* list = index.Lookup(term);
      if (list == nullptr) continue;
      for (size_t i = 0; i < list->doc_offsets.size(); ++i) {
        const auto& [doc, offset] = list->doc_offsets[i];
        const uint32_t next = i + 1 < list->doc_offsets.size()
                                  ? list->doc_offsets[i + 1].second
                                  : static_cast<uint32_t>(list->size());
        if (doc >= lo && doc < hi) {
          mass[doc - lo] += next - offset;
          total += next - offset;
        }
      }
    }
  }
  if (total == 0) {
    // No postings at all: split documents evenly so the plan is still a
    // valid cover (each partition's TermJoin just produces nothing).
    mass.assign(hi - lo, 1);
    total = hi - lo;
  }

  // Greedy cut: close a partition once it holds its share of the mass.
  // Cuts happen only *between* documents, so a partition boundary can
  // never split one document's postings.
  const uint64_t share = (total + target - 1) / target;
  storage::DocId begin = lo;
  uint64_t acc = 0;
  for (storage::DocId doc = lo; doc < hi; ++doc) {
    acc += mass[doc - lo];
    if (acc >= share && ranges.size() + 1 < target) {
      ranges.push_back(DocRange{begin, doc + 1});
      begin = doc + 1;
      acc = 0;
    }
  }
  if (begin < hi) ranges.push_back(DocRange{begin, hi});
  return ranges;
}

ParallelTermJoin::ParallelTermJoin(storage::Database* db,
                                   const index::InvertedIndex* index,
                                   const algebra::IrPredicate* predicate,
                                   const algebra::Scorer* scorer,
                                   ParallelTermJoinOptions options)
    : db_(db),
      index_(index),
      predicate_(predicate),
      scorer_(scorer),
      options_(std::move(options)) {}

Result<std::vector<ScoredElement>> ParallelTermJoin::Run() {
  stats_ = TermJoinStats();
  partitions_.clear();
  partition_stats_.clear();

  const size_t num_partitions =
      options_.num_partitions != 0
          ? options_.num_partitions
          : std::max<size_t>(1, options_.num_threads);
  if (num_partitions <= 1 && options_.num_threads == 0) {
    // Serial fast path: exactly today's single-threaded TermJoin.
    TermJoin join(db_, index_, predicate_, scorer_, options_.join);
    TIX_ASSIGN_OR_RETURN(std::vector<ScoredElement> out, join.Run());
    stats_ = join.stats();
    return out;
  }

  const storage::DocId num_docs =
      static_cast<storage::DocId>(db_->documents().size());
  partitions_ = PlanDocPartitions(*index_, *predicate_, num_docs,
                                  num_partitions, options_.join.range);
  // Pool workers start with no thread-local metrics context; install the
  // caller's (the query's) inside each task so per-partition TermJoin
  // contexts parent to it and the query totals roll up across threads.
  obs::MetricsContext* const ambient = obs::CurrentMetrics();

  // Top-K pushdown: partitions prune against one shared floor. Each
  // partition's local heap floor is a valid global floor (k elements at
  // or above it already exist somewhere), so cross-partition publication
  // only ever tightens pruning — it cannot evict a global-top-K element.
  const bool pushdown = TermJoinCanPushThreshold(options_.join, *scorer_);
  // A caller-provided floor (already raised by remote shards) takes the
  // place of the run-local one; remote raises only tighten pruning, by
  // the same any-local-floor-is-globally-valid argument as below.
  TopKFloor local_floor;
  TopKFloor* const shared_floor = options_.join.shared_floor != nullptr
                                      ? options_.join.shared_floor
                                      : &local_floor;

  struct PartitionOutput {
    std::vector<ScoredElement> elements;
    TermJoinStats stats;
  };
  auto run_partition = [this, ambient, pushdown, &shared_floor](
                           DocRange range) -> Result<PartitionOutput> {
    const obs::ScopedMetrics scope(ambient);
    TermJoinOptions join_options = options_.join;
    join_options.range = range;
    if (pushdown) join_options.shared_floor = shared_floor;
    TermJoin join(db_, index_, predicate_, scorer_, join_options);
    TIX_ASSIGN_OR_RETURN(std::vector<ScoredElement> elements, join.Run());
    return PartitionOutput{std::move(elements), join.stats()};
  };

  std::vector<Result<PartitionOutput>> outputs;
  outputs.reserve(partitions_.size());
  if (options_.num_threads > 1 && partitions_.size() > 1) {
    ThreadPool pool(std::min(options_.num_threads, partitions_.size()));
    std::vector<std::future<Result<PartitionOutput>>> futures;
    futures.reserve(partitions_.size());
    for (const DocRange range : partitions_) {
      futures.push_back(
          pool.Submit([&run_partition, range] { return run_partition(range); }));
    }
    for (std::future<Result<PartitionOutput>>& future : futures) {
      outputs.push_back(future.get());
    }
  } else {
    for (const DocRange range : partitions_) {
      outputs.push_back(run_partition(range));
    }
  }

  // Concatenate in partition order: partitions cover ascending doc
  // ranges and TermJoin emits in doc order, so this is the serial pop
  // order.
  std::vector<ScoredElement> merged;
  size_t total_elements = 0;
  for (const Result<PartitionOutput>& output : outputs) {
    TIX_RETURN_IF_ERROR(output.status());
    total_elements += output.value().elements.size();
  }
  merged.reserve(total_elements);
  partition_stats_.reserve(outputs.size());
  for (Result<PartitionOutput>& output : outputs) {
    PartitionOutput part = std::move(output).value();
    merged.insert(merged.end(),
                  std::make_move_iterator(part.elements.begin()),
                  std::make_move_iterator(part.elements.end()));
    stats_.occurrences += part.stats.occurrences;
    stats_.stack_pushes += part.stats.stack_pushes;
    stats_.outputs += part.stats.outputs;
    stats_.max_stack_depth =
        std::max(stats_.max_stack_depth, part.stats.max_stack_depth);
    // Each partition counted its own fetches through a join-local
    // context, so the sum is exact regardless of what else was running.
    stats_.record_fetches += part.stats.record_fetches;
    stats_.index_lookups += part.stats.index_lookups;
    stats_.docs_pruned += part.stats.docs_pruned;
    stats_.blocks_skipped += part.stats.blocks_skipped;
    stats_.postings_pruned += part.stats.postings_pruned;
    stats_.floor_updates += part.stats.floor_updates;
    stats_.blocks_decoded += part.stats.blocks_decoded;
    stats_.block_cache_hits += part.stats.block_cache_hits;
    partition_stats_.push_back(part.stats);
  }
  if (pushdown) {
    // Each partition returned its local top-K; the global top-K is a
    // subset of their union. A final pass through one more operator
    // reduces the union to the exact serial answer, in Finish() order.
    ThresholdOperator merge_op(*options_.join.threshold);
    for (ScoredElement& element : merged) {
      merge_op.Push(std::move(element));
    }
    merged = merge_op.Finish();
  }
  return merged;
}

}  // namespace tix::exec
