// Top-K threshold pushdown: early-terminating TermJoin (block-max score
// bounds + running heap floor) against the materialize-then-threshold
// post-pass, swept over top_k in {1, 10, 100, inf} and term selectivity.
// Each cell reports wall time, postings actually scanned, postings
// pruned without being decoded and skip-block windows leapt; the
// pushdown output is verified element-for-element against the post-pass
// before timing. Emits BENCH_topk.json next to the printed table.
//
// The pushdown also runs against a trust-mode open of the same index
// file (IndexLoadOptions::verify_on_open = false, which builds each
// list's doc index on its first lookup): "trust" is its steady-state
// latency, "first" the first query after a fresh trust open (doc-index
// builds included). The bench exits 1 if trust output differs from the
// post-pass in any cell, or — with --runs >= 3, where a reading is a
// trimmed mean — if trust pushdown latency exceeds 1.2x verify in any
// cell. A single run is too noisy to gate latency on.
//
//   ./build/bench/bench_topk [--articles=3000] [--runs=3]
//                            [--data-dir=/tmp/tix_bench]
//                            [--out=BENCH_topk.json]
//
// "inf" runs the pushdown machinery with an unreachable K: the heap
// never fills, the floor never rises, and the merge degenerates to the
// full scan — the honest baseline for how much the bounds themselves
// cost.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "algebra/scoring.h"
#include "algebra/threshold.h"
#include "bench/bench_corpus.h"
#include "bench/bench_util.h"
#include "bench/table_runner.h"
#include "exec/term_join.h"
#include "exec/threshold_operator.h"
#include "index/inverted_index.h"

namespace {

constexpr size_t kInfinity = 1000000000;  // never reached: "no K"
constexpr double kTrustGate = 1.2;  // max trust / verify pushdown latency

struct Cell {
  uint64_t freq = 0;        // nominal planted frequency of both terms
  size_t top_k = 0;         // kInfinity for the unbounded row
  double post_seconds = 0;  // materialize + ThresholdOperator
  double push_seconds = 0;  // early-terminating TermJoin
  double trust_seconds = 0;        // the same, on the trust-mode open
  double trust_first_seconds = 0;  // first query after a fresh trust open
  uint64_t post_scanned = 0;
  uint64_t push_scanned = 0;
  uint64_t pruned = 0;
  uint64_t blocks_skipped = 0;
  uint64_t docs_pruned = 0;
  size_t results = 0;
};

std::string TopKName(size_t top_k) {
  return top_k == kInfinity ? "inf" : std::to_string(top_k);
}

tix::Result<tix::index::InvertedIndex> OpenTrusted(const std::string& path) {
  tix::index::IndexLoadOptions load;
  load.verify_on_open = false;
  return tix::index::InvertedIndex::LoadFromFile(path, load);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tix::bench;
  const Flags flags(argc, argv);
  const uint64_t articles = flags.GetInt("articles", 3000);
  const int runs = static_cast<int>(flags.GetInt("runs", 3));
  const std::string dir = flags.GetString("data-dir", "/tmp/tix_bench");
  const std::string out = flags.GetString("out", "BENCH_topk.json");

  auto env_result = GetOrBuildBenchEnv(dir, articles, flags.GetInt("seed", 42));
  if (!env_result.ok()) {
    std::fprintf(stderr, "%s\n", env_result.status().ToString().c_str());
    return 1;
  }
  BenchEnv env = std::move(env_result).value();
  const unsigned cpus = std::thread::hardware_concurrency();
  // Stamped before the output file is opened, which would otherwise mark
  // a checkout that tracks it as dirty.
  const std::string machine = MachineFingerprintJson();
  const std::string index_path = dir + "/index.tix";
  auto trusted_result = OpenTrusted(index_path);
  if (!trusted_result.ok()) {
    std::fprintf(stderr, "%s\n", trusted_result.status().ToString().c_str());
    return 1;
  }
  tix::index::InvertedIndex trusted = std::move(trusted_result).value();

  const std::vector<uint64_t> freqs = {100, 1000, 10000};
  const std::vector<size_t> ks = {1, 10, 100, kInfinity};

  std::printf(
      "Top-K threshold pushdown — early-terminating TermJoin vs post-pass\n"
      "corpus: %llu articles, %llu nodes; %u visible CPU(s)\n"
      "scanned = postings consumed by the merge; x = post/push;\n"
      "trust = push on a trust-mode open, first = its first query, "
      "t/v = trust/push\n\n",
      static_cast<unsigned long long>(env.num_articles),
      static_cast<unsigned long long>(env.db->num_nodes()), cpus);
  std::printf("%6s %5s | %9s %9s | %9s %9s %5s | %10s %10s %6s | %8s %8s\n",
              "freq", "k", "post(s)", "push(s)", "trust(s)", "first(s)",
              "t/v", "scanned", "scanned'", "x", "pruned", "blocks");
  PrintRule(124);

  std::vector<Cell> cells;
  for (const uint64_t freq : freqs) {
    const tix::algebra::IrPredicate predicate =
        TwoTermPredicate(Table1Term(1, freq), Table1Term(2, freq));
    const tix::algebra::WeightedCountScorer scorer(predicate.Weights());
    for (const size_t top_k : ks) {
      Cell cell;
      cell.freq = ScaledFreq(freq, env.scale);
      cell.top_k = top_k;
      tix::algebra::ThresholdSpec spec;
      spec.top_k = top_k;

      tix::exec::TermJoinOptions push_options;
      push_options.threshold = spec;

      // Correctness gate: the two pipelines must agree exactly before
      // their timings mean anything.
      {
        tix::exec::TermJoin full(env.db.get(), env.index.get(), &predicate,
                                 &scorer);
        auto all = full.Run();
        if (!all.ok()) {
          std::fprintf(stderr, "%s\n", all.status().ToString().c_str());
          return 1;
        }
        tix::exec::ThresholdOperator threshold(spec);
        for (tix::exec::ScoredElement& element : all.value()) {
          threshold.Push(std::move(element));
        }
        const std::vector<tix::exec::ScoredElement> expected =
            threshold.Finish();
        tix::exec::TermJoin pushdown(env.db.get(), env.index.get(),
                                     &predicate, &scorer, push_options);
        auto got = pushdown.Run();
        if (!got.ok()) {
          std::fprintf(stderr, "%s\n", got.status().ToString().c_str());
          return 1;
        }
        if (got.value() != expected) {
          std::fprintf(stderr, "MISMATCH freq=%llu k=%s: pushdown\n",
                       static_cast<unsigned long long>(freq),
                       TopKName(top_k).c_str());
          return 1;
        }
        // Trust mode must agree too: on a fresh open (this first query
        // builds the doc index of every list it looks up) and on the
        // shared one the timings below reuse.
        auto cold = OpenTrusted(index_path);
        if (!cold.ok()) {
          std::fprintf(stderr, "%s\n", cold.status().ToString().c_str());
          return 1;
        }
        tix::WallTimer first_timer;
        tix::exec::TermJoin first(env.db.get(), &cold.value(), &predicate,
                                  &scorer, push_options);
        auto first_got = first.Run();
        cell.trust_first_seconds = first_timer.ElapsedSeconds();
        tix::exec::TermJoin warm(env.db.get(), &trusted, &predicate, &scorer,
                                 push_options);
        auto warm_got = warm.Run();
        if (!first_got.ok() || !warm_got.ok() ||
            first_got.value() != expected || warm_got.value() != expected) {
          std::fprintf(stderr, "MISMATCH freq=%llu k=%s: trust-mode open\n",
                       static_cast<unsigned long long>(freq),
                       TopKName(top_k).c_str());
          return 1;
        }
        cell.results = expected.size();
        cell.post_scanned = full.stats().occurrences;
        cell.push_scanned = pushdown.stats().occurrences;
        cell.pruned = pushdown.stats().postings_pruned;
        cell.blocks_skipped = pushdown.stats().blocks_skipped;
        cell.docs_pruned = pushdown.stats().docs_pruned;
      }

      cell.post_seconds = Measure(
          [&]() -> tix::Status {
            tix::exec::TermJoin join(env.db.get(), env.index.get(),
                                     &predicate, &scorer);
            TIX_ASSIGN_OR_RETURN(auto all, join.Run());
            tix::exec::ThresholdOperator threshold(spec);
            for (tix::exec::ScoredElement& element : all) {
              threshold.Push(std::move(element));
            }
            (void)threshold.Finish();
            return tix::Status();
          },
          runs);
      const auto pushdown_on = [&](const tix::index::InvertedIndex* index) {
        return Measure(
            [&]() -> tix::Status {
              tix::exec::TermJoin join(env.db.get(), index, &predicate,
                                       &scorer, push_options);
              TIX_ASSIGN_OR_RETURN(auto kept, join.Run());
              (void)kept;
              return tix::Status();
            },
            runs);
      };
      cell.push_seconds = pushdown_on(env.index.get());
      cell.trust_seconds = pushdown_on(&trusted);

      const double ratio =
          cell.push_scanned > 0
              ? static_cast<double>(cell.post_scanned) /
                    static_cast<double>(cell.push_scanned)
              : 0.0;
      std::printf("%6llu %5s | %9.4f %9.4f | %9.4f %9.4f %5.2f | %10llu "
                  "%10llu %5.1fx | %8llu %8llu\n",
                  static_cast<unsigned long long>(cell.freq),
                  TopKName(top_k).c_str(), cell.post_seconds,
                  cell.push_seconds, cell.trust_seconds,
                  cell.trust_first_seconds,
                  cell.trust_seconds / cell.push_seconds,
                  static_cast<unsigned long long>(cell.post_scanned),
                  static_cast<unsigned long long>(cell.push_scanned), ratio,
                  static_cast<unsigned long long>(cell.pruned),
                  static_cast<unsigned long long>(cell.blocks_skipped));
      cells.push_back(cell);
    }
  }

  double worst_trust_ratio = 0;
  for (const Cell& cell : cells) {
    worst_trust_ratio =
        std::max(worst_trust_ratio, cell.trust_seconds / cell.push_seconds);
  }
  const bool latency_gated = runs >= 3;
  const bool gate_passed = !latency_gated || worst_trust_ratio <= kTrustGate;

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(file,
               "{\n"
               "  \"bench\": \"topk_pushdown\",\n"
               "  \"articles\": %llu,\n"
               "  \"nodes\": %llu,\n"
               "  \"visible_cpus\": %u,\n"
               "  \"machine\": %s,\n"
               "  \"runs\": %d,\n"
               "  \"verified\": true,\n"
               "  \"trust_verified\": true,\n"
               "  \"trust_gate\": {\"max_trust_over_verify\": %.2f, "
               "\"worst_trust_over_verify\": %.4f, \"latency_gated\": %s, "
               "\"passed\": %s},\n"
               "  \"cells\": [\n",
               static_cast<unsigned long long>(env.num_articles),
               static_cast<unsigned long long>(env.db->num_nodes()), cpus,
               machine.c_str(), runs, kTrustGate,
               worst_trust_ratio, latency_gated ? "true" : "false",
               gate_passed ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::fprintf(
        file,
        "    {\"term_frequency\": %llu, \"top_k\": \"%s\", "
        "\"results\": %zu,\n"
        "     \"post_pass_seconds\": %.6f, \"pushdown_seconds\": %.6f,\n"
        "     \"trust_pushdown_seconds\": %.6f, "
        "\"trust_first_query_seconds\": %.6f,\n"
        "     \"post_pass_postings_scanned\": %llu, "
        "\"pushdown_postings_scanned\": %llu,\n"
        "     \"postings_pruned\": %llu, \"blocks_skipped\": %llu, "
        "\"docs_pruned\": %llu,\n"
        "     \"postings_scanned_reduction\": %.4f}%s\n",
        static_cast<unsigned long long>(cell.freq),
        TopKName(cell.top_k).c_str(), cell.results, cell.post_seconds,
        cell.push_seconds, cell.trust_seconds, cell.trust_first_seconds,
        static_cast<unsigned long long>(cell.post_scanned),
        static_cast<unsigned long long>(cell.push_scanned),
        static_cast<unsigned long long>(cell.pruned),
        static_cast<unsigned long long>(cell.blocks_skipped),
        static_cast<unsigned long long>(cell.docs_pruned),
        cell.push_scanned > 0 ? static_cast<double>(cell.post_scanned) /
                                    static_cast<double>(cell.push_scanned)
                              : 0.0,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("\nwrote %s\n", out.c_str());
  std::printf("trust/verify pushdown latency: worst %.2fx, gate %.1fx %s\n",
              worst_trust_ratio, kTrustGate,
              !latency_gated ? "(not gated: --runs < 3)"
              : gate_passed  ? "passed"
                             : "FAILED");
  return gate_passed ? 0 : 1;
}
