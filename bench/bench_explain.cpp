// Observability overhead: times the TermJoin access path and a full
// engine query with metrics collection off (EngineOptions default; no
// obs context installed, counting hooks hit the null thread-local check
// only) versus on (per-query MetricsContext + per-operator spans), and
// emits the measured overhead plus one example EXPLAIN plan to
// BENCH_explain.json.
//
//   ./build/bench/bench_explain [--articles=3000] [--runs=5]
//                               [--freq=1000] [--data-dir=/tmp/tix_bench]
//                               [--out=BENCH_explain.json]
//
// Every off/on pair is measured kRepeats times and the median overhead
// is reported with its min and max, because one pair of ~10 ms readings
// swings by several percent. Within a pair the --runs off and on
// readings alternate (off first on even runs, on first on odd ones), so
// host drift during the pair lands on both sides alike instead of
// reading as overhead; each side is the trimmed mean of its readings.
//
// The acceptance bar is the *off* column: with metrics disabled the
// instrumented engine must stay within noise (< 2%) of the pre-layer
// engine, i.e. the hooks themselves must be free. The on/off delta is
// also reported — that is the price of EXPLAIN ANALYZE when a caller
// asks for it.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_corpus.h"
#include "bench/bench_util.h"
#include "bench/table_runner.h"
#include "common/obs.h"
#include "query/engine.h"

namespace {

constexpr int kRepeats = 5;

struct Variant {
  std::string name;
  size_t outputs = 0;
  /// One entry per repeat.
  std::vector<double> seconds_off = {};
  std::vector<double> seconds_on = {};
  std::vector<double> overhead_pct = {};
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tix::bench;
  const Flags flags(argc, argv);
  const uint64_t articles = flags.GetInt("articles", 3000);
  const int runs = static_cast<int>(flags.GetInt("runs", 5));
  const uint64_t freq = flags.GetInt("freq", 1000);
  const std::string dir = flags.GetString("data-dir", "/tmp/tix_bench");
  const std::string out = flags.GetString("out", "BENCH_explain.json");

  auto env_result = GetOrBuildBenchEnv(dir, articles, flags.GetInt("seed", 42));
  if (!env_result.ok()) {
    std::fprintf(stderr, "%s\n", env_result.status().ToString().c_str());
    return 1;
  }
  BenchEnv env = std::move(env_result).value();
  // Stamped before the output file is opened, which would otherwise mark
  // a checkout that tracks it as dirty.
  const std::string machine = MachineFingerprintJson();

  const tix::algebra::IrPredicate two_term =
      TwoTermPredicate(Table1Term(1, freq), Table1Term(2, freq));
  const tix::algebra::WeightedCountScorer simple(two_term.Weights());
  const tix::algebra::ComplexProximityScorer complex_scorer(two_term.Weights());

  std::vector<Variant> variants = {
      {"term_join_simple"},
      {"term_join_complex"},
      {"engine_query"},
  };

  // The engine query runs the whole pipeline (anchors, scored TermJoin,
  // threshold) over the first synthetic article's document.
  const std::string query_text =
      "FOR $a IN document(\"article0.xml\")//article//* "
      "SCORE $a USING foo({\"" + Table1Term(1, freq) + "\"}, {\"" +
      Table1Term(2, freq) + "\"}) "
      "THRESHOLD STOP AFTER 10 "
      "RETURN $a";

  // Each timer takes one reading.
  auto run_term_join = [&](const tix::algebra::Scorer* scorer,
                           bool with_metrics, size_t* outputs) {
    return Measure(
        [&]() -> tix::Status {
          tix::obs::MetricsContext context;
          std::optional<tix::obs::ScopedMetrics> scope;
          if (with_metrics) scope.emplace(&context);
          tix::exec::TermJoin method(env.db.get(), env.index.get(), &two_term,
                                     scorer);
          auto result = method.Run();
          if (result.ok() && outputs != nullptr) {
            *outputs = result.value().size();
          }
          return result.status();
        },
        1);
  };
  auto run_engine = [&](bool with_metrics, size_t* outputs) {
    return Measure(
        [&]() -> tix::Status {
          tix::query::EngineOptions options;
          options.collect_metrics = with_metrics;
          tix::query::QueryEngine engine(env.db.get(), env.index.get(),
                                         options);
          auto result = engine.ExecuteText(query_text);
          if (result.ok() && outputs != nullptr) {
            *outputs = result.value().results.size();
          }
          return result.status();
        },
        1);
  };
  // `runs` interleaved readings per side of one off/on pair.
  auto measure_pair = [&](const std::function<double(bool)>& time_one,
                          double* off, double* on) {
    std::vector<double> off_readings;
    std::vector<double> on_readings;
    for (int run = 0; run < std::max(1, runs); ++run) {
      if (run % 2 == 0) {
        off_readings.push_back(time_one(false));
        on_readings.push_back(time_one(true));
      } else {
        on_readings.push_back(time_one(true));
        off_readings.push_back(time_one(false));
      }
    }
    *off = TrimmedMean(std::move(off_readings));
    *on = TrimmedMean(std::move(on_readings));
  };

  std::printf(
      "Observability overhead — metrics off vs on\n"
      "corpus: %llu articles, %llu nodes; term freq %llu; %d runs x %d "
      "repeats\n\n",
      static_cast<unsigned long long>(env.num_articles),
      static_cast<unsigned long long>(env.db->num_nodes()),
      static_cast<unsigned long long>(ScaledFreq(freq, env.scale)), runs,
      kRepeats);
  std::printf("%18s %3s | %10s %10s | %9s\n", "variant", "rep", "off(s)",
              "on(s)", "overhead");
  PrintRule(60);

  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (Variant& variant : variants) {
      double off = 0;
      double on = 0;
      if (variant.name == "engine_query") {
        run_engine(false, &variant.outputs);  // warm caches before timing
        measure_pair(
            [&](bool with_metrics) {
              return run_engine(with_metrics, nullptr);
            },
            &off, &on);
      } else {
        const tix::algebra::Scorer* scorer =
            variant.name == "term_join_simple"
                ? static_cast<const tix::algebra::Scorer*>(&simple)
                : &complex_scorer;
        // Warm caches before timing.
        run_term_join(scorer, false, &variant.outputs);
        measure_pair(
            [&](bool with_metrics) {
              return run_term_join(scorer, with_metrics, nullptr);
            },
            &off, &on);
      }
      variant.seconds_off.push_back(off);
      variant.seconds_on.push_back(on);
      variant.overhead_pct.push_back(off > 0 ? (on - off) / off * 100.0 : 0.0);
      std::printf("%18s %3d | %10.4f %10.4f | %8.2f%%\n",
                  variant.name.c_str(), repeat, off, on,
                  variant.overhead_pct.back());
    }
  }
  std::printf("\n%18s | %8s %8s %8s\n", "overhead", "median", "min", "max");
  for (const Variant& variant : variants) {
    std::printf("%18s | %7.2f%% %7.2f%% %7.2f%%\n", variant.name.c_str(),
                Median(variant.overhead_pct),
                *std::min_element(variant.overhead_pct.begin(),
                                  variant.overhead_pct.end()),
                *std::max_element(variant.overhead_pct.begin(),
                                  variant.overhead_pct.end()));
  }

  // One metrics-on engine run for the example plan in the JSON.
  std::string example_plan = "{}";
  {
    tix::query::EngineOptions options;
    options.collect_metrics = true;
    tix::query::QueryEngine engine(env.db.get(), env.index.get(), options);
    auto result = engine.ExecuteText(query_text);
    if (result.ok() && result.value().plan.has_value()) {
      example_plan = tix::obs::RenderJson(*result.value().plan);
      if (!example_plan.empty() && example_plan.back() == '\n') {
        example_plan.pop_back();
      }
    }
  }

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(file,
               "{\n"
               "  \"bench\": \"explain_overhead\",\n"
               "  \"articles\": %llu,\n"
               "  \"nodes\": %llu,\n"
               "  \"term_frequency\": %llu,\n"
               "  \"machine\": %s,\n"
               "  \"runs\": %d,\n"
               "  \"repeats\": %d,\n"
               "  \"variants\": [\n",
               static_cast<unsigned long long>(env.num_articles),
               static_cast<unsigned long long>(env.db->num_nodes()),
               static_cast<unsigned long long>(ScaledFreq(freq, env.scale)),
               machine.c_str(), runs, kRepeats);
  for (size_t i = 0; i < variants.size(); ++i) {
    const Variant& variant = variants[i];
    std::fprintf(
        file,
        "    {\"name\": \"%s\", \"outputs\": %zu,\n"
        "     \"seconds_metrics_off\": %.6f, \"seconds_metrics_on\": %.6f,\n"
        "     \"overhead_pct\": %.4f, \"overhead_pct_min\": %.4f, "
        "\"overhead_pct_max\": %.4f}%s\n",
        variant.name.c_str(), variant.outputs, Median(variant.seconds_off),
        Median(variant.seconds_on), Median(variant.overhead_pct),
        *std::min_element(variant.overhead_pct.begin(),
                          variant.overhead_pct.end()),
        *std::max_element(variant.overhead_pct.begin(),
                          variant.overhead_pct.end()),
        i + 1 < variants.size() ? "," : "");
  }
  std::fprintf(file,
               "  ],\n"
               "  \"example_plan\": %s\n"
               "}\n",
               example_plan.c_str());
  std::fclose(file);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
