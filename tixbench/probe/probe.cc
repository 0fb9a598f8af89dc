// tixbench_probe — in-process helper of the tixd end-to-end benchmark
// (tixbench/README.md). Three subcommands:
//
//   corpus --out=DIR --articles=N --seed=S --shards=K
//       Builds the seeded bench corpus once: DIR/single (database plus
//       monolithic index.tix, the layout tixd adopts), DIR/shard<K>_<i>
//       (the same documents dealt round-robin), DIR/terms.tsv (postings
//       per query term) and DIR/corpus.json. Writes DIR/ready last;
//       rebuilds nothing when it is present.
//
//   answer --db=DIR < queries
//       Opens DIR like tixd (segmented, Recover) but in verify mode, and
//       answers each query line exactly as tixd's QUERY frame would, in
//       input order: "OK <len>\n<payload>\n" or
//       "ERR <code> <len>\n<message>\n".
//
//   trace --db=DIR --seed=S < queries
//       Times the benchmark's own calls into single layers and prints
//       one JSON object: Database::Open, SegmentedIndex::Open (trust),
//       ParseQuery, QueryEngine::Execute/RenderXml, NodeStore::Get at 1
//       and kThreads threads, and a cold BlockCursor scan of every
//       posting list the queries name.
//
// Every flag is required; the corpus spec lives in tixbench/gen.py.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_corpus.h"
#include "common/string_util.h"
#include "index/block_cache.h"
#include "index/block_cursor.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "query/parser.h"
#include "server/server.h"
#include "storage/database.h"
#include "workload/corpus.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Threads of `answer` and of the contended NodeStore::Get timing: the
/// benchmark's connection count.
constexpr size_t kThreads = 4;
/// Opens the trace times; each open-time metric is their median.
constexpr size_t kOpenReps = 3;
/// Results rendered per response, as tixd does by default.
const size_t kRenderLimit = tix::server::ServerOptions{}.render_limit;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& what, const tix::Status& status) {
  std::fprintf(stderr, "tixbench_probe: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Check(tix::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

void Check(const tix::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// --name=value flags; anything else is a usage error.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) Usage();
      const size_t eq = arg.find('=');
      values_.emplace_back(arg.substr(2, eq == std::string::npos ? eq : eq - 2),
                           eq == std::string::npos ? "" : arg.substr(eq + 1));
    }
  }
  /// The value of a required flag; a missing or empty one is a usage
  /// error.
  std::string Get(const std::string& name) const {
    for (const auto& [key, value] : values_) {
      if (key == name && !value.empty()) return value;
    }
    Usage();
  }
  uint64_t Number(const std::string& name) const {
    const std::string value = Get(name);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (*end != '\0') Usage();
    return parsed;
  }

  [[noreturn]] static void Usage() {
    std::fprintf(stderr,
                 "usage: tixbench_probe corpus --out=DIR --articles=N "
                 "--seed=S --shards=K\n"
                 "       tixbench_probe answer --db=DIR < queries\n"
                 "       tixbench_probe trace --db=DIR --seed=S < queries\n");
    std::exit(2);
  }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

std::vector<std::string> ReadLines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

void WriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    out << contents;
    if (!out.good()) Die("write " + path, tix::Status::IOError(path));
  }
  std::filesystem::rename(tmp, path);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// ---- corpus ----------------------------------------------------------

int RunCorpus(const Flags& flags) {
  const std::string out = flags.Get("out");
  const uint64_t articles = flags.Number("articles");
  const uint64_t seed = flags.Number("seed");
  const uint64_t shards = flags.Number("shards");
  if (shards == 0) Flags::Usage();
  if (std::filesystem::exists(out + "/ready")) return 0;
  std::filesystem::create_directories(out);

  tix::bench::BenchEnv env = Check(
      tix::bench::GetOrBuildBenchEnv(out + "/single", articles, seed),
      "build corpus");

  // Deal document g to shard g % K, the order tixd's shard-mode id
  // mapping (local * K + shard) reconstructs.
  std::vector<std::unique_ptr<tix::storage::Database>> shard_dbs;
  for (uint64_t i = 0; i < shards; ++i) {
    const std::string dir = tix::StrFormat(
        "%s/shard%llu_%llu", out.c_str(), (unsigned long long)shards,
        (unsigned long long)i);
    std::filesystem::remove_all(dir);
    shard_dbs.push_back(Check(tix::storage::Database::Create(dir), "create " + dir));
  }
  uint64_t xml_bytes = 0;
  const auto& documents = env.db->documents();
  for (size_t g = 0; g < documents.size(); ++g) {
    const auto subtree = Check(env.db->ReconstructSubtree(documents[g].root),
                               "reconstruct " + documents[g].name);
    const std::string xml = tix::xml::SerializeNode(*subtree);
    xml_bytes += xml.size();
    const auto parsed =
        Check(tix::xml::ParseXml(xml, documents[g].name), "reparse");
    Check(shard_dbs[g % shards]->AddDocument(parsed).status(), "shard add");
  }
  for (uint64_t i = 0; i < shards; ++i) {
    const std::string dir = shard_dbs[i]->directory();
    auto index = Check(tix::index::InvertedIndex::Build(shard_dbs[i].get()),
                       "index " + dir);
    Check(index.SaveToFile(dir + "/index.tix"), "save index " + dir);
    Check(shard_dbs[i]->Save(), "save " + dir);
  }

  std::string terms;
  auto add_term = [&](const std::string& term) {
    const tix::index::PostingList* list = env.index->Lookup(term);
    if (list == nullptr || list->empty()) return;
    terms += tix::StrFormat("%s\t%zu\n", term.c_str(), list->size());
  };
  for (uint64_t rank = 0; rank < tix::workload::CorpusOptions{}.vocabulary_size;
       ++rank) {
    add_term(tix::workload::VocabWord(rank));
  }
  for (const uint64_t freq : tix::bench::Table1Freqs()) {
    add_term(tix::bench::Table1Term(1, freq));
    add_term(tix::bench::Table1Term(2, freq));
  }
  for (const auto& query : tix::bench::Table5Queries()) {
    add_term(tix::bench::Table5Term(query.id, 1));
    add_term(tix::bench::Table5Term(query.id, 2));
  }
  WriteFile(out + "/terms.tsv", terms);
  WriteFile(out + "/corpus.json",
            tix::StrFormat("{\"articles\": %llu, \"seed\": %llu, "
                           "\"shards\": %llu, \"documents\": %zu, "
                           "\"nodes\": %llu, \"xml_bytes\": %llu}\n",
                           (unsigned long long)articles,
                           (unsigned long long)seed,
                           (unsigned long long)shards, documents.size(),
                           (unsigned long long)env.db->num_nodes(),
                           (unsigned long long)xml_bytes));
  WriteFile(out + "/ready", "1\n");
  return 0;
}

// ---- answer / trace share tixd's open path ---------------------------

struct Opened {
  std::unique_ptr<tix::storage::Database> db;
  std::unique_ptr<tix::index::SegmentedIndex> index;
};

/// tixd's open path, except that the index is verified on open.
Opened OpenVerified(const std::string& dir) {
  Opened opened;
  opened.db = Check(tix::storage::Database::Open(dir), "open database");
  tix::index::SegmentedIndexOptions options;
  options.load.verify_on_open = true;
  opened.index =
      Check(tix::index::SegmentedIndex::Open(dir, options), "open index");
  Check(opened.index->Recover(opened.db.get()), "recover");
  return opened;
}

/// The payload tixd's QUERY frame carries (server.cc ExecuteQuery).
tix::Result<std::string> Answer(const Opened& opened, const std::string& text) {
  tix::query::QueryEngine engine(opened.db.get(), opened.index->Acquire());
  TIX_ASSIGN_OR_RETURN(tix::query::QueryOutput output, engine.ExecuteText(text));
  TIX_ASSIGN_OR_RETURN(std::string body, engine.RenderXml(output, kRenderLimit));
  return tix::StrFormat("%zu results (anchors %llu, scored %llu)\n",
                        output.results.size(),
                        (unsigned long long)output.stats.anchors,
                        (unsigned long long)output.stats.scored_elements) +
         body;
}

int RunAnswer(const Flags& flags) {
  const Opened opened = OpenVerified(flags.Get("db"));
  const std::vector<std::string> queries = ReadLines(std::cin);
  std::vector<tix::Result<std::string>> answers(
      queries.size(), tix::Status::Internal("not run"));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += kThreads) {
        answers[i] = Answer(opened, queries[i]);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const tix::Result<std::string>& answer : answers) {
    if (answer.ok()) {
      std::cout << "OK " << answer.value().size() << "\n"
                << answer.value() << "\n";
    } else {
      const std::string message = answer.status().message();
      std::cout << "ERR " << static_cast<int>(answer.status().code()) << " "
                << message.size() << "\n"
                << message << "\n";
    }
  }
  std::cout.flush();
  return std::cout.good() ? 0 : 1;
}

// ---- trace -----------------------------------------------------------

/// Appends the Execute and RenderXml seconds of every query, run in turn.
void TimeEngine(const Opened& opened,
                const std::vector<tix::query::Query>& queries,
                std::vector<double>* execute, std::vector<double>* render) {
  for (const auto& query : queries) {
    tix::query::QueryEngine engine(opened.db.get(), opened.index->Acquire());
    auto start = Clock::now();
    auto output = engine.Execute(query);
    execute->push_back(SecondsSince(start));
    if (!output.ok()) Die("execute", output.status());
    start = Clock::now();
    auto rendered = engine.RenderXml(output.value(), kRenderLimit);
    render->push_back(SecondsSince(start));
    if (!rendered.ok()) Die("render", rendered.status());
  }
}

/// Median nanoseconds per NodeStore::Get over `threads` threads each
/// fetching the same seeded id sequence from its own offset.
double TimeFetch(tix::storage::Database* db, const std::vector<uint64_t>& ids,
                 size_t threads) {
  std::vector<double> per_thread(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto start = Clock::now();
      for (size_t i = 0; i < ids.size(); ++i) {
        const auto record =
            db->node_store().Get(ids[(i + t * ids.size() / threads) % ids.size()]);
        if (!record.ok()) Die("fetch", record.status());
      }
      per_thread[t] = SecondsSince(start) * 1e9 / ids.size();
    });
  }
  for (auto& worker : workers) worker.join();
  return Median(per_thread);
}

int RunTrace(const Flags& flags) {
  const std::string dir = flags.Get("db");
  const uint64_t seed = flags.Number("seed");
  const std::vector<std::string> texts = ReadLines(std::cin);
  if (texts.empty()) Flags::Usage();

  std::vector<double> db_open, index_open;
  Opened opened;
  for (size_t r = 0; r < kOpenReps; ++r) {
    opened = Opened{};
    auto start = Clock::now();
    opened.db = Check(tix::storage::Database::Open(dir), "open database");
    db_open.push_back(SecondsSince(start));
    tix::index::SegmentedIndexOptions options;
    options.load.verify_on_open = false;
    start = Clock::now();
    opened.index =
        Check(tix::index::SegmentedIndex::Open(dir, options), "open index");
    index_open.push_back(SecondsSince(start));
    Check(opened.index->Recover(opened.db.get()), "recover");
  }

  std::vector<tix::query::Query> queries;
  std::vector<double> parse;
  for (const std::string& text : texts) {
    std::vector<double> samples;
    for (int r = 0; r < 5; ++r) {
      const auto start = Clock::now();
      auto parsed = tix::query::ParseQuery(text);
      samples.push_back(SecondsSince(start));
      if (!parsed.ok()) Die("parse", parsed.status());
      if (r == 0) queries.push_back(std::move(parsed).value());
    }
    parse.push_back(Median(samples));
  }

  // Warm pass first: tixd is measured after a warm-up too.
  std::vector<double> ignored_exec, ignored_render;
  TimeEngine(opened, queries, &ignored_exec, &ignored_render);
  std::vector<double> exec1, render1;
  TimeEngine(opened, queries, &exec1, &render1);

  std::mt19937_64 rng(seed);
  const uint64_t nodes = opened.db->num_nodes();
  std::vector<uint64_t> ids(200000);
  for (auto& id : ids) id = rng() % nodes;
  TimeFetch(opened.db.get(), ids, 1);  // fills the buffer pool
  const double fetch_1 = TimeFetch(opened.db.get(), ids, 1);
  const double fetch_n = TimeFetch(opened.db.get(), ids, kThreads);

  // Cold scan: with the decoded-block cache off every block decodes.
  std::set<std::string> terms;
  for (const auto& query : queries) {
    if (!query.score.has_value()) continue;
    for (const auto* phrases : {&query.score->primary, &query.score->desirable}) {
      for (const std::string& phrase : *phrases) {
        for (std::string& term : opened.db->tokenizer().TokenizeToTerms(phrase)) {
          terms.insert(std::move(term));
        }
      }
    }
  }
  tix::index::DecodedBlockCache::Instance().Configure(0);
  const auto snapshot = opened.index->Acquire();
  uint64_t postings = 0;
  uint64_t checksum = 0;  // printed, so the scan cannot be optimised away
  const auto scan_start = Clock::now();
  for (size_t s = 0; s < snapshot->num_segments(); ++s) {
    for (const std::string& term : terms) {
      tix::index::BlockCursor cursor(snapshot->segment(s).index().Lookup(term));
      for (size_t i = 0; i < cursor.size(); ++i) {
        checksum += cursor.Get(i).doc_id;
      }
      postings += cursor.size();
    }
  }
  const double scan_seconds = SecondsSince(scan_start);
  tix::index::DecodedBlockCache::Instance().Configure(
      tix::index::kDefaultBlockCacheBytes);

  std::printf(
      "{\"storage.open_ms\": %.6f, \"index.open_ms\": %.6f, "
      "\"query.parse_us\": %.6f, \"query.engine_ms\": %.6f, "
      "\"query.render_ms\": %.6f, "
      "\"storage.fetch_ns_1t\": %.6f, \"storage.fetch_contention_x\": %.6f, "
      "\"index.scan_ms_per_mposting\": %.6f, \"scan_postings\": %llu, "
      "\"scan_checksum\": %llu, \"queries\": %zu, \"threads\": %zu}\n",
      Median(db_open) * 1e3, Median(index_open) * 1e3, Median(parse) * 1e6,
      Median(exec1) * 1e3, Median(render1) * 1e3, fetch_1,
      fetch_1 > 0 ? fetch_n / fetch_1 : 0.0,
      postings > 0 ? scan_seconds * 1e3 / (postings / 1e6) : 0.0,
      (unsigned long long)postings, (unsigned long long)checksum,
      queries.size(), kThreads);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Flags::Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (command == "corpus") return RunCorpus(flags);
  if (command == "answer") return RunAnswer(flags);
  if (command == "trace") return RunTrace(flags);
  Flags::Usage();
}
