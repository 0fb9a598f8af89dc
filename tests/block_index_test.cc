#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/reference_eval.h"
#include "algebra/scoring.h"
#include "algebra/threshold.h"
#include "common/block_codec.h"
#include "common/obs.h"
#include "common/varint.h"
#include "exec/parallel_term_join.h"
#include "exec/phrase_query.h"
#include "exec/term_join.h"
#include "index/block_cache.h"
#include "index/block_cursor.h"
#include "index/inverted_index.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"

/// \file
/// Block-compressed posting lists: the codec, the list builder and its
/// seek metadata, the decoded-block cache, the lazy cursor, and — the
/// load-bearing contract — query results over the compressed index that
/// match the reference evaluator (which scans stored text, never the
/// index), at every partition count and top-K setting, over seeded
/// random corpora; plus the v4 portable and SIMD kernels agreeing on
/// every block of those corpora. Also on-disk compatibility (format
/// versions 1/2/3/4, including v3<->v4 transcode round-trips) and
/// fuzzed corruption of both block formats. Kernel-level differential
/// fuzzing lives in codec_test.cc. Runs under TSan and ASan/UBSan via
/// scripts/check_sanitizers.sh.

namespace tix::index {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// Local copies of the on-disk magic numbers (deliberately file-local in
// inverted_index.cc): the legacy writers below must keep producing
// version 1/2 files even if the production constants ever move.
constexpr uint64_t kMagicV1 = 0x5449581049445801ULL;
constexpr uint64_t kMagicV2 = 0x5449581049445802ULL;
constexpr uint64_t kMagicV3 = 0x5449581049445803ULL;
constexpr uint64_t kMagicV4 = 0x5449581049445804ULL;

constexpr codec::TailFormat kBothFormats[] = {codec::TailFormat::kV3,
                                              codec::TailFormat::kV4};

/// Restores the process-wide cache to its default size when a test that
/// reconfigured it leaves scope.
struct CacheConfigGuard {
  ~CacheConfigGuard() {
    DecodedBlockCache::Instance().Configure(kDefaultBlockCacheBytes);
    DecodedBlockCache::Instance().Clear();
  }
};

/// `total` postings spread over `docs` documents: positions strictly
/// ascending within each doc, node ids non-decreasing (a few postings
/// per node).
std::vector<Posting> MakeSyntheticPostings(uint32_t total, uint32_t docs) {
  std::vector<Posting> postings;
  const uint32_t per_doc = (total + docs - 1) / docs;
  for (uint32_t i = 0; i < total; ++i) {
    const uint32_t doc = i / per_doc;
    const uint32_t local = i % per_doc;
    Posting posting;
    posting.doc_id = doc;
    posting.node_id = doc * 1000 + local / 5;
    posting.word_pos = local * 3 + 1;
    postings.push_back(posting);
  }
  return postings;
}

PostingList MakeSyntheticList(uint32_t total, uint32_t docs) {
  return Unwrap(PostingList::Build(MakeSyntheticPostings(total, docs)));
}

// ---------------------------------------------------------- block codec

TEST(BlockCodecTest, RoundTripsBlocksOfEverySize) {
  for (const codec::TailFormat format : kBothFormats) {
    for (const size_t count : {size_t{1}, size_t{2}, size_t{7}, size_t{127},
                               size_t{128}}) {
      std::vector<uint32_t> triples;
      uint32_t doc = 5;
      for (size_t i = 0; i < count; ++i) {
        if (i % 3 == 0 && i > 0) doc += 2;  // several postings per doc
        triples.push_back(doc);
        triples.push_back(doc * 10 + static_cast<uint32_t>(i));
        triples.push_back(static_cast<uint32_t>(i) * 4 + 1);
      }
      std::string bytes;
      codec::EncodeBlockTail(format, triples.data(), count, &bytes);
      if (count == 1) {
        EXPECT_TRUE(bytes.empty());
      }
      std::vector<uint32_t> decoded(triples.size());
      decoded[0] = triples[0];
      decoded[1] = triples[1];
      decoded[2] = triples[2];
      ExpectOk(codec::DecodeBlockTail(format, bytes, count, decoded.data()));
      EXPECT_EQ(decoded, triples)
          << "count=" << count << " format=" << static_cast<int>(format);
    }
  }
}

TEST(BlockCodecTest, RejectsTruncatedAndOverlongTails) {
  for (const codec::TailFormat format : kBothFormats) {
    std::vector<uint32_t> triples;
    for (uint32_t i = 0; i < 16; ++i) {
      triples.push_back(i);          // one posting per doc
      triples.push_back(i * 7);      // absolute node each time
      triples.push_back(i * 31 + 1);
    }
    std::string bytes;
    codec::EncodeBlockTail(format, triples.data(), 16, &bytes);
    std::vector<uint32_t> out(triples.size());
    out[0] = triples[0];
    out[1] = triples[1];
    out[2] = triples[2];
    // Every strict prefix must fail (truncation mid-varint, mid-triple,
    // or — v4 — inside the control or data regions).
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(
          codec::DecodeBlockTail(format, std::string_view(bytes).substr(0, len),
                                 16, out.data())
              .ok())
          << "prefix " << len << " format=" << static_cast<int>(format);
    }
    // Trailing garbage must fail too: a block tail is exact.
    EXPECT_FALSE(
        codec::DecodeBlockTail(format, bytes + '\0', 16, out.data()).ok());
  }
  // A v3 varint claiming more than 32 bits must fail.
  std::vector<uint32_t> out(6);
  const std::string overflow("\xff\xff\xff\xff\xff", 5);
  EXPECT_FALSE(codec::DecodeBlockTail(codec::TailFormat::kV3, overflow, 2,
                                      out.data())
                   .ok());
}

// --------------------------------------------------- Build / DecodeAll

TEST(PostingListBuildTest, BuildPreservesEveryPosting) {
  for (const codec::TailFormat format : kBothFormats) {
    for (const uint32_t total : {0u, 1u, 127u, 128u, 129u, 1000u}) {
      const std::vector<Posting> postings = MakeSyntheticPostings(total, 9);
      const PostingList list = Unwrap(PostingList::Build(postings, format));
      EXPECT_EQ(list.tail_format, format);
      EXPECT_EQ(list.size(), total);
      EXPECT_EQ(list.num_blocks(),
                (total + kSkipInterval - 1) / kSkipInterval);
      EXPECT_EQ(list.cache_id != 0, total > 0);
      EXPECT_EQ(list.DecodeAll(), postings);
      ExpectOk(list.DebugCheckSorted());
      // Frequencies against a brute-force count of the input.
      uint32_t df = 0;
      uint32_t nf = 0;
      for (size_t i = 0; i < postings.size(); ++i) {
        const bool new_doc =
            i == 0 || postings[i].doc_id != postings[i - 1].doc_id;
        if (new_doc) ++df;
        if (new_doc || postings[i].node_id != postings[i - 1].node_id) ++nf;
      }
      EXPECT_EQ(list.doc_frequency, df);
      EXPECT_EQ(list.node_frequency, nf);
      // Blocks-resident bytes must undercut the 12-byte struct by a wide
      // margin on delta-friendly data (tiny lists pay the string's SSO
      // floor, so only judge real multi-block lists).
      if (total >= kSkipInterval) {
        EXPECT_LT(list.PostingBytes() * 3, size_t{12} * total);
      }
    }
  }
}

TEST(PostingListBuildTest, SeekMetadataMatchesBruteForce) {
  const std::vector<Posting> postings = MakeSyntheticPostings(900, 30);
  const PostingList list = Unwrap(PostingList::Build(postings));
  const auto lower_bound_doc = [&](storage::DocId doc) {
    size_t i = 0;
    while (i < postings.size() && postings[i].doc_id < doc) ++i;
    return i;
  };
  const auto doc_count = [&](storage::DocId doc) {
    uint32_t count = 0;
    for (const Posting& posting : postings) count += posting.doc_id == doc;
    return count;
  };
  for (uint32_t doc = 0; doc <= 31; ++doc) {
    const size_t lower = lower_bound_doc(doc);
    EXPECT_EQ(list.LowerBoundDoc(doc), lower) << "doc " << doc;
    EXPECT_EQ(list.DocPostingCount(doc), doc_count(doc)) << "doc " << doc;
    EXPECT_EQ(list.FirstDocAtOrAfter(doc),
              lower < postings.size() ? postings[lower].doc_id : UINT32_MAX)
        << "doc " << doc;
    // The block covering the first posting at or after `doc` bounds
    // every document it touches by that document's total count.
    const auto bound = list.BlockBoundAt(doc);
    if (lower == postings.size()) {
      EXPECT_EQ(bound.max_doc_count, 0u) << "doc " << doc;
      EXPECT_EQ(bound.window_end, UINT32_MAX) << "doc " << doc;
      continue;
    }
    const size_t block = lower / kSkipInterval;
    const size_t block_end =
        std::min<size_t>(postings.size(), (block + 1) * kSkipInterval);
    uint32_t max_count = 0;
    for (size_t i = block * kSkipInterval; i < block_end; ++i) {
      max_count = std::max(max_count, doc_count(postings[i].doc_id));
    }
    EXPECT_EQ(bound.max_doc_count, max_count) << "doc " << doc;
    EXPECT_EQ(bound.window_end,
              block_end < postings.size()
                  ? std::max(postings[block_end].doc_id, doc + 1)
                  : UINT32_MAX)
        << "doc " << doc;
  }
  for (const size_t from : {size_t{0}, size_t{100}, size_t{500}}) {
    const size_t jumped = list.SkipForward(from, 17, 10);
    size_t exact = 0;
    while (exact < postings.size() &&
           (postings[exact].doc_id < 17 ||
            (postings[exact].doc_id == 17 && postings[exact].word_pos < 10))) {
      ++exact;
    }
    EXPECT_GE(jumped, from);
    EXPECT_LE(jumped, std::max(from, exact)) << "from " << from;
    EXPECT_LE(std::max(from, exact) - jumped, size_t{kSkipInterval})
        << "from " << from;
  }
}

TEST(PostingListBuildTest, BuildDerivesWhatTheValidatingPassDerives) {
  // Build takes doc_offsets and block-max bounds from its input; the
  // loader's FinishCompressed takes them from the decoded blocks. Both
  // must agree, including documents straddling block boundaries (43
  // postings per document against 128-posting blocks).
  for (const codec::TailFormat format : kBothFormats) {
    for (const uint32_t total : {1u, 128u, 129u, 1000u}) {
      const PostingList built =
          Unwrap(PostingList::Build(MakeSyntheticPostings(total, 23), format));
      PostingList rederived = built;
      for (SkipEntry& skip : rederived.skips) skip.max_doc_count = 7777;
      rederived.doc_offsets.clear();
      ExpectOk(rederived.FinishCompressed());
      EXPECT_EQ(rederived.doc_offsets, built.doc_offsets) << total;
      EXPECT_EQ(rederived.doc_offsets.capacity(),
                built.doc_offsets.capacity())
          << total;
      EXPECT_EQ(rederived.max_doc_count, built.max_doc_count) << total;
      ASSERT_EQ(rederived.skips.size(), built.skips.size());
      for (size_t b = 0; b < built.skips.size(); ++b) {
        EXPECT_EQ(rederived.skips[b].max_doc_count,
                  built.skips[b].max_doc_count)
            << total << " block " << b;
      }
    }
  }
}

TEST(PostingListBuildTest, DistinctListsGetDistinctCacheIds) {
  PostingList a = MakeSyntheticList(200, 4);
  PostingList b = MakeSyntheticList(200, 4);
  EXPECT_NE(a.cache_id, 0u);
  EXPECT_NE(a.cache_id, b.cache_id);
}

// -------------------------------------------------------- decoded cache

TEST(DecodedBlockCacheTest, HitsMissesAndEvictionsAreCounted) {
  CacheConfigGuard guard;
  DecodedBlockCache& cache = DecodedBlockCache::Instance();
  cache.Clear();
  cache.Configure(kDefaultBlockCacheBytes);

  PostingList list = MakeSyntheticList(1000, 10);  // 8 blocks
  const BlockCacheStats before = cache.Stats();
  {
    BlockCursor cursor(&list);
    for (size_t i = 0; i < cursor.size(); ++i) (void)cursor.Get(i);
  }
  const BlockCacheStats after_first = cache.Stats();
  EXPECT_EQ(after_first.misses - before.misses, list.num_blocks());
  EXPECT_EQ(after_first.inserts - before.inserts, list.num_blocks());
  {
    BlockCursor cursor(&list);
    for (size_t i = 0; i < cursor.size(); ++i) (void)cursor.Get(i);
  }
  const BlockCacheStats after_second = cache.Stats();
  EXPECT_EQ(after_second.hits - after_first.hits, list.num_blocks());
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GE(after_second.entries, uint64_t{list.num_blocks()});
}

TEST(DecodedBlockCacheTest, CapacityZeroDisablesResidency) {
  CacheConfigGuard guard;
  DecodedBlockCache& cache = DecodedBlockCache::Instance();
  cache.Configure(0);
  cache.Clear();

  PostingList list = MakeSyntheticList(600, 6);
  BlockCursor cursor(&list);
  std::vector<Posting> seen;
  for (size_t i = 0; i < cursor.size(); ++i) seen.push_back(cursor.Get(i));
  // Reads still work (Insert passes the block through) …
  EXPECT_EQ(seen, list.DecodeAll());
  // … but nothing stays resident and nothing ever hits.
  const BlockCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(DecodedBlockCacheTest, TinyCapacityEvictsButNeverCorruptsReads) {
  CacheConfigGuard guard;
  DecodedBlockCache& cache = DecodedBlockCache::Instance();
  cache.Clear();
  // One entry per shard at most: repeated full scans of a 24-block list
  // must evict constantly.
  cache.Configure(16 * (sizeof(DecodedBlock) + 96));

  PostingList list = MakeSyntheticList(3000, 25);  // 24 blocks
  const std::vector<Posting> expected = list.DecodeAll();
  const BlockCacheStats before = cache.Stats();
  for (int pass = 0; pass < 3; ++pass) {
    BlockCursor cursor(&list);
    for (size_t i = 0; i < cursor.size(); ++i) {
      ASSERT_EQ(cursor.Get(i), expected[i]) << "pass " << pass << " @" << i;
    }
  }
  const BlockCacheStats after = cache.Stats();
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_LE(after.bytes, cache.capacity_bytes());
}

// --------------------------------------------------------- block cursor

TEST(BlockCursorTest, DecodedBlocksNeverExceedBlocksScanned) {
  CacheConfigGuard guard;
  DecodedBlockCache::Instance().Configure(kDefaultBlockCacheBytes);
  DecodedBlockCache::Instance().Clear();
  PostingList list = MakeSyntheticList(1200, 8);
  obs::MetricsContext metrics;
  {
    const obs::ScopedMetrics scope(&metrics);
    BlockCursor cursor(&list);
    // Random-ish access pattern: forward, backward, strided.
    for (size_t i = 0; i < cursor.size(); i += 17) (void)cursor.Get(i);
    for (size_t i = cursor.size(); i-- > 0;) {
      (void)cursor.Get(i);
      if (i < 50) break;
    }
  }
  const uint64_t scanned = metrics.value(obs::Counter::kIndexBlocksScanned);
  const uint64_t decoded = metrics.value(obs::Counter::kIndexBlocksDecoded);
  const uint64_t hits = metrics.value(obs::Counter::kIndexBlockCacheHits);
  EXPECT_GT(scanned, 0u);
  EXPECT_LE(decoded, scanned);
  EXPECT_EQ(decoded + hits, scanned);  // every load is a hit or a decode
}

// ---------------------------------------------------- corpus scaffolding

struct Corpus {
  TempDir dir;
  std::unique_ptr<storage::Database> db;
};

std::unique_ptr<Corpus> MakeCorpusDb(uint64_t articles, uint64_t seed) {
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
  return corpus;
}

algebra::IrPredicate ThreePhrasePredicate() {
  algebra::IrPredicate predicate;
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq1"}, 0.8});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq2"}, 0.6});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xpa", "xpb"}, 0.7});
  return predicate;
}

void ExpectIdentical(const std::vector<exec::ScoredElement>& actual,
                     const std::vector<exec::ScoredElement>& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << label << " @" << i;
    EXPECT_EQ(actual[i].doc, expected[i].doc) << label << " @" << i;
    EXPECT_EQ(actual[i].start, expected[i].start) << label << " @" << i;
    EXPECT_EQ(actual[i].end, expected[i].end) << label << " @" << i;
    EXPECT_EQ(actual[i].counts, expected[i].counts) << label << " @" << i;
    // Exact: both representations feed the very same merge code.
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " @" << i;
  }
}

/// Checks `actual` (a TermJoin's output) against `expected` (reference
/// results in the same order): same nodes, same per-phrase counts, and
/// scores equal up to summation order.
void ExpectMatchesReference(
    const std::vector<exec::ScoredElement>& actual,
    const std::vector<algebra::ScoredNodeResult>& expected,
    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << label << " @" << i;
    EXPECT_EQ(actual[i].counts, expected[i].counts) << label << " @" << i;
    EXPECT_NEAR(actual[i].score, expected[i].score, 1e-9)
        << label << " @" << i;
  }
}

/// Per text node, the occurrences of the adjacent in-order phrase
/// `terms`, found by scanning the stored text (the reference evaluator's
/// definition) rather than the index.
std::vector<exec::PhraseResult> ScanPhrase(
    storage::Database* db, const std::vector<std::string>& terms) {
  algebra::IrPredicate phrase;
  phrase.phrases.push_back(algebra::WeightedPhrase{terms, 1.0});
  std::vector<exec::PhraseResult> out;
  for (storage::NodeId id = 0; id < db->num_nodes(); ++id) {
    const storage::NodeRecord record = Unwrap(db->GetNode(id));
    if (!record.is_text()) continue;
    const algebra::SubtreeOccurrences found =
        Unwrap(algebra::ScanSubtreeOccurrences(db, id, phrase));
    if (found.counts[0] > 0) {
      out.push_back(exec::PhraseResult{id, record.doc_id, found.counts[0]});
    }
  }
  return out;
}

// ------------------------------------------------ reference equivalence

// The tentpole contract: over seeded corpora, every query path over the
// block-compressed index answers exactly what the reference evaluator
// computes from the stored text — full TermJoin, PhraseFinder, and top-K
// pushdown at 1/2/4/8 partitions against the reference thresholded the
// same way (ties in document order, which is node-id order).
TEST(CompressedEquivalenceTest, TwentySeededCorpora) {
  constexpr size_t kInfinity = 1000000000;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/2000 + seed * 13);
    index::InvertedIndex compressed =
        Unwrap(InvertedIndex::Build(corpus->db.get()));
    const std::string label_base = "seed=" + std::to_string(seed);

    const algebra::IrPredicate predicate = ThreePhrasePredicate();
    const algebra::WeightedCountScorer scorer(predicate.Weights());
    // Ascending node id, every element with at least one occurrence.
    const std::vector<algebra::ScoredNodeResult> reference = Unwrap(
        algebra::ReferenceScoreAllElements(corpus->db.get(), predicate,
                                           scorer));
    ASSERT_FALSE(reference.empty()) << label_base;

    // Full merge.
    exec::TermJoin join(corpus->db.get(), &compressed, &predicate, &scorer);
    std::vector<exec::ScoredElement> full = Unwrap(join.Run());
    std::sort(full.begin(), full.end(),
              [](const exec::ScoredElement& a, const exec::ScoredElement& b) {
                return a.node < b.node;
              });
    ExpectMatchesReference(full, reference, label_base + "/full");

    // PhraseFinder.
    exec::PhraseFinderQuery phrase(corpus->db.get(), &compressed,
                                   {"xpa", "xpb"});
    const std::vector<exec::PhraseResult> phrase_expected =
        ScanPhrase(corpus->db.get(), {"xpa", "xpb"});
    ASSERT_FALSE(phrase_expected.empty()) << label_base;
    EXPECT_EQ(Unwrap(phrase.Run()), phrase_expected) << label_base;

    // Top-K pushdown across partition counts.
    for (const size_t top_k : {size_t{1}, size_t{3}, kInfinity}) {
      algebra::ThresholdSpec spec;
      spec.top_k = top_k;
      std::vector<algebra::ScoredNodeResult> expected;
      for (const size_t i : algebra::ApplyThreshold(
               reference.size(), [&](size_t j) { return reference[j].score; },
               spec)) {
        expected.push_back(reference[i]);
      }
      const std::string label =
          label_base + "/k=" + std::to_string(top_k);
      for (const size_t partitions : {1u, 2u, 4u, 8u}) {
        exec::ParallelTermJoinOptions options;
        options.join.threshold = spec;
        options.num_partitions = partitions;
        options.num_threads = 4;
        exec::ParallelTermJoin parallel(corpus->db.get(), &compressed,
                                        &predicate, &scorer, options);
        ExpectMatchesReference(Unwrap(parallel.Run()), expected,
                               label + "/p" + std::to_string(partitions));
      }
    }
  }
}

// BlockCursor reaches postings only through DecodeBlock, which runs the
// SIMD kernel on v4 lists wherever the CPU allows; the portable v4 loop
// must decode every block of the same corpora to the same triples with
// the same Status, so machines without SSSE3/SSE4.1 read identical
// postings.
TEST(CompressedEquivalenceTest, PortableAndSimdV4KernelsAgreeOnCorpora) {
  const bool simd = codec::DecodeKernelAvailable(codec::DecodeKernel::kSimd);
  const codec::DecodeKernel other =
      simd ? codec::DecodeKernel::kSimd : codec::DecodeKernel::kScalar;
  uint64_t blocks = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/2000 + seed * 13);
    const index::InvertedIndex index =
        Unwrap(InvertedIndex::Build(corpus->db.get(), codec::TailFormat::kV4));
    for (text::TermId id = 0; id < index.stats().num_terms; ++id) {
      const PostingList* list = index.LookupId(id);
      ASSERT_EQ(list->tail_format, codec::TailFormat::kV4);
      for (uint32_t b = 0; b < list->num_blocks(); ++b) {
        const SkipEntry& head = list->skips[b];
        const std::string_view tail =
            list->block_bytes().substr(head.byte_offset, head.byte_length);
        const uint32_t count = list->BlockPostingCount(b);
        std::vector<uint32_t> portable(3 * count);
        portable[0] = head.doc_id;
        portable[1] = head.first_node;
        portable[2] = head.word_pos;
        std::vector<uint32_t> vector = portable;
        const Status portable_status = codec::DecodeBlockTailWithKernel(
            codec::TailFormat::kV4, codec::DecodeKernel::kScalar, tail, count,
            portable.data());
        const Status vector_status = codec::DecodeBlockTailWithKernel(
            codec::TailFormat::kV4, other, tail, count, vector.data());
        ASSERT_EQ(vector_status.ToString(), portable_status.ToString())
            << "seed " << seed << " term " << id << " block " << b;
        ExpectOk(portable_status);
        ASSERT_EQ(vector, portable)
            << "seed " << seed << " term " << id << " block " << b;
        ++blocks;
      }
    }
  }
  EXPECT_GT(blocks, 0u);
}

// index_blocks_decoded_simd counts only blocks the SIMD kernel decoded:
// none for a v3 index (v3 always decodes with its scalar loop), every
// decoded block for a v4 index on a machine with SSSE3/SSE4.1.
TEST(CompressedEquivalenceTest, SimdCounterChargesOnlySimdDecodes) {
  CacheConfigGuard guard;
  DecodedBlockCache::Instance().Configure(0);
  DecodedBlockCache::Instance().Clear();
  auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/31);
  const InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
  const bool simd = codec::DecodeKernelAvailable(codec::DecodeKernel::kSimd);
  for (const int version : {3, 4}) {
    const std::string path =
        corpus->dir.path() + "/v" + std::to_string(version) + ".tix";
    ExpectOk(built.SaveToFile(path, version));
    const InvertedIndex loaded = Unwrap(InvertedIndex::LoadFromFile(path));
    obs::MetricsContext metrics;
    {
      const obs::ScopedMetrics scope(&metrics);
      for (text::TermId id = 0; id < loaded.stats().num_terms; ++id) {
        BlockCursor cursor(loaded.LookupId(id));
        for (size_t i = 0; i < cursor.size(); ++i) (void)cursor.Get(i);
      }
    }
    const uint64_t decoded = metrics.value(obs::Counter::kIndexBlocksDecoded);
    EXPECT_GT(decoded, 0u) << "v" << version;
    EXPECT_EQ(metrics.value(obs::Counter::kIndexBlocksDecodedSimd),
              version == 4 && simd ? decoded : 0u)
        << "v" << version;
  }
}

// v3 and v4 are the same index in different tail encodings: over seeded
// corpora, a v3 save/load and a v3->v4 transcode round-trip must answer
// every query path byte-identically to the freshly built index — full
// TermJoin, PhraseFinder, and top-K pushdown across partition counts.
TEST(CompressedEquivalenceTest, FormatsAnswerQueriesIdentically) {
  constexpr size_t kInfinity = 1000000000;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/4000 + seed * 17);
    index::InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
    const std::string v3_path = corpus->dir.path() + "/fmt.v3.tix";
    const std::string v4_path = corpus->dir.path() + "/fmt.v4.tix";
    ExpectOk(built.SaveToFile(v3_path, 3));
    index::InvertedIndex v3 = Unwrap(InvertedIndex::LoadFromFile(v3_path));
    ExpectOk(v3.SaveToFile(v4_path, 4));  // transcode: decode v3, encode v4
    index::InvertedIndex v4 = Unwrap(InvertedIndex::LoadFromFile(v4_path));
    ASSERT_EQ(v3.tail_format(), codec::TailFormat::kV3);
    ASSERT_EQ(v4.tail_format(), codec::TailFormat::kV4);
    const std::string label_base = "seed=" + std::to_string(seed);

    const algebra::IrPredicate predicate = ThreePhrasePredicate();
    const algebra::WeightedCountScorer scorer(predicate.Weights());

    exec::TermJoin join_b(corpus->db.get(), &built, &predicate, &scorer);
    const std::vector<exec::ScoredElement> full = Unwrap(join_b.Run());
    for (index::InvertedIndex* index : {&v3, &v4}) {
      const std::string label =
          label_base + (index == &v3 ? "/v3" : "/v4");
      exec::TermJoin join(corpus->db.get(), index, &predicate, &scorer);
      ExpectIdentical(Unwrap(join.Run()), full, label + "/full");

      exec::PhraseFinderQuery phrase_b(corpus->db.get(), &built,
                                       {"xpa", "xpb"});
      exec::PhraseFinderQuery phrase(corpus->db.get(), index, {"xpa", "xpb"});
      EXPECT_EQ(Unwrap(phrase.Run()), Unwrap(phrase_b.Run())) << label;

      for (const size_t top_k : {size_t{1}, size_t{3}, kInfinity}) {
        algebra::ThresholdSpec spec;
        spec.top_k = top_k;
        exec::TermJoinOptions serial_options;
        serial_options.threshold = spec;
        exec::TermJoin topk_b(corpus->db.get(), &built, &predicate, &scorer,
                              serial_options);
        const std::vector<exec::ScoredElement> expected =
            Unwrap(topk_b.Run());
        for (const size_t partitions : {1u, 2u, 4u}) {
          exec::ParallelTermJoinOptions options;
          options.join.threshold = spec;
          options.num_partitions = partitions;
          options.num_threads = 4;
          exec::ParallelTermJoin parallel(corpus->db.get(), index, &predicate,
                                          &scorer, options);
          ExpectIdentical(Unwrap(parallel.Run()), expected,
                          label + "/k=" + std::to_string(top_k) + "/p" +
                              std::to_string(partitions));
        }
      }
    }
  }
}

// With pushdown skipping documents, decode work must drop: the streams
// seek on metadata and only landing blocks decode. Cache disabled so
// hits cannot mask the comparison.
TEST(CompressedEquivalenceTest, PushdownDecodesNoMoreBlocksThanFullScan) {
  CacheConfigGuard guard;
  DecodedBlockCache::Instance().Configure(0);
  DecodedBlockCache::Instance().Clear();

  auto corpus = MakeCorpusDb(/*articles=*/60, /*seed=*/77);
  index::InvertedIndex compressed =
      Unwrap(InvertedIndex::Build(corpus->db.get()));
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());

  auto run = [&](bool pushdown) {
    obs::MetricsContext metrics;
    const obs::ScopedMetrics scope(&metrics);
    exec::TermJoinOptions options;
    if (pushdown) {
      algebra::ThresholdSpec spec;
      spec.top_k = 1;
      options.threshold = spec;
    }
    exec::TermJoin join(corpus->db.get(), &compressed, &predicate, &scorer,
                        options);
    (void)Unwrap(join.Run());
    const uint64_t scanned = metrics.value(obs::Counter::kIndexBlocksScanned);
    const uint64_t decoded = metrics.value(obs::Counter::kIndexBlocksDecoded);
    EXPECT_LE(decoded, scanned);
    EXPECT_EQ(join.stats().blocks_decoded, decoded);
    return decoded;
  };

  const uint64_t full = run(/*pushdown=*/false);
  const uint64_t pruned = run(/*pushdown=*/true);
  EXPECT_GT(full, 0u);
  EXPECT_LE(pruned, full);
}

TEST(CompressedEquivalenceTest, StatsReportCacheHitsAfterWarmup) {
  CacheConfigGuard guard;
  DecodedBlockCache::Instance().Configure(kDefaultBlockCacheBytes);
  DecodedBlockCache::Instance().Clear();

  auto corpus = MakeCorpusDb(/*articles=*/20, /*seed=*/5);
  index::InvertedIndex compressed =
      Unwrap(InvertedIndex::Build(corpus->db.get()));
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  auto run = [&] {
    exec::TermJoin join(corpus->db.get(), &compressed, &predicate, &scorer);
    (void)Unwrap(join.Run());
    return join.stats();
  };
  const exec::TermJoinStats cold = run();
  const exec::TermJoinStats warm = run();
  EXPECT_GT(cold.blocks_decoded, 0u);
  // The second run reads the same blocks out of the cache.
  EXPECT_GT(warm.block_cache_hits, 0u);
  EXPECT_LT(warm.blocks_decoded, cold.blocks_decoded);
}

// ------------------------------------------------------ memory residency

TEST(IndexResidencyTest, CompressionShrinksPostingBytesAtLeastThreefold) {
  auto corpus = MakeCorpusDb(/*articles=*/40, /*seed=*/11);
  index::InvertedIndex compressed =
      Unwrap(InvertedIndex::Build(corpus->db.get()));
  const IndexResidency rc = compressed.MemoryUsage();
  ASSERT_EQ(rc.num_postings, compressed.stats().num_postings);
  EXPECT_GT(rc.compressed_lists, 0u);
  // Against the 12-byte (doc, node, pos) struct a decoded list would
  // hold per posting.
  EXPECT_GE(sizeof(Posting) / rc.posting_bytes_per_posting(), 3.0)
      << "compressed " << rc.posting_bytes_per_posting() << " B/posting";
}

// ----------------------------------------------------- on-disk formats

/// Serializes `index` in on-disk format version 1 or 2, byte-compatible
/// with what old SaveToFile wrote.
std::string EncodeLegacyIndex(const InvertedIndex& index,
                              const text::TokenizerOptions& tokenizer,
                              int version) {
  std::string blob;
  PutVarint64(&blob, version == 1 ? kMagicV1 : kMagicV2);
  if (version == 2) PutVarint64(&blob, kSkipInterval);
  blob.push_back(tokenizer.lowercase ? 1 : 0);
  blob.push_back(tokenizer.remove_stopwords ? 1 : 0);
  blob.push_back(tokenizer.stem ? 1 : 0);
  PutVarint64(&blob, tokenizer.min_token_length);
  const std::string dict = index.dictionary().Serialize();
  PutVarint64(&blob, dict.size());
  blob += dict;
  PutVarint64(&blob, index.stats().num_terms);
  for (text::TermId id = 0; id < index.stats().num_terms; ++id) {
    const PostingList* list = index.LookupId(id);
    const std::vector<Posting> postings = list->DecodeAll();
    PutVarint64(&blob, postings.size());
    PutVarint64(&blob, list->doc_frequency);
    PutVarint64(&blob, list->node_frequency);
    uint32_t prev_doc = 0, prev_node = 0, prev_pos = 0;
    for (const Posting& posting : postings) {
      const uint32_t doc_delta = posting.doc_id - prev_doc;
      PutVarint32(&blob, doc_delta);
      if (doc_delta != 0) {
        prev_node = 0;
        prev_pos = 0;
      }
      PutVarint32(&blob, posting.node_id - prev_node);
      PutVarint32(&blob, posting.word_pos - prev_pos);
      prev_doc = posting.doc_id;
      prev_node = posting.node_id;
      prev_pos = posting.word_pos;
    }
  }
  PutVarint64(&blob, index.stats().num_documents);
  PutVarint64(&blob, index.stats().num_text_nodes);
  return blob;
}

void WriteFile(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  ASSERT_TRUE(out.good());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class IndexFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    index_ = std::make_unique<InvertedIndex>(Unwrap(InvertedIndex::Build(
        db_.get())));
  }

  void ExpectSameIndex(const InvertedIndex& loaded,
                       const std::string& label) const {
    ASSERT_EQ(loaded.stats().num_terms, index_->stats().num_terms) << label;
    ASSERT_EQ(loaded.stats().num_postings, index_->stats().num_postings)
        << label;
    EXPECT_EQ(loaded.stats().num_documents, index_->stats().num_documents)
        << label;
    for (text::TermId id = 0; id < loaded.stats().num_terms; ++id) {
      const PostingList* got = loaded.LookupId(id);
      const PostingList* want = index_->LookupId(id);
      ASSERT_EQ(got->DecodeAll(), want->DecodeAll()) << label << " term " << id;
      EXPECT_EQ(got->doc_frequency, want->doc_frequency) << label;
      EXPECT_EQ(got->node_frequency, want->node_frequency) << label;
    }
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(IndexFormatTest, BlockFormatsRoundTripStayingCompressed) {
  // Default save: a fresh build is v4, and the file leads with the v4
  // magic so old binaries reject it instead of misdecoding the tails.
  {
    const std::string path = dir_.path() + "/default.tix";
    ExpectOk(index_->SaveToFile(path));
    std::string head = ReadFile(path);
    std::string_view view = head;
    EXPECT_EQ(Unwrap(GetVarint64(&view)), kMagicV4);
  }
  for (const int version : {3, 4}) {
    const std::string path =
        dir_.path() + "/v" + std::to_string(version) + ".tix";
    ExpectOk(index_->SaveToFile(path, version));
    {
      std::string head = ReadFile(path);
      std::string_view view = head;
      EXPECT_EQ(Unwrap(GetVarint64(&view)),
                version == 3 ? kMagicV3 : kMagicV4);
    }
    InvertedIndex loaded = Unwrap(InvertedIndex::LoadFromFile(path));
    EXPECT_EQ(loaded.format_version(), version);
    EXPECT_EQ(loaded.tail_format(), version == 3 ? codec::TailFormat::kV3
                                                 : codec::TailFormat::kV4);
    // Loaded lists are served straight from the mapped file.
    uint64_t mapped_lists = 0;
    for (text::TermId id = 0; id < loaded.stats().num_terms; ++id) {
      const PostingList* list = loaded.LookupId(id);
      EXPECT_TRUE(list->empty() || list->is_mapped());
      if (list->is_mapped()) ++mapped_lists;
    }
    EXPECT_GT(mapped_lists, 0u);
    ExpectSameIndex(loaded, "v" + std::to_string(version));
  }
}

TEST_F(IndexFormatTest, TranscodeRoundTripsAreByteStable) {
  // v4 (resident) -> v3 file -> load -> v4 file -> load: postings and
  // frequencies survive both transcodes, and saving the final load in
  // its resident format reproduces the intermediate v4 file byte for
  // byte (copy-verbatim wire == resident).
  const std::string v3_path = dir_.path() + "/t.v3.tix";
  const std::string v4_path = dir_.path() + "/t.v4.tix";
  const std::string v4_again = dir_.path() + "/t.v4b.tix";
  ExpectOk(index_->SaveToFile(v3_path, 3));
  InvertedIndex from_v3 = Unwrap(InvertedIndex::LoadFromFile(v3_path));
  ExpectSameIndex(from_v3, "v4->v3->load");
  ExpectOk(from_v3.SaveToFile(v4_path, 4));
  InvertedIndex from_v4 = Unwrap(InvertedIndex::LoadFromFile(v4_path));
  EXPECT_EQ(from_v4.format_version(), 4);
  ExpectSameIndex(from_v4, "v4->v3->v4->load");
  ExpectOk(from_v4.SaveToFile(v4_again));  // resident format: verbatim copy
  EXPECT_EQ(ReadFile(v4_again), ReadFile(v4_path));
}

TEST_F(IndexFormatTest, LegacyVersionsLoadAndQueryIdentically) {
  for (const int version : {1, 2}) {
    const std::string path =
        dir_.path() + "/v" + std::to_string(version) + ".tix";
    WriteFile(path,
              EncodeLegacyIndex(*index_, db_->tokenizer().options(), version));
    InvertedIndex loaded = Unwrap(InvertedIndex::LoadFromFile(path));
    EXPECT_EQ(loaded.format_version(), version);
    ExpectSameIndex(loaded, "v" + std::to_string(version));

    // And the same answers through a real merge.
    algebra::IrPredicate predicate;
    predicate.phrases.push_back(algebra::WeightedPhrase{{"search"}, 1.0});
    predicate.phrases.push_back(
        algebra::WeightedPhrase{{"search", "engine"}, 1.0});
    const algebra::WeightedCountScorer scorer(predicate.Weights());
    exec::TermJoin join_orig(db_.get(), index_.get(), &predicate, &scorer);
    exec::TermJoin join_loaded(db_.get(), &loaded, &predicate, &scorer);
    ExpectIdentical(Unwrap(join_loaded.Run()), Unwrap(join_orig.Run()),
                    "termjoin v" + std::to_string(version));
  }
}

// --------------------------------------------------------- format fuzz

TEST_F(IndexFormatTest, TruncatedFilesFailCleanly) {
  for (const int version : {3, 4}) {
    const std::string path =
        dir_.path() + "/v" + std::to_string(version) + ".tix";
    ExpectOk(index_->SaveToFile(path, version));
    const std::string blob = ReadFile(path);
    ASSERT_GT(blob.size(), 100u);
    const std::string mangled = dir_.path() + "/mangled.tix";
    // Every prefix: truncation may land mid-varint, mid-block,
    // mid-header — or, in v4, inside a control or data region.
    for (size_t len = 0; len < blob.size(); ++len) {
      WriteFile(mangled, blob.substr(0, len));
      const auto result = InvertedIndex::LoadFromFile(mangled);
      EXPECT_FALSE(result.ok()) << "v" << version << " prefix of " << len
                                << " bytes loaded";
    }
  }
}

TEST_F(IndexFormatTest, BitFlipsNeverCrashTheLoader) {
  for (const int version : {3, 4}) {
    const std::string path =
        dir_.path() + "/v" + std::to_string(version) + ".tix";
    ExpectOk(index_->SaveToFile(path, version));
    const std::string blob = ReadFile(path);
    const std::string mangled = dir_.path() + "/mangled.tix";
    size_t rejected = 0, accepted = 0;
    for (size_t pos = 0; pos < blob.size(); pos += 3) {
      std::string copy = blob;
      copy[pos] = static_cast<char>(copy[pos] ^ (1u << (pos % 8)));
      WriteFile(mangled, copy);
      const auto result = InvertedIndex::LoadFromFile(mangled);
      if (!result.ok()) {
        ++rejected;
        continue;
      }
      ++accepted;
      // A flip that survives validation (e.g. inside the dictionary's
      // term bytes or a tokenizer flag) must still yield a queryable
      // index: every list was re-validated at load, so decoding cannot
      // trip a check.
      for (text::TermId id = 0; id < result.value().stats().num_terms; ++id) {
        (void)result.value().LookupId(id)->DecodeAll();
      }
    }
    // Both outcomes must occur: plenty of flips (counts, deltas that
    // break ordering, the magic) get rejected, while flips in dictionary
    // term bytes or order-preserving delta changes survive — and the
    // survivors above proved queryable. Either way, no flip may crash.
    EXPECT_GT(rejected, 0u) << "v" << version;
    EXPECT_GT(accepted, 0u) << "v" << version;
  }
}

// ------------------------------------------------ move-assign regression

TEST(InvertedIndexMoveTest, MovedFromIndexIsValidEmpty) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  InvertedIndex source = Unwrap(InvertedIndex::Build(db.get()));
  (void)source.Lookup("search");  // bump the lookup counter
  ASSERT_GT(source.stats().num_terms, 0u);

  InvertedIndex target;
  target = std::move(source);
  EXPECT_GT(target.stats().num_terms, 0u);
  EXPECT_NE(target.Lookup("search"), nullptr);

  // The moved-from index must be indistinguishable from a freshly
  // constructed one — not "valid but unspecified".
  EXPECT_EQ(source.stats().num_terms, 0u);
  EXPECT_EQ(source.stats().num_postings, 0u);
  EXPECT_EQ(source.stats().num_documents, 0u);
  EXPECT_EQ(source.lookups(), 0u);
  EXPECT_EQ(source.dictionary().size(), 0u);
  EXPECT_EQ(source.Lookup("search"), nullptr);
  EXPECT_EQ(source.format_version(), InvertedIndex::kCurrentFormatVersion);
  EXPECT_EQ(source.TermFrequency("search"), 0u);

  // And fully reusable: move a fresh build back in and query it.
  source = Unwrap(InvertedIndex::Build(db.get()));
  EXPECT_NE(source.Lookup("search"), nullptr);

  // Self-move must be a no-op, not a wipe.
  InvertedIndex& alias = target;
  target = std::move(alias);
  EXPECT_GT(target.stats().num_terms, 0u);
  EXPECT_NE(target.Lookup("search"), nullptr);
}

}  // namespace
}  // namespace tix::index
