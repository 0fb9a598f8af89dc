#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/file_manager.h"
#include "storage/node_record.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"
#include "xml/parser.h"

namespace tix::storage {
namespace {

using testing::ExpectNodeIndexMatchesRecords;
using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// ------------------------------------------------------------ PagedFile

TEST(PagedFileTest, CreateWriteReadBack) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix"));
  char page[kPageSize];
  std::fill_n(page, kPageSize, 'x');
  ExpectOk(file->WritePage(3, page));
  EXPECT_EQ(file->page_count(), 4u);

  char read[kPageSize];
  ExpectOk(file->ReadPage(3, read));
  EXPECT_EQ(read[0], 'x');
  EXPECT_EQ(read[kPageSize - 1], 'x');
  // Unwritten page within file reads as zeros.
  ExpectOk(file->ReadPage(1, read));
  EXPECT_EQ(read[0], 0);
  // Beyond-end page reads as zeros too.
  ExpectOk(file->ReadPage(100, read));
  EXPECT_EQ(read[0], 0);
}

TEST(PagedFileTest, TruncatedTailPageIsCorruptionNotZeros) {
  TempDir dir;
  const std::string path = dir.path() + "/f.tix";
  {
    auto file = Unwrap(PagedFile::Create(path));
    char page[kPageSize];
    std::fill_n(page, kPageSize, 'y');
    ExpectOk(file->WritePage(0, page));
    ExpectOk(file->WritePage(1, page));
    ExpectOk(file->Sync());
  }
  // Chop the second frame in half — a crash mid-write or an external
  // truncation. The short page must surface as Corruption; silently
  // zero-filling it would hand the caller fabricated records.
  std::filesystem::resize_file(
      path, kFileHeaderSize + kPageFrameSize + kPageFrameSize / 2);
  auto file = Unwrap(PagedFile::Open(path));
  EXPECT_EQ(file->page_count(), 1u);
  char read[kPageSize];
  ExpectOk(file->ReadPage(0, read));
  EXPECT_EQ(read[0], 'y');
  const Status status = file->ReadPage(1, read);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  // Pages past the damage still follow fresh-page semantics.
  ExpectOk(file->ReadPage(5, read));
  EXPECT_EQ(read[0], 0);
}

TEST(PagedFileTest, ReopenSeesData) {
  TempDir dir;
  const std::string path = dir.path() + "/f.tix";
  {
    auto file = Unwrap(PagedFile::Create(path));
    char page[kPageSize] = {};
    page[0] = 42;
    ExpectOk(file->WritePage(0, page));
    ExpectOk(file->Sync());
  }
  auto file = Unwrap(PagedFile::Open(path));
  EXPECT_EQ(file->page_count(), 1u);
  char read[kPageSize];
  ExpectOk(file->ReadPage(0, read));
  EXPECT_EQ(read[0], 42);
}

TEST(PagedFileTest, OpenMissingFileFails) {
  EXPECT_FALSE(PagedFile::Open("/nonexistent/nowhere.tix").ok());
}

// ----------------------------------------------------------- BufferPool

TEST(BufferPoolTest, HitsAndMisses) {
  TempDir dir;
  // The file must outlive the pool (the pool flushes on destruction).
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix"));
  BufferPool pool(4);
  {
    PageHandle handle = Unwrap(pool.Fetch(file.get(), 0));
    handle.MutableData()[0] = 7;
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  {
    PageHandle handle = Unwrap(pool.Fetch(file.get(), 0));
    EXPECT_EQ(handle.data()[0], 7);
  }
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix"));
  BufferPool pool(2);
  for (PageNumber p = 0; p < 8; ++p) {
    PageHandle handle = Unwrap(pool.Fetch(file.get(), p));
    handle.MutableData()[0] = static_cast<char>('a' + p);
  }
  EXPECT_GE(pool.stats().evictions, 6u);
  // All pages readable with their written contents.
  for (PageNumber p = 0; p < 8; ++p) {
    PageHandle handle = Unwrap(pool.Fetch(file.get(), p));
    EXPECT_EQ(handle.data()[0], static_cast<char>('a' + p)) << p;
  }
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix"));
  BufferPool pool(2);
  PageHandle h0 = Unwrap(pool.Fetch(file.get(), 0));
  PageHandle h1 = Unwrap(pool.Fetch(file.get(), 1));
  const auto result = pool.Fetch(file.get(), 2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, LruEvictsColdestPage) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix"));
  BufferPool pool(2);
  { PageHandle h = Unwrap(pool.Fetch(file.get(), 0)); }
  { PageHandle h = Unwrap(pool.Fetch(file.get(), 1)); }
  { PageHandle h = Unwrap(pool.Fetch(file.get(), 0)); }  // touch 0
  { PageHandle h = Unwrap(pool.Fetch(file.get(), 2)); }  // evicts 1
  pool.ResetStats();
  { PageHandle h = Unwrap(pool.Fetch(file.get(), 0)); }
  EXPECT_EQ(pool.stats().hits, 1u);  // 0 stayed resident
  { PageHandle h = Unwrap(pool.Fetch(file.get(), 1)); }
  EXPECT_EQ(pool.stats().misses, 1u);  // 1 was the victim
}

TEST(BufferPoolTest, EvictFileRefusesPinnedPages) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix"));
  BufferPool pool(4);
  PageHandle pinned = Unwrap(pool.Fetch(file.get(), 0));
  EXPECT_FALSE(pool.EvictFile(file.get()).ok());
  pinned.Release();
  ExpectOk(pool.EvictFile(file.get()));
  // Idempotent on an absent file.
  ExpectOk(pool.EvictFile(file.get()));
}

TEST(BufferPoolTest, HandleMoveTransfersPin) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/f.tix"));
  BufferPool pool(2);
  PageHandle a = Unwrap(pool.Fetch(file.get(), 0));
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  b.Release();
  EXPECT_FALSE(b.valid());
  b.Release();  // idempotent
}

// ------------------------------------------------------------ TextStore

TEST(TextStoreTest, BlobsSpanPageBoundaries) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/t.tix"));
  BufferPool pool(4);
  TextStore store(&pool, std::move(file));
  // A blob larger than two pages.
  std::string big(2 * kPageSize + 123, 'q');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  const uint64_t first = Unwrap(store.Append("hello"));
  const uint64_t second = Unwrap(store.Append(big));
  const uint64_t third = Unwrap(store.Append("world"));
  EXPECT_EQ(Unwrap(store.Read(first, 5)), "hello");
  EXPECT_EQ(Unwrap(store.Read(second, static_cast<uint32_t>(big.size()))),
            big);
  EXPECT_EQ(Unwrap(store.Read(third, 5)), "world");
  EXPECT_TRUE(store.Read(third, 100).status().IsOutOfRange());
}

// ------------------------------------------------------------ NodeStore

TEST(NodeStoreTest, AppendGetUpdate) {
  TempDir dir;
  auto file = Unwrap(PagedFile::Create(dir.path() + "/n.tix"));
  BufferPool pool(4);
  NodeStore store(&pool, std::move(file));
  // Fill several pages worth of records.
  const size_t count = kRecordsPerPage * 3 + 7;
  for (size_t i = 0; i < count; ++i) {
    NodeRecord record;
    record.start = static_cast<uint32_t>(i * 2);
    record.end = static_cast<uint32_t>(i * 2 + 1);
    EXPECT_EQ(Unwrap(store.Append(record)), i);
  }
  EXPECT_EQ(store.num_nodes(), count);
  NodeRecord fetched = Unwrap(store.Get(kRecordsPerPage + 5));
  EXPECT_EQ(fetched.start, (kRecordsPerPage + 5) * 2);
  fetched.num_children = 42;
  ExpectOk(store.Update(kRecordsPerPage + 5, fetched));
  EXPECT_EQ(Unwrap(store.Get(kRecordsPerPage + 5)).num_children, 42u);
  EXPECT_TRUE(store.Get(static_cast<NodeId>(count)).status().IsOutOfRange());
  EXPECT_GT(store.record_fetches(), 0u);
  store.ResetCounters();
  EXPECT_EQ(store.record_fetches(), 0u);
}

// ----------------------------------------------------------- NodeRecord

TEST(NodeRecordTest, EncodeDecodeRoundTrip) {
  NodeRecord record;
  record.kind = NodeKind::kText;
  record.level = 9;
  record.doc_id = 3;
  record.tag_id = 77;
  record.start = 1000;
  record.end = 1010;
  record.parent = 5;
  record.first_child = kInvalidNodeId;
  record.next_sibling = 12;
  record.num_children = 0;
  record.blob_offset = (1ull << 40) + 3;
  record.blob_length = 512;
  record.num_words = 10;

  char buffer[kNodeRecordSize];
  EncodeNodeRecord(record, buffer);
  const NodeRecord decoded = DecodeNodeRecord(buffer);
  EXPECT_EQ(decoded.kind, record.kind);
  EXPECT_EQ(decoded.level, record.level);
  EXPECT_EQ(decoded.doc_id, record.doc_id);
  EXPECT_EQ(decoded.tag_id, record.tag_id);
  EXPECT_EQ(decoded.start, record.start);
  EXPECT_EQ(decoded.end, record.end);
  EXPECT_EQ(decoded.parent, record.parent);
  EXPECT_EQ(decoded.first_child, record.first_child);
  EXPECT_EQ(decoded.next_sibling, record.next_sibling);
  EXPECT_EQ(decoded.num_children, record.num_children);
  EXPECT_EQ(decoded.blob_offset, record.blob_offset);
  EXPECT_EQ(decoded.blob_length, record.blob_length);
  EXPECT_EQ(decoded.num_words, record.num_words);
}

TEST(NodeRecordTest, ContainmentSemantics) {
  NodeRecord outer;
  outer.doc_id = 1;
  outer.start = 0;
  outer.end = 100;
  NodeRecord inner;
  inner.doc_id = 1;
  inner.start = 10;
  inner.end = 20;
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
  EXPECT_FALSE(outer.Contains(outer));
  EXPECT_TRUE(outer.ContainsOrSelf(outer));
  inner.doc_id = 2;
  EXPECT_FALSE(outer.Contains(inner));
}

// ------------------------------------------------------------- Database

TEST(DatabaseTest, LoadPaperExampleStructure) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  ASSERT_EQ(db->documents().size(), 2u);
  EXPECT_EQ(db->documents()[0].name, "articles.xml");
  EXPECT_GT(db->num_nodes(), 20u);

  // Root of document 0 is an <article> element at level 0.
  const NodeRecord root = Unwrap(db->GetNode(db->documents()[0].root));
  EXPECT_TRUE(root.is_element());
  EXPECT_EQ(db->TagName(root.tag_id), "article");
  EXPECT_EQ(root.level, 0);
  EXPECT_EQ(root.parent, kInvalidNodeId);
}

TEST(DatabaseTest, IntervalEncodingIsConsistent) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  // Every child interval nests strictly inside its parent's interval,
  // and siblings are disjoint and ordered.
  for (NodeId id = 0; id < db->num_nodes(); ++id) {
    const NodeRecord record = Unwrap(db->GetNode(id));
    EXPECT_LT(record.start, record.end + 1) << id;
    if (record.parent != kInvalidNodeId) {
      const NodeRecord parent = Unwrap(db->GetNode(record.parent));
      EXPECT_TRUE(parent.ContainsOrSelf(record)) << id;
      EXPECT_GT(record.start, parent.start) << id;
      EXPECT_EQ(record.level, parent.level + 1) << id;
    }
    if (record.next_sibling != kInvalidNodeId) {
      const NodeRecord sibling = Unwrap(db->GetNode(record.next_sibling));
      EXPECT_GT(sibling.start, record.end) << id;
      EXPECT_EQ(sibling.parent, record.parent) << id;
    }
  }
}

TEST(DatabaseTest, NavigationMatchesIndex) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  for (NodeId id = 0; id < db->num_nodes(); ++id) {
    const NodeRecord record = Unwrap(db->GetNode(id));
    EXPECT_EQ(db->ParentFromIndex(id), record.parent);
    EXPECT_EQ(db->ChildCountFromIndex(id), record.num_children);
    EXPECT_EQ(db->LevelFromIndex(id), record.level);
    EXPECT_EQ(Unwrap(db->CountChildrenByNavigation(id)), record.num_children);
    EXPECT_EQ(Unwrap(db->ChildrenOf(id)).size(), record.num_children);
  }
}

TEST(DatabaseTest, NodeIndexMatchesRecordsAfterLoadAndOpen) {
  TempDir dir;
  {
    auto db = MakeTestDatabase(dir.path());
    workload::CorpusOptions options;
    options.num_articles = 12;
    options.vocabulary_size = 200;
    options.generate_reviews = true;
    options.num_reviews = 8;
    Unwrap(workload::GenerateCorpus(db.get(), options));
    ExpectOk(workload::LoadPaperExample(db.get()));
    ExpectNodeIndexMatchesRecords(db.get());
    ExpectOk(db->Save());
  }
  // Open rebuilds the in-memory index with one table scan.
  DatabaseOptions options;
  options.buffer_pool_pages = 64;
  auto db = Unwrap(Database::Open(dir.path(), options));
  ASSERT_EQ(db->documents().size(), 15u);
  ExpectNodeIndexMatchesRecords(db.get());
}

TEST(DatabaseTest, AncestorsChain) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  // Find a <p> and verify its chain ends at the article root.
  const TagId p_tag = db->LookupTag("p");
  ASSERT_NE(p_tag, text::kInvalidTermId);
  const auto* paragraphs = db->ElementsWithTag(p_tag);
  ASSERT_NE(paragraphs, nullptr);
  const auto chain = Unwrap(db->AncestorsOf(paragraphs->front()));
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain.back(), db->documents()[0].root);
  // Chain levels strictly decrease.
  for (size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(db->LevelFromIndex(chain[i]), db->LevelFromIndex(chain[i - 1]));
  }
}

TEST(DatabaseTest, TextAndAttributes) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  // <author id="first"> carries its attribute.
  const TagId author_tag = db->LookupTag("author");
  const auto* authors = db->ElementsWithTag(author_tag);
  ASSERT_NE(authors, nullptr);
  const NodeRecord author = Unwrap(db->GetNode(authors->front()));
  const AttributeList attrs = Unwrap(db->AttributesOf(author));
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0].name, "id");
  EXPECT_EQ(attrs[0].value, "first");
  // alltext of the author subtree.
  EXPECT_EQ(Unwrap(db->AllTextOf(authors->front())), "Jane Doe");
}

TEST(DatabaseTest, NumWordsCountsStopwordTails) {
  TempDir dir;
  DatabaseOptions options;
  options.buffer_pool_pages = 64;
  options.tokenizer.remove_stopwords = true;
  auto db = Unwrap(Database::Create(dir.path(), options));
  const auto document = Unwrap(xml::ParseXml(
      "<doc><p>search engine of the and</p><q>of the and</q></doc>",
      "stops.xml"));
  Unwrap(db->AddDocument(document));

  std::vector<NodeRecord> text_nodes;
  for (NodeId id = 0; id < db->num_nodes(); ++id) {
    const NodeRecord record = Unwrap(db->GetNode(id));
    if (!record.is_element()) text_nodes.push_back(record);
  }
  ASSERT_EQ(text_nodes.size(), 2u);
  // Five raw words even though only "search engine" survives stopword
  // removal: the last *kept* token would give num_words = 2.
  EXPECT_EQ(text_nodes[0].num_words, 5u);
  EXPECT_EQ(text_nodes[0].end, text_nodes[0].start + 5);
  // Stopword-only text keeps no tokens but still occupies its three
  // word positions (the old derivation collapsed it to width 0).
  EXPECT_EQ(text_nodes[1].num_words, 3u);
  EXPECT_EQ(text_nodes[1].end, text_nodes[1].start + 3);
  // Document word count — and with it the element interval spans that
  // length-normalized (bm25) scoring divides by — covers all raw words.
  EXPECT_EQ(db->documents()[0].word_count, 8u);
  const NodeRecord root = Unwrap(db->GetNode(db->documents()[0].root));
  EXPECT_GE(root.end - root.start, 8u);
}

TEST(DatabaseTest, ReconstructSubtreeMatchesSource) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  const auto* authors = db->ElementsWithTag(db->LookupTag("author"));
  ASSERT_NE(authors, nullptr);
  const auto dom = Unwrap(db->ReconstructSubtree(authors->front()));
  EXPECT_EQ(dom->tag(), "author");
  EXPECT_EQ(*dom->FindAttribute("id"), "first");
  ASSERT_EQ(dom->children().size(), 2u);
  EXPECT_EQ(dom->children()[0]->tag(), "fname");
  EXPECT_EQ(dom->children()[0]->AllText(), "Jane");
}

TEST(DatabaseTest, SaveAndReopen) {
  TempDir dir;
  uint64_t nodes = 0;
  {
    auto db = MakeTestDatabase(dir.path());
    ExpectOk(workload::LoadPaperExample(db.get()));
    nodes = db->num_nodes();
    ExpectOk(db->Save());
  }
  storage::DatabaseOptions options;
  options.buffer_pool_pages = 64;
  auto db = Unwrap(Database::Open(dir.path(), options));
  EXPECT_EQ(db->num_nodes(), nodes);
  ASSERT_EQ(db->documents().size(), 2u);
  EXPECT_EQ(db->documents()[1].name, "reviews.xml");
  // Navigation and text still work after reopen.
  const auto* reviews = db->ElementsWithTag(db->LookupTag("review"));
  ASSERT_NE(reviews, nullptr);
  EXPECT_EQ(reviews->size(), 2u);
  EXPECT_EQ(Unwrap(db->AllTextOf((*reviews)[1])).substr(0, 16),
            "WWW Technologies");
}

TEST(DatabaseTest, MultipleDocumentsAreIsolated) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  const auto doc1 = Unwrap(xml::ParseXml("<a><b>one two</b></a>", "d1"));
  const auto doc2 = Unwrap(xml::ParseXml("<a><b>three</b></a>", "d2"));
  const DocId id1 = Unwrap(db->AddDocument(doc1));
  const DocId id2 = Unwrap(db->AddDocument(doc2));
  EXPECT_NE(id1, id2);
  const NodeRecord root2 = Unwrap(db->GetNode(db->documents()[id2].root));
  EXPECT_EQ(root2.doc_id, id2);
  // Documents get independent interval spaces.
  const NodeRecord root1 = Unwrap(db->GetNode(db->documents()[id1].root));
  EXPECT_FALSE(root1.Contains(root2));
  EXPECT_FALSE(root2.Contains(root1));
}

TEST(DatabaseTest, GetDocumentByName) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  EXPECT_EQ(Unwrap(db->GetDocumentByName("reviews.xml")).doc_id, 1u);
  EXPECT_TRUE(db->GetDocumentByName("nope.xml").status().IsNotFound());
}

TEST(DatabaseTest, RejectsEmptyDocument) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  xml::XmlDocument empty;
  EXPECT_TRUE(db->AddDocument(empty).status().IsInvalidArgument());
}

TEST(AtomicWriteFileTest, RoundTripsThroughReadFileToString) {
  TempDir dir;
  const std::string path = dir.path() + "/blob";
  const std::string payload(100000, 'q');
  ExpectOk(AtomicWriteFile(path, payload));
  EXPECT_EQ(Unwrap(ReadFileToString(path)), payload);
  EXPECT_TRUE(ReadFileToString(dir.path() + "/absent").status().IsIOError());
}

// Regression: AtomicWriteFile used a fixed "<path>.tmp" scratch name,
// so two concurrent writers raced on the same tmp file — one renamed
// the other's half-written bytes into place (or failed on the vanished
// tmp). With per-writer unique tmp names the final file is always one
// writer's complete payload and no scratch files are left behind.
TEST(AtomicWriteFileTest, ConcurrentWritersNeverInterleaveOrLeakTmp) {
  TempDir dir;
  const std::string path = dir.path() + "/contested";
  constexpr int kRounds = 200;
  // Big enough that a write spans multiple syscalls' worth of bytes;
  // distinct fill characters make any splice detectable.
  const std::string a(64 * 1024, 'A');
  const std::string b(64 * 1024, 'B');

  std::thread writer_a([&] {
    for (int i = 0; i < kRounds; ++i) ExpectOk(AtomicWriteFile(path, a));
  });
  std::thread writer_b([&] {
    for (int i = 0; i < kRounds; ++i) ExpectOk(AtomicWriteFile(path, b));
  });
  writer_a.join();
  writer_b.join();

  const std::string final_bytes = Unwrap(ReadFileToString(path));
  EXPECT_TRUE(final_bytes == a || final_bytes == b)
      << "file is a splice of two writers (size=" << final_bytes.size()
      << ")";

  // No abandoned scratch files: the directory holds exactly the target.
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    entries.push_back(entry.path().filename().string());
  }
  ASSERT_EQ(entries.size(), 1u)
      << (entries.empty() ? "target file missing"
                          : "unexpected leftover: " + entries.back());
  EXPECT_EQ(entries.front(), "contested");
}

}  // namespace
}  // namespace tix::storage
