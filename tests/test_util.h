#ifndef TIX_TESTS_TEST_UTIL_H_
#define TIX_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/result.h"
#include "storage/database.h"

/// \file
/// Shared test scaffolding: temporary directories and database fixtures.

namespace tix::testing {

/// RAII temporary directory under $TMPDIR (removed on destruction).
class TempDir {
 public:
  TempDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "tix_test_XXXXXX").string();
    char* made = ::mkdtemp(templ.data());
    EXPECT_NE(made, nullptr);
    path_ = templ;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Unwraps a Result in a test, failing loudly on error.
template <typename T>
T Unwrap(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

inline void ExpectOk(const Status& status) {
  EXPECT_TRUE(status.ok()) << status.ToString();
}

/// Creates a fresh database in `dir` with a small buffer pool so paging
/// paths get exercised even by unit tests.
inline std::unique_ptr<storage::Database> MakeTestDatabase(
    const std::string& dir, size_t pool_pages = 64) {
  storage::DatabaseOptions options;
  options.buffer_pool_pages = pool_pages;
  return Unwrap(storage::Database::Create(dir, options));
}

/// The invariant fetch-free navigation rests on: for every node, the
/// in-memory parent/start/end/level/doc/child-count entries equal the
/// stored record, and the tag index holds exactly the elements, each
/// under its own tag, in node-id order.
inline void ExpectNodeIndexMatchesRecords(storage::Database* db) {
  uint64_t elements = 0;
  for (storage::NodeId id = 0; id < db->num_nodes(); ++id) {
    const storage::NodeRecord record = Unwrap(db->GetNode(id));
    EXPECT_EQ(db->ParentFromIndex(id), record.parent) << id;
    EXPECT_EQ(db->StartFromIndex(id), record.start) << id;
    EXPECT_EQ(db->EndFromIndex(id), record.end) << id;
    EXPECT_EQ(db->LevelFromIndex(id), record.level) << id;
    EXPECT_EQ(db->DocFromIndex(id), record.doc_id) << id;
    EXPECT_EQ(db->ChildCountFromIndex(id), record.num_children) << id;
    if (!record.is_element()) continue;
    ++elements;
    const std::vector<storage::NodeId>* tagged =
        db->ElementsWithTag(record.tag_id);
    ASSERT_NE(tagged, nullptr) << id;
    EXPECT_TRUE(std::binary_search(tagged->begin(), tagged->end(), id)) << id;
  }
  uint64_t indexed = 0;
  for (storage::TagId tag = 0; tag < db->num_tags(); ++tag) {
    const std::vector<storage::NodeId>* tagged = db->ElementsWithTag(tag);
    if (tagged == nullptr) continue;
    EXPECT_EQ(std::adjacent_find(tagged->begin(), tagged->end(),
                                 std::greater_equal<storage::NodeId>()),
              tagged->end())
        << "tag " << tag << " is not in strict node-id order";
    indexed += tagged->size();
  }
  // Every element sits under its own tag, so no list holds anything else.
  EXPECT_EQ(indexed, elements);
}

}  // namespace tix::testing

#endif  // TIX_TESTS_TEST_UTIL_H_
