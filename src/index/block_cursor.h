#ifndef TIX_INDEX_BLOCK_CURSOR_H_
#define TIX_INDEX_BLOCK_CURSOR_H_

#include <cstddef>

#include "index/block_cache.h"
#include "index/inverted_index.h"

/// \file
/// BlockCursor: random access into a posting list by posting index, with
/// lazy per-block decode. It decodes (or fetches from the shared
/// DecodedBlockCache) exactly the blocks it is asked for, so seek-heavy
/// consumers — top-K pushdown above all — never pay
/// for postings they skip. Every occurrence-stream consumer (TermJoin,
/// ParallelTermJoin, PhraseFinder, the Comp baselines) reads through
/// one of these.

namespace tix::index {

class BlockCursor {
 public:
  /// `list` may be nullptr (unknown term): size() is then 0. The list
  /// must outlive the cursor and must have been finalized by
  /// PostingList::Build() or FinishCompressed().
  explicit BlockCursor(const PostingList* list = nullptr)
      : list_(list), size_(list == nullptr ? 0 : list->size()) {}

  size_t size() const { return size_; }

  /// The posting at index `i` (< size()). The reference stays valid
  /// until the next Get *on this cursor* that lands in a different
  /// block; copy the posting when it must survive further cursor use.
  const Posting& Get(size_t i) {
    if (i - window_begin_ >= window_len_) Load(i);
    return data_[i - window_begin_];
  }

 private:
  /// Positions the window over the block containing posting `i`,
  /// charging the obs block counters and consulting the decoded-block
  /// cache.
  void Load(size_t i);

  const PostingList* list_;
  const Posting* data_ = nullptr;
  size_t window_begin_ = 0;
  size_t window_len_ = 0;
  size_t size_ = 0;
  /// Pin on the cache entry backing `data_`, so an eviction can never
  /// free a block mid-read.
  DecodedBlockHandle pinned_;
};

}  // namespace tix::index

#endif  // TIX_INDEX_BLOCK_CURSOR_H_
