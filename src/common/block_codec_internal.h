#ifndef TIX_COMMON_BLOCK_CODEC_INTERNAL_H_
#define TIX_COMMON_BLOCK_CODEC_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/result.h"

/// \file
/// Shared guts of the block-tail decode kernels. block_codec.cc holds
/// the portable loops of both formats; block_codec_simd.cc holds the v4
/// SSSE3/SSE4.1 shuffle-table kernel (x86 only). Both v4 kernels share
/// the length table, the padding rule and the two error strings below,
/// and codec_test's differential fuzz holds them to equal triples and
/// equal Status on every input.

namespace tix::codec::internal {

inline constexpr char kErrVarint[] =
    "posting block: truncated or overlong varint";
inline constexpr char kErrTrailing[] =
    "posting block: trailing bytes after tail";

/// v4 length-code table: 2-bit codes 0..3 map to 0/1/2/4 data bytes.
inline constexpr uint32_t kV4Len[4] = {0, 1, 2, 4};

inline constexpr size_t V4CtrlLen(size_t nvals) { return (nvals + 3) / 4; }

/// Unused codes in the last (partial) control byte must be zero; this is
/// the v4 analogue of the v3 trailing-bytes check, so a flipped padding
/// bit cannot hide in an otherwise valid block.
inline bool V4PaddingOk(const uint8_t* ctrl, size_t nvals) {
  if ((nvals & 3) == 0) return true;
  return (ctrl[nvals >> 2] >> ((nvals & 3) * 2)) == 0;
}

// Kernel entry points: the two portable loops live in block_codec.cc,
// the SIMD kernel in block_codec_simd.cc (which delegates to the
// portable loop on non-x86 builds).
Status DecodeTailV3Scalar(std::string_view bytes, size_t count,
                          uint32_t* triples);
Status DecodeTailV4Scalar(std::string_view bytes, size_t count,
                          uint32_t* triples);
Status DecodeTailV4Simd(std::string_view bytes, size_t count,
                        uint32_t* triples);

/// True when block_codec_simd.cc was built with the x86 kernel (the
/// machine must additionally report SSSE3+SSE4.1 for it to run).
bool SimdKernelCompiled();

}  // namespace tix::codec::internal

#endif  // TIX_COMMON_BLOCK_CODEC_INTERNAL_H_
