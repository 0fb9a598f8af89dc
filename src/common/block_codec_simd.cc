#include "common/block_codec_internal.h"

/// \file
/// The v4 (StreamVByte) SSSE3/SSE4.1 decode kernel. The control bytes
/// make value boundaries explicit, so one control byte + one pshufb
/// decodes four values with no serial dependency at all. Three control
/// bytes = twelve values = four postings, so the decode loop feeds the
/// reconstruction directly with no staging buffer. One 256-entry
/// shuffle table, built once.
///
/// Reconstruction (the delta prefix sum) is vectorized too: every group
/// of four postings goes through one branchless masked-carry chain —
/// each posting adds its deltas to the previous posting masked by a
/// keep vector (doc lane always kept, node/pos lanes kept only when the
/// doc delta is zero), which encodes the doc_delta != 0 reset rule with
/// no data-dependent branch on doc boundaries.
///
/// Over-read safety: every 16-byte load is guarded against the caller's
/// buffer end, so the kernel never touches bytes past the tail — the
/// last postings of each block are finished by an exact byte loop
/// instead of a padded load. ASan runs of codec_test and
/// block_index_test prove this.
///
/// The functions carry `__attribute__((target(...)))` so no special
/// compile flags are needed; the dispatcher in block_codec.cc only
/// routes here when CPUID reports SSSE3+SSE4.1.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#define TIX_SIMD_TARGET __attribute__((target("ssse3,sse4.1")))

namespace tix::codec::internal {
namespace {

/// StreamVByte table: one control byte describes four values with 2-bit
/// length codes {0,1,2,4 bytes}; the shuffle spreads the packed data
/// bytes into four 32-bit lanes, `total` is the data bytes consumed.
struct V4Entry {
  uint8_t shuffle[16];
  uint8_t total;
};

struct V4Tables {
  V4Entry entries[256];
  V4Tables() {
    for (int ctrl = 0; ctrl < 256; ++ctrl) {
      V4Entry& e = entries[ctrl];
      std::memset(e.shuffle, 0x80, sizeof(e.shuffle));
      uint8_t off = 0;
      for (int k = 0; k < 4; ++k) {
        const uint32_t len = kV4Len[(ctrl >> (2 * k)) & 3];
        for (uint32_t b = 0; b < len; ++b) {
          e.shuffle[4 * k + b] = static_cast<uint8_t>(off + b);
        }
        off = static_cast<uint8_t>(off + len);
      }
      e.total = off;
    }
  }
};

const V4Tables& GetV4Tables() {
  static const V4Tables tables;
  return tables;
}

/// The reconstruction carry: lanes 1..3 hold the running (doc, node,
/// pos) of the last emitted posting (lane 0 is ignored). This is
/// exactly the shape of the last output register of a group, so the
/// vector path chains groups with one pshufd instead of an
/// extract -> broadcast round trip.
TIX_SIMD_TARGET inline __m128i MakeCarry(uint32_t doc, uint32_t node,
                                         uint32_t pos) {
  return _mm_setr_epi32(0, static_cast<int>(doc), static_cast<int>(node),
                        static_cast<int>(pos));
}

/// Reconstructs four postings from their twelve interleaved deltas
/// (a=[dd0 nd0 pd0 dd1] b=[nd1 pd1 dd2 nd2] c=[pd2 dd3 nd3 pd3]),
/// writing them at `outp` (touching outp[0..11] only); returns the new
/// carry.
///
/// One uniform branchless masked-carry chain covers both the
/// within-document case and doc boundaries: with the deltas
/// deinterleaved into per-posting registers D_j = [dd nd pd x], the
/// recurrence is
///
///   P_j = (P_{j-1} & keep_j) + D_j
///
/// where keep_j carries the doc lane always and the node/pos lanes only
/// when dd_j == 0 (a doc change makes them absolute — the reset rule).
/// The keep masks derive from the inputs alone, so the critical path is
/// just the four pand+paddd pairs; there is no data-dependent branch to
/// mispredict on real posting lists, where doc boundaries arrive every
/// few postings in frequent terms.
TIX_SIMD_TARGET inline __m128i ReconstructGroup4(__m128i a, __m128i b,
                                                 __m128i c, __m128i carry,
                                                 uint32_t* outp) {
  // Per-posting delta registers in (doc, node, pos, x) lane order.
  const __m128i d0 = a;
  const __m128i d1 = _mm_alignr_epi8(b, a, 12);
  const __m128i d2 = _mm_alignr_epi8(c, b, 8);
  const __m128i d3 = _mm_srli_si128(c, 4);
  const __m128i zero = _mm_setzero_si128();
  // pshufb spreads dd into the node/pos lanes and *zeroes* the doc lane
  // (0x80), so one compare-to-zero yields the whole keep mask: doc lane
  // 0 == 0 -> always kept, node/pos lanes kept iff dd == 0.
  const __m128i bcast_dd = _mm_setr_epi8(
      -128, -128, -128, -128, 0, 1, 2, 3, 0, 1, 2, 3, -128, -128, -128, -128);
  const __m128i k0 = _mm_cmpeq_epi32(_mm_shuffle_epi8(d0, bcast_dd), zero);
  const __m128i k1 = _mm_cmpeq_epi32(_mm_shuffle_epi8(d1, bcast_dd), zero);
  const __m128i k2 = _mm_cmpeq_epi32(_mm_shuffle_epi8(d2, bcast_dd), zero);
  const __m128i k3 = _mm_cmpeq_epi32(_mm_shuffle_epi8(d3, bcast_dd), zero);
  // Overlapping 16-byte stores at stride 3: each store's junk lane is
  // overwritten by the next posting's doc.
  const __m128i prev = _mm_shuffle_epi32(carry, _MM_SHUFFLE(3, 3, 2, 1));
  const __m128i p0 = _mm_add_epi32(_mm_and_si128(prev, k0), d0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp), p0);
  const __m128i p1 = _mm_add_epi32(_mm_and_si128(p0, k1), d1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp + 3), p1);
  const __m128i p2 = _mm_add_epi32(_mm_and_si128(p1, k2), d2);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp + 6), p2);
  const __m128i p3 = _mm_add_epi32(_mm_and_si128(p2, k3), d3);
  // [pos2, doc3, node3, pos3]: stored at outp + 8 it finishes the group
  // without touching outp[12], and its lanes 1..3 are the next carry.
  const __m128i ret = _mm_alignr_epi8(p3, _mm_slli_si128(p2, 4), 12);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp + 8), ret);
  return ret;
}

}  // namespace

TIX_SIMD_TARGET Status DecodeTailV4Simd(std::string_view bytes, size_t count,
                                        uint32_t* triples) {
  const size_t nvals = count > 0 ? 3 * (count - 1) : 0;
  const size_t ctrl_len = V4CtrlLen(nvals);
  if (bytes.size() < ctrl_len) return Status::Corruption(kErrVarint);
  const uint8_t* const ctrl = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* data = ctrl + ctrl_len;
  const uint8_t* const end = ctrl + bytes.size();
  if (!V4PaddingOk(ctrl, nvals)) return Status::Corruption(kErrVarint);
  const V4Tables& tables = GetV4Tables();
  __m128i carry = MakeCarry(triples[0], triples[1], triples[2]);
  size_t i = 1;
  size_t vi = 0;
  // Three control bytes = twelve values = four postings per iteration,
  // decoded and reconstructed in registers with no staging buffer. The
  // loop starts at vi = 0 and advances by 12, so vi >> 2 stays
  // whole-byte aligned in the control stream.
  while (count - i >= 4) {
    // All three lengths come straight from the control bytes, so the
    // three data loads issue in parallel instead of each waiting on the
    // previous one's consumed-bytes add.
    const V4Entry& e0 = tables.entries[ctrl[vi >> 2]];
    const V4Entry& e1 = tables.entries[ctrl[(vi >> 2) + 1]];
    const V4Entry& e2 = tables.entries[ctrl[(vi >> 2) + 2]];
    const uint32_t t0 = e0.total;
    const uint32_t t01 = t0 + e1.total;
    // The third 16-byte load starts at data + t01 and t0 <= t01, so this
    // one bound guards all three loads exactly; the last postings of a
    // block finish on the byte loop below.
    if (static_cast<size_t>(end - data) < t01 + 16) break;
    const __m128i a = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(e0.shuffle)));
    const __m128i b = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + t0)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(e1.shuffle)));
    const __m128i c = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + t01)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(e2.shuffle)));
    data += t01 + e2.total;
    carry = ReconstructGroup4(a, b, c, carry, triples + 3 * i);
    i += 4;
    vi += 12;
  }
  // Exact byte-at-a-time finish for the last postings (and any block
  // whose data runway is too short for a 16-byte load).
  uint32_t prev_doc = static_cast<uint32_t>(_mm_extract_epi32(carry, 1));
  uint32_t prev_node = static_cast<uint32_t>(_mm_extract_epi32(carry, 2));
  uint32_t prev_pos = static_cast<uint32_t>(_mm_extract_epi32(carry, 3));
  for (; i < count; ++i) {
    uint32_t d[3];
    for (int k = 0; k < 3; ++k, ++vi) {
      const uint32_t code = (ctrl[vi >> 2] >> ((vi & 3) * 2)) & 3u;
      const uint32_t len = kV4Len[code];
      if (static_cast<size_t>(end - data) < len) {
        return Status::Corruption(kErrVarint);
      }
      uint32_t v = 0;
      for (uint32_t bb = 0; bb < len; ++bb) {
        v |= static_cast<uint32_t>(data[bb]) << (8 * bb);
      }
      d[k] = v;
      data += len;
    }
    const uint32_t keep = d[0] == 0 ? ~0u : 0u;
    prev_doc += d[0];
    prev_node = (prev_node & keep) + d[1];
    prev_pos = (prev_pos & keep) + d[2];
    triples[3 * i] = prev_doc;
    triples[3 * i + 1] = prev_node;
    triples[3 * i + 2] = prev_pos;
  }
  if (data != end) return Status::Corruption(kErrTrailing);
  return Status::OK();
}

bool SimdKernelCompiled() { return true; }

}  // namespace tix::codec::internal

#else  // !x86

namespace tix::codec::internal {

Status DecodeTailV4Simd(std::string_view bytes, size_t count,
                        uint32_t* triples) {
  return DecodeTailV4Scalar(bytes, count, triples);
}

bool SimdKernelCompiled() { return false; }

}  // namespace tix::codec::internal

#endif  // x86
