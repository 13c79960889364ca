#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ndpcr {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE polynomial

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// input bytes fold into the state per iteration instead of one. Same
// polynomial, same result, ~3-4x the throughput of the byte loop (the
// figure bench/micro_datapath tracks).
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

// a * b mod P over GF(2), both operands in reflected order (bit 31 is
// x^0) - zlib's multmodp.
constexpr std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// kPow2[k] = x^(2^k) mod P: repeated squaring from x^1.
constexpr std::array<std::uint32_t, 32> make_pow2() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  for (std::size_t k = 0; k < t.size(); ++k) {
    t[k] = p;
    p = mul_mod_p(p, p);
  }
  return t;
}

constexpr auto kPow2 = make_pow2();

// Portable little-endian 32-bit load (compiles to one mov on LE targets).
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Slicing-by-8 core, shared by the portable path and the PCLMUL finish.
std::uint32_t table_update(std::uint32_t c, const unsigned char* p,
                           std::size_t size) {
  while (size >= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = kTables[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

bool detect_pclmul() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  return (ecx & bit_PCLMUL) != 0;
}

const bool kHasPclmul = detect_pclmul();

// Only streams long enough to enter the 64-byte fold loop take the SIMD
// path; short updates stay on the table kernel.
constexpr std::size_t kClmulThreshold = 64;

// Carry-less-multiply folding (the Intel CRC folding scheme, reflected
// form). A 16-byte register folded forward by N bytes stays CRC-equivalent
// to the original bytes: fold(A, B) = A.lo * K_hi ^ A.hi * K_lo ^ B is a
// 16-byte value with the same CRC as the byte string A || B, for the
// distance-matched constants x^(8N+64) mod P and x^(8N+32) mod P. The main
// loop folds four independent accumulators across 64 bytes per step, then
// collapses them 16 bytes apart. Instead of a Barrett reduction, the final
// 16 folded bytes are simply run through the table kernel by the caller -
// CRC-equivalence means any correct CRC of (folded || tail) is the answer.
//
// Folds whole 16-byte blocks of [p, p + size) into folded[16], absorbing
// `state` into the leading bytes, and returns the byte count consumed
// (a multiple of 16, >= 64). The caller restarts from state 0 over
// folded || the unconsumed tail.
__attribute__((target("pclmul"))) inline __m128i clmul_load(
    const unsigned char* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

__attribute__((target("pclmul"))) inline __m128i clmul_fold_step(
    __m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

__attribute__((target("pclmul")))
std::size_t clmul_fold(std::uint32_t state, const unsigned char* p,
                       std::size_t size, unsigned char* folded) {
  const auto load = clmul_load;
  // x^(512+64) mod P and x^(512+32) mod P: fold across 64 bytes.
  const __m128i k512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // x^(128+64) mod P and x^(128+32) mod P: fold across 16 bytes.
  const __m128i k128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const auto fold = clmul_fold_step;

  const std::size_t consumed = size & ~std::size_t{15};
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                          static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  size -= 64;
  while (size >= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
    p += 64;
    size -= 64;
  }
  __m128i acc = fold(x0, k128, x1);
  acc = fold(acc, k128, x2);
  acc = fold(acc, k128, x3);
  while (size >= 16) {
    acc = fold(acc, k128, load(p));
    p += 16;
    size -= 16;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded), acc);
  return consumed;
}

// 512-bit variant: VPCLMULQDQ applies the same per-128-bit-lane fold to
// four lanes at once, so one zmm register IS the scalar path's x0..x3 and
// the 64-byte loop body shrinks to two carry-less multiplies and two XORs.
// Requires AVX-512F + VPCLMULQDQ plus OS zmm state support (XCR0).
__attribute__((target("xsave"))) bool detect_vpclmul() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool has_vpclmul = (ecx & (1u << 10)) != 0;
  const bool has_avx512f = (ebx & (1u << 16)) != 0;
  if (!has_vpclmul || !has_avx512f) return false;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & bit_OSXSAVE) == 0) return false;
  // XMM, YMM and the three ZMM state components must all be OS-enabled.
  return (__builtin_ia32_xgetbv(0) & 0xE6) == 0xE6;
}

const bool kHasVpclmul = detect_vpclmul();

// The zmm path needs one full 64-byte block up front; below this size the
// 128-bit folder (or the plain table kernel) wins anyway.
constexpr std::size_t kVpclmulThreshold = 256;

__attribute__((target("avx512f,vpclmulqdq,pclmul")))
std::size_t vpclmul_fold(std::uint32_t state, const unsigned char* p,
                         std::size_t size, unsigned char* folded) {
  const __m512i k512v =
      _mm512_broadcast_i32x4(_mm_set_epi64x(0x1c6e41596, 0x154442bd4));
  const __m128i k128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const auto fold = clmul_fold_step;

  const std::size_t consumed = size & ~std::size_t{15};
  __m512i acc = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(state))));
  p += 64;
  size -= 64;
  while (size >= 64) {
    acc = _mm512_ternarylogic_epi64(
        _mm512_clmulepi64_epi128(acc, k512v, 0x00),
        _mm512_clmulepi64_epi128(acc, k512v, 0x11),
        _mm512_loadu_si512(p), 0x96);  // three-way XOR
    p += 64;
    size -= 64;
  }
  __m128i a = fold(_mm512_extracti32x4_epi32(acc, 0), k128,
                   _mm512_extracti32x4_epi32(acc, 1));
  a = fold(a, k128, _mm512_extracti32x4_epi32(acc, 2));
  a = fold(a, k128, _mm512_extracti32x4_epi32(acc, 3));
  while (size >= 16) {
    a = fold(a, k128, clmul_load(p));
    p += 16;
    size -= 16;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded), a);
  return consumed;
}

#endif  // defined(__x86_64__)

}  // namespace

void Crc32::update(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
#if defined(__x86_64__)
  if (size >= kClmulThreshold && kHasPclmul) {
    unsigned char folded[16];
    const std::size_t consumed =
        (size >= kVpclmulThreshold && kHasVpclmul)
            ? vpclmul_fold(c, p, size, folded)
            : clmul_fold(c, p, size, folded);
    // The folded bytes stand in for the consumed prefix (the incoming
    // state was absorbed into the first block), so continue from state 0.
    c = table_update(0, folded, sizeof(folded));
    p += consumed;
    size -= consumed;
  }
#endif
  state_ = table_update(c, p, size);
}

void Crc32::update(std::span<const std::byte> data) {
  update(data.data(), data.size());
}

std::uint32_t Crc32::compute(std::span<const std::byte> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

std::uint32_t Crc32::compute(const void* data, std::size_t size) {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

std::uint32_t Crc32::combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) {
  // x^(8 len_b) mod P, one table power per set bit of len_b (the x^8 per
  // byte is the k = 3 offset). x^(2^32) = x mod P, so k wraps at 32.
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1u) shift = mul_mod_p(kPow2[k & 31], shift);
  }
  return mul_mod_p(shift, crc_a) ^ crc_b;
}

}  // namespace ndpcr
