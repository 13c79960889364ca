#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <cmath>

#include "common/batch_rng.hpp"
#include "common/breakdown_table.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "common/ziggurat.hpp"

namespace ndpcr {
namespace {

TEST(Crc32, MatchesKnownVectors) {
  // Standard CRC-32 check value for "123456789".
  const char* msg = "123456789";
  EXPECT_EQ(Crc32::compute(msg, std::strlen(msg)), 0xCBF43926u);
  // Empty input.
  EXPECT_EQ(Crc32::compute(nullptr, 0), 0x00000000u);
  // Single zero byte.
  const unsigned char zero = 0;
  EXPECT_EQ(Crc32::compute(&zero, 1), 0xD202EF8Du);
}

TEST(Crc32, SlicedPathMatchesGoldenVectors) {
  // Inputs long enough to exercise the 8-bytes-per-iteration slicing
  // loop, against published CRC-32 check values.
  const char* fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32::compute(fox, std::strlen(fox)), 0x414FA339u);
  unsigned char ramp[256];
  for (int i = 0; i < 256; ++i) ramp[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(Crc32::compute(ramp, sizeof ramp), 0x29058C73u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 crc;
  crc.update(data.data(), 10);
  crc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc.value(), Crc32::compute(data.data(), data.size()));
}

TEST(Crc32, SplitsAtOddOffsetsMatchOneShot) {
  // Misaligned split points mix the byte-wise head/tail with the sliced
  // core; every split must agree with the one-shot value.
  Bytes data(1021);
  Rng rng(99);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  const auto one_shot = Crc32::compute(data);
  for (std::size_t split : {1u, 3u, 7u, 8u, 9u, 63u, 64u, 513u, 1020u}) {
    Crc32 crc;
    crc.update(data.data(), split);
    crc.update(data.data() + split, data.size() - split);
    EXPECT_EQ(crc.value(), one_shot) << "split=" << split;
  }
}

TEST(Crc32, CombineMatchesOneShotOverSeededSplits) {
  // combine(crc(A), crc(B), |B|) must equal crc(A || B) for any split:
  // empty and 1-byte parts, unaligned lengths, and parts long enough to
  // take the carry-less-multiply path of update().
  Rng rng(2024);
  Bytes data(70000);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  std::vector<std::size_t> splits = {0, 1, 3, 63, 64, 65, 4093,
                                     data.size() - 1, data.size()};
  for (int i = 0; i < 24; ++i) splits.push_back(rng.next_below(data.size()));
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{1021},
                                data.size()}) {
    const ByteSpan whole = ByteSpan(data).first(len);
    const std::uint32_t one_shot = Crc32::compute(whole);
    for (const std::size_t s : splits) {
      if (s > len) continue;
      const std::uint32_t a = Crc32::compute(whole.first(s));
      const std::uint32_t b = Crc32::compute(whole.subspan(s));
      EXPECT_EQ(Crc32::combine(a, b, len - s), one_shot)
          << "len=" << len << " split=" << s;
    }
  }
  // Combining with an empty tail is the identity.
  EXPECT_EQ(Crc32::combine(0xCBF43926u, 0, 0), 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data(1024, std::byte{0x42});
  const auto clean = Crc32::compute(data);
  data[512] ^= std::byte{0x01};
  EXPECT_NE(Crc32::compute(data), clean);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(42);
  const double mean = 30.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(mean);
  EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.exponential(1.0), 0.0);
  }
}

// Pins the Weibull renewal sampler bit for bit: 16 draws per (seed,
// shape, mean), recorded as hex floats from the earlier sampler that
// evaluated mean / tgamma(1 + 1/shape) on every draw. The failure DES
// and the timeline simulator draw every Weibull gap through this path,
// so one changed bit here moves their golden counters.
TEST(Rng, WeibullGapsReproducesRecordedDraws) {
  struct Case {
    std::uint64_t seed;
    double shape;
    double mean;
    double draws[16];
  };
  const Case cases[] = {
      {1, 0.7, 1000.0,
       {0x1.6440b10aa04dfp+7, 0x1.add549d462771p+8, 0x1.549de2be31816p+8,
        0x1.6899394f72c4ap+9, 0x1.70280d6d3926ep+7, 0x1.fd56729525bc1p+10,
        0x1.8c28eb4cda9bdp+11, 0x1.771afff754dd2p+9, 0x1.86e465557dabcp+5,
        0x1.780948d737a7dp+8, 0x1.19f5a37eaa316p+4, 0x1.21086ca1cb397p+3,
        0x1.18b8af1901b7bp+4, 0x1.ad88c1d78d304p+7, 0x1.2eb2773b566d1p+8,
        0x1.22f4680d834e4p+5}},
      {7919, 1.5, 3.25,
       {0x1.887f8f04bed9bp+1, 0x1.3a8f6d2c66dafp-2, 0x1.548f806d2d061p+3,
        0x1.511a7cdf3847p+2, 0x1.089522e9e2d9p+2, 0x1.278b5a2517e86p+3,
        0x1.f58ed3a002f6bp+0, 0x1.6b26408367e65p+1, 0x1.e249e1936a2d8p-2,
        0x1.3b5cd5f771b35p+0, 0x1.942ed7362c0acp+1, 0x1.2499b8d69da85p+2,
        0x1.5bc2e5004b678p-2, 0x1.b9ba943750796p+1, 0x1.e8041ae14ad27p+0,
        0x1.f2ef83c7ff197p+0}},
      {42, 0.3, 86400.0,
       {0x1.7780985bd0ddap+17, 0x1.07a80f009ef1ep+13, 0x1.85572e3d9ade9p+8,
        0x1.ea62c14fcfc93p+0, 0x1.133fbee1deb1ep-10, 0x1.abdc11e4fb2dep+6,
        0x1.cd38e7a598411p+7, 0x1.5d9d498c665c3p+4, 0x1.ea5ccad06a35ep+6,
        0x1.293010db48c8fp+10, 0x1.799045ad93d7fp+8, 0x1.270b5c4a316cfp+14,
        0x1.ed7759800006cp+5, 0x1.bcb8f992e6a1fp+13, 0x1.0222e0d2ced4cp+8,
        0x1.4f7a1d1b35862p+3}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "seed=" << c.seed
                                    << " shape=" << c.shape);
    Rng rng(c.seed);
    const WeibullGaps gaps(c.shape, c.mean);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(gaps(rng), c.draws[i]) << "draw " << i;
    }
  }
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  Rng rng(3);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Units, RoundTrips) {
  using namespace units;
  EXPECT_DOUBLE_EQ(bytes_from_gb(112), 112e9);
  EXPECT_DOUBLE_EQ(gb(bytes_from_gb(140)), 140.0);
  EXPECT_DOUBLE_EQ(minutes(30), 1800.0);
  EXPECT_DOUBLE_EQ(to_minutes(minutes(160)), 160.0);
  EXPECT_DOUBLE_EQ(mbps(100), 1e8);
  EXPECT_DOUBLE_EQ(gbps(15), 1.5e10);
}

TEST(Bytes, LittleEndianRoundTrip) {
  Bytes buf;
  append_le<std::uint64_t>(buf, 0x1122334455667788ull);
  append_le<std::uint32_t>(buf, 0xDEADBEEFu);
  EXPECT_EQ(buf.size(), 12u);
  EXPECT_EQ(read_le<std::uint64_t>(buf, 0), 0x1122334455667788ull);
  EXPECT_EQ(read_le<std::uint32_t>(buf, 8), 0xDEADBEEFu);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("------"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.51, 0), "51%");
  EXPECT_EQ(fmt_si_bytes(112e9), "112 GB");
}

TEST(BreakdownTable, RowsMatchHeadersAndSumSanely) {
  sim::Breakdown b;
  b.compute = 90.0;
  b.ckpt_local = 4.0;
  b.ckpt_io = 2.0;
  b.rerun_io = 4.0;

  const auto ph = table::breakdown_header("Config");
  const auto pr = table::breakdown_row("x", b);
  ASSERT_EQ(pr.size(), ph.size());
  EXPECT_EQ(pr[0], "x");
  EXPECT_EQ(pr[1], fmt_percent(0.90, 1));  // progress = 90/100
  EXPECT_EQ(pr[2], fmt_percent(0.90, 1));  // compute share
  EXPECT_EQ(pr[4], fmt_percent(0.02, 1));  // CkptIO share

  const auto nh = table::normalized_header("Config");
  const auto nr = table::normalized_row("x", b);
  ASSERT_EQ(nr.size(), nh.size());
  EXPECT_EQ(nr[1], fmt_fixed(100.0 / 90.0, 3));  // total normalized to compute
  EXPECT_EQ(nr[2], fmt_fixed(1.0, 3));
}

}  // namespace
}  // namespace ndpcr

// ---- BatchRng (common/batch_rng.hpp) ---------------------------------

TEST(BatchRng, PortableAndDispatchedPathsAreBitIdentical) {
  // On AVX-512 hosts this pins the vector kernels against the portable
  // lane emulation - the cross-host bit-identity contract. Elsewhere
  // both instances resolve to the portable path and this degenerates to
  // a determinism check.
  for (const std::uint64_t seed : {1ull, 42ull, 20260808ull}) {
    ndpcr::BatchRng fast(seed);
    ndpcr::BatchRng portable(seed, /*use_vector=*/false);
    // Sizes cross 8-lane block boundaries and exercise the partial
    // tail (a full lane step with only the first `rest` values kept).
    const std::size_t sizes[] = {8, 3, 16, 129, 4096, 5};
    double carry_fast = 0.0;
    double carry_portable = 0.0;
    for (const std::size_t count : sizes) {
      std::vector<double> a(count), b(count);
      fast.fill_exp_times(a.data(), count, 3600.0, carry_fast);
      portable.fill_exp_times(b.data(), count, 3600.0, carry_portable);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(a[i], b[i]) << "gap stream diverged at " << i;
      }
      ASSERT_EQ(carry_fast, carry_portable);
      std::vector<std::uint32_t> va(count), vb(count);
      fast.fill_below(va.data(), count, 100003);
      portable.fill_below(vb.data(), count, 100003);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(va[i], vb[i]) << "pick stream diverged at " << i;
      }
    }
  }
}

TEST(BatchRng, ExpTimesAreNonDecreasingWithMatchingMean) {
  ndpcr::BatchRng rng(7);
  const double mean = 10.0;
  const std::size_t n = 200000;
  std::vector<double> t(n);
  double carry = 0.0;
  rng.fill_exp_times(t.data(), n, mean, carry);
  double prev = 0.0;
  for (const double x : t) {
    ASSERT_GE(x, prev);
    prev = x;
  }
  EXPECT_EQ(carry, t.back());
  EXPECT_NEAR(t.back() / static_cast<double>(n), mean, mean * 0.02);
}

TEST(BatchRng, FillBelowRespectsBoundAndCoversResidues) {
  ndpcr::BatchRng rng(9);
  std::vector<std::uint32_t> v(10000);
  rng.fill_below(v.data(), v.size(), 7);
  std::set<std::uint32_t> seen;
  for (const std::uint32_t x : v) {
    ASSERT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(BatchRng, DifferentSeedsDiverge) {
  ndpcr::BatchRng a(1), b(2);
  std::vector<double> ta(64), tb(64);
  double ca = 0.0, cb = 0.0;
  a.fill_exp_times(ta.data(), ta.size(), 1.0, ca);
  b.fill_exp_times(tb.data(), tb.size(), 1.0, cb);
  EXPECT_NE(ta, tb);
}

// ---- Exp(1) distribution pins ----------------------------------------
//
// Empirical mean and CDF of the ziggurat samplers against Exp(1) at a
// tolerance far below the 2% mean checks elsewhere. The wedge-acceptance
// band is the regression target: interpolating toward the wrong layer
// edge turns every wedge rejection into an accept, shifting the mean by
// ~0.4% and P(X < 0.2) by ~1.8e-3 absolute - 3-12x these bounds - while
// slipping under a 2% tolerance. Seeds are fixed and both samplers are
// deterministic, so the checks are exact, not flaky.

template <typename Draw>
static void ExpectUnitExpDistribution(Draw draw, std::size_t n) {
  constexpr double kXs[] = {0.05, 0.2, 0.5, 1.0, 2.0, 4.0};
  constexpr int kPoints = 6;
  std::size_t below[kPoints] = {};
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double v = draw();
    sum += v;
    for (int j = 0; j < kPoints; ++j) below[j] += v < kXs[j] ? 1u : 0u;
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 1.0, 1.5e-3);
  for (int j = 0; j < kPoints; ++j) {
    const double expected = 1.0 - std::exp(-kXs[j]);
    const double got = static_cast<double>(below[j]) / static_cast<double>(n);
    EXPECT_NEAR(got, expected, 6e-4) << "CDF at x=" << kXs[j];
  }
}

TEST(Ziggurat, UnitExpCdfMatchesTightly) {
  ndpcr::Rng rng(20260808);
  ExpectUnitExpDistribution([&rng] { return ndpcr::ziggurat_exp(rng); },
                            8000000);
}

TEST(BatchRng, ExpGapCdfMatchesTightly) {
  // Gaps recovered as successive differences of the accumulated times,
  // exercising zig_from() (and the vector kernel where available).
  ndpcr::BatchRng rng(20260808);
  constexpr std::size_t kChunk = 1 << 16;
  std::vector<double> t(kChunk);
  double carry = 0.0;
  double prev = 0.0;
  std::size_t idx = kChunk;
  ExpectUnitExpDistribution(
      [&] {
        if (idx == kChunk) {
          rng.fill_exp_times(t.data(), kChunk, 1.0, carry);
          idx = 0;
        }
        const double gap = t[idx] - prev;
        prev = t[idx];
        ++idx;
        return gap;
      },
      8000000);
}
