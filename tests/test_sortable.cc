/**
 * @file
 * Property tests for the sortable-key codecs: invertibility,
 * monotonicity, and interval soundness — the foundations the entire
 * early-termination correctness argument rests on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/prng.h"
#include "et/sortable.h"

namespace ansmet::et {
namespace {

using anns::ScalarType;

/** Draw a random raw bit pattern that decodes to a finite value. */
std::uint32_t
randomRaw(ScalarType t, Prng &rng)
{
    switch (t) {
      case ScalarType::kUint8:
      case ScalarType::kInt8:
        return static_cast<std::uint32_t>(rng.below(256));
      case ScalarType::kFp16: {
        std::uint32_t r;
        do {
            r = static_cast<std::uint32_t>(rng.below(1u << 16));
        } while (((r >> 10) & 0x1f) == 0x1f); // skip inf/nan
        return r;
      }
      case ScalarType::kFp32: {
        std::uint32_t r;
        do {
            r = static_cast<std::uint32_t>(rng.next());
        } while (((r >> 23) & 0xff) == 0xff);
        return r;
      }
    }
    return 0;
}

class SortableTest : public ::testing::TestWithParam<ScalarType>
{
};

TEST_P(SortableTest, KeyRoundTrips)
{
    const ScalarType t = GetParam();
    Prng rng(1);
    for (int i = 0; i < 5000; ++i) {
        const std::uint32_t raw = randomRaw(t, rng);
        EXPECT_EQ(fromKey(t, toKey(t, raw)), raw);
    }
}

TEST_P(SortableTest, KeysAreMonotone)
{
    const ScalarType t = GetParam();
    Prng rng(2);
    for (int i = 0; i < 5000; ++i) {
        const std::uint32_t ra = randomRaw(t, rng);
        const std::uint32_t rb = randomRaw(t, rng);
        const double va = keyToValue(t, toKey(t, ra));
        const double vb = keyToValue(t, toKey(t, rb));
        const std::uint32_t ka = toKey(t, ra);
        const std::uint32_t kb = toKey(t, rb);
        if (va < vb) {
            EXPECT_LT(ka, kb) << va << " vs " << vb;
        }
        if (va > vb) {
            EXPECT_GT(ka, kb);
        }
    }
}

TEST_P(SortableTest, IntervalContainsValueForEveryPrefixLength)
{
    const ScalarType t = GetParam();
    const unsigned w = keyBits(t);
    Prng rng(3);
    for (int i = 0; i < 500; ++i) {
        const std::uint32_t raw = randomRaw(t, rng);
        const std::uint32_t key = toKey(t, raw);
        const double v = keyToValue(t, key);
        for (unsigned len = 0; len <= w; ++len) {
            const std::uint32_t prefix =
                len == 0 ? 0 : (key >> (w - len));
            const ValueInterval iv = intervalFromPrefix(t, prefix, len);
            EXPECT_LE(iv.lo, v) << "len=" << len;
            EXPECT_GE(iv.hi, v) << "len=" << len;
            EXPECT_LE(iv.lo, iv.hi);
        }
    }
}

TEST_P(SortableTest, LongerPrefixesNest)
{
    const ScalarType t = GetParam();
    const unsigned w = keyBits(t);
    Prng rng(4);
    for (int i = 0; i < 300; ++i) {
        const std::uint32_t key = toKey(t, randomRaw(t, rng));
        ValueInterval prev = intervalFromPrefix(t, 0, 0);
        for (unsigned len = 1; len <= w; ++len) {
            const ValueInterval iv =
                intervalFromPrefix(t, key >> (w - len), len);
            EXPECT_GE(iv.lo, prev.lo) << "len=" << len;
            EXPECT_LE(iv.hi, prev.hi) << "len=" << len;
            prev = iv;
        }
        // Full prefix pins the exact value.
        EXPECT_DOUBLE_EQ(prev.lo, prev.hi);
        EXPECT_DOUBLE_EQ(prev.lo, keyToValue(t, key));
    }
}

/**
 * Keys at the edges of @p t's encoding: all-zero and all-one keys,
 * signed zeros, the clamp boundaries at +-max finite and the keys just
 * beyond them, and (fp16/fp32) the subnormal range.
 */
std::vector<std::uint32_t>
edgeKeys(ScalarType t)
{
    std::vector<std::uint32_t> raws;
    switch (t) {
      case ScalarType::kUint8:
      case ScalarType::kInt8:
        raws = {0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff};
        break;
      case ScalarType::kFp16:
        raws = {0x0000, 0x8000,          // +0, -0
                0x0001, 0x8001,          // smallest subnormals
                0x0155, 0x83ff, 0x03ff,  // subnormals up to the largest
                0x0400, 0x8400,          // smallest normals
                0x7bff, 0xfbff,          // +-max finite (clamp bounds)
                0x7c00, 0xfc00,          // +-inf (clamped)
                0x3c00, 0xbc00};         // +-1
        break;
      case ScalarType::kFp32:
        raws = {0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u,
                0x007fffffu, 0x807fffffu, 0x00800000u, 0x80800000u,
                0x7f7fffffu, 0xff7fffffu, 0x7f800000u, 0xff800000u,
                0x3f800000u, 0xbf800000u};
        break;
    }
    const auto ones = static_cast<std::uint32_t>(maskLow(keyBits(t)));
    std::vector<std::uint32_t> keys = {0u, ones};
    for (const std::uint32_t raw : raws) {
        const std::uint32_t k = toKey(t, raw);
        keys.push_back(k);
        if (k > 0)
            keys.push_back(k - 1);
        if (k < ones)
            keys.push_back(k + 1);
    }
    return keys;
}

TEST_P(SortableTest, StagedIntervalsMatchIntervalFromPrefix)
{
    const ScalarType t = GetParam();
    const unsigned w = keyBits(t);
    std::vector<std::uint32_t> keys = edgeKeys(t);
    Prng rng(5);
    for (int i = 0; i < 301; ++i)
        keys.push_back(toKey(t, randomRaw(t, rng)));
    const auto n = static_cast<unsigned>(keys.size());

    std::vector<double> nlo(n), nhi(n);
    for (unsigned len = 1; len <= w; ++len) {
        stageIntervals(t, keys.data(), n, len, nlo.data(), nhi.data());
        for (unsigned i = 0; i < n; ++i) {
            const ValueInterval iv =
                intervalFromPrefix(t, keys[i] >> (w - len), len);
            EXPECT_EQ(nlo[i], iv.lo) << "key=" << keys[i] << " len=" << len;
            EXPECT_EQ(nhi[i], iv.hi) << "key=" << keys[i] << " len=" << len;
            // == does not tell -0 from +0.
            EXPECT_EQ(std::signbit(nlo[i]), std::signbit(iv.lo));
            EXPECT_EQ(std::signbit(nhi[i]), std::signbit(iv.hi));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, SortableTest,
                         ::testing::Values(ScalarType::kUint8,
                                           ScalarType::kInt8,
                                           ScalarType::kFp16,
                                           ScalarType::kFp32),
                         [](const auto &info) {
                             return anns::scalarName(info.param);
                         });

TEST(Sortable, KnownValues)
{
    // UINT8 identity.
    EXPECT_EQ(toKey(ScalarType::kUint8, 0x7f), 0x7fu);
    // INT8: -128 -> 0, 0 -> 128, 127 -> 255.
    EXPECT_EQ(toKey(ScalarType::kInt8, 0x80), 0x00u);
    EXPECT_EQ(toKey(ScalarType::kInt8, 0x00), 0x80u);
    EXPECT_EQ(toKey(ScalarType::kInt8, 0x7f), 0xffu);
    // FP32: -0.0 sorts just below +0.0, both decode to 0.
    const std::uint32_t kneg = toKey(ScalarType::kFp32, 0x80000000u);
    const std::uint32_t kpos = toKey(ScalarType::kFp32, 0x00000000u);
    EXPECT_LT(kneg, kpos);
    EXPECT_EQ(keyToValue(ScalarType::kFp32, kneg), 0.0);
}

TEST(Sortable, PaperPartialBitExample)
{
    // Section 4.1: query 0101, fetched 01__ -> missing bits set to 01,
    // i.e. the recovered closest value is 0101 itself.
    const ScalarType t = ScalarType::kUint8;
    // 4-bit example embedded in the low bits of uint8 keys: use real
    // 8-bit values 0101'0000-style by shifting.
    const std::uint32_t q = 0b01010000;
    const std::uint32_t partial_prefix = 0b01; // top 2 bits
    const ValueInterval iv = intervalFromPrefix(t, partial_prefix, 2);
    // q = 80 lies inside [64, 127]: distance lower bound 0.
    EXPECT_LE(iv.lo, static_cast<double>(q));
    EXPECT_GE(iv.hi, static_cast<double>(q));

    // Fetched 00__: interval [0, 63], query 80 -> gap 17 (to 63).
    const ValueInterval iv2 = intervalFromPrefix(t, 0b00, 2);
    EXPECT_DOUBLE_EQ(iv2.hi, 63.0);
}

TEST(Sortable, ClampKeepsEndpointsFinite)
{
    // A 1-bit fp32 prefix of "positive" spans into what would be NaN
    // space; clamping must keep endpoints finite.
    const ValueInterval iv = intervalFromPrefix(ScalarType::kFp32, 1, 1);
    EXPECT_TRUE(std::isfinite(iv.lo));
    EXPECT_TRUE(std::isfinite(iv.hi));
    EXPECT_GT(iv.hi, 1e38);
}

} // namespace
} // namespace ansmet::et
