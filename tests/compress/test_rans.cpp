#include "semholo/compress/rans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

namespace semholo::compress {
namespace {

void expectRoundTrip(const std::vector<std::uint8_t>& data) {
    const auto compressed = ransCompress(data);
    EXPECT_LE(compressed.size(), ransMaxCompressedBytes(data.size()));
    const auto back = ransDecompress(compressed);
    ASSERT_TRUE(back.has_value()) << data.size() << " bytes";
    EXPECT_EQ(*back, data);
}

std::vector<std::uint8_t> randomBytes(std::size_t n, std::uint32_t seed, int maxByte = 255) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> byte(0, maxByte);
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(byte(rng));
    return out;
}

// Zigzag LEB128 varints of smooth deltas: the mesh codec's position
// sections, with first and continuation bytes in both contexts.
std::vector<std::uint8_t> varintStream(std::size_t values, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> delta(0.0, 90.0);
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < values; ++i) {
        const auto v = static_cast<std::int64_t>(std::lround(delta(rng)));
        std::uint64_t z =
            (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
        for (; z >= 0x80; z >>= 7) out.push_back(static_cast<std::uint8_t>(z) | 0x80);
        out.push_back(static_cast<std::uint8_t>(z));
    }
    return out;
}

TEST(Rans, EmptyInput) {
    const auto compressed = ransCompress({});
    EXPECT_EQ(compressed.size(), kRansHeaderBytes);
    const auto back = ransDecompress(compressed);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->empty());
}

TEST(Rans, OneSymbol) {
    expectRoundTrip({42});
    expectRoundTrip({0xFF});
    // A long run of one symbol costs almost nothing, but not nothing:
    // its frequency stays below the scale.
    const std::vector<std::uint8_t> run(20000, 7);
    const auto compressed = ransCompress(run);
    EXPECT_LT(compressed.size(), 64u);
    EXPECT_EQ(ransDecompress(compressed), run);
}

TEST(Rans, AllByteValues) {
    std::vector<std::uint8_t> all(256 * 40);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<std::uint8_t>(i);
    std::shuffle(all.begin(), all.end(), std::mt19937(9));
    expectRoundTrip(all);
    // Uniform bytes cannot compress: header and tables on top of ~1:1.
    const auto compressed = ransCompress(all);
    EXPECT_LT(compressed.size(), all.size() + 1100);
}

TEST(Rans, LengthsNotMultipleOfFour) {
    for (std::size_t n = 1; n <= 13; ++n)
        expectRoundTrip(randomBytes(n, static_cast<std::uint32_t>(n)));
    for (const std::size_t n : {1001u, 1002u, 1003u, 4097u})
        expectRoundTrip(varintStream(n, static_cast<std::uint32_t>(n)));
}

TEST(Rans, VarintStreamCompresses) {
    const auto data = varintStream(20000, 1);
    const auto compressed = ransCompress(data);
    EXPECT_LT(compressed.size(), data.size() * 3 / 4);
    EXPECT_EQ(ransDecompress(compressed), data);
    // The out-parameter overload replaces the buffer's contents.
    std::vector<std::uint8_t> out(100, 0xAB);
    ransCompress(data, out);
    EXPECT_EQ(out, compressed);
    std::vector<std::uint8_t> decoded(7, 1);
    ASSERT_TRUE(ransDecompress(compressed, decoded));
    EXPECT_EQ(decoded, data);
}

// Gamma-coded frequency tables, as the wire layout describes them.
class TableWriter {
public:
    void put(std::uint32_t value, int bits) {
        for (int i = bits - 1; i >= 0; --i) {
            if (count_ % 8 == 0) bytes_.push_back(0);
            if ((value >> i) & 1u)
                bytes_.back() |= static_cast<std::uint8_t>(0x80u >> (count_ % 8));
            ++count_;
        }
    }
    void table(const std::vector<std::uint32_t>& freq) {
        put(static_cast<std::uint32_t>(freq.size() - 1), 8);
        for (const std::uint32_t f : freq) {
            const int bits = static_cast<int>(std::bit_width(f + 1));
            put(0, bits - 1);
            put(f + 1, bits);
        }
    }
    std::vector<std::uint8_t> bytes_;

private:
    std::size_t count_{0};
};

// A stream with the given tables, and the states and payload of 'from'
// (a real stream whose tables took 'fromTableBytes').
std::vector<std::uint8_t> withTables(const std::vector<std::uint8_t>& from,
                                     std::size_t fromTableBytes,
                                     const std::vector<std::uint32_t>& ctx0,
                                     const std::vector<std::uint32_t>& ctx1) {
    TableWriter w;
    w.table(ctx0);
    w.table(ctx1);
    std::vector<std::uint8_t> out(from.begin(), from.begin() + kRansHeaderBytes);
    out.insert(out.end(), w.bytes_.begin(), w.bytes_.end());
    out.insert(out.end(),
               from.begin() + static_cast<std::ptrdiff_t>(kRansHeaderBytes + fromTableBytes),
               from.end());
    return out;
}

TEST(Rans, TablesThatDoNotSumToTheScaleRejected) {
    // Five zeros: context 0 holds symbol 0 at scale - 1 and its
    // neighbour at 1; context 1 is unused (one zero entry).
    const std::vector<std::uint8_t> zeros(5, 0);
    const auto good = ransCompress(zeros);
    const std::size_t tableBytes = 6;  // 8 + 25 + 3 + 8 + 1 bits
    ASSERT_EQ(withTables(good, tableBytes, {kRansScale - 1, 1}, {0}), good);
    ASSERT_TRUE(ransDecompress(good).has_value());

    const std::vector<std::vector<std::uint8_t>> corrupt = {
        withTables(good, tableBytes, {kRansScale - 2, 1}, {0}),     // sums short
        withTables(good, tableBytes, {kRansScale - 1, 2}, {0}),     // sums over
        withTables(good, tableBytes, {kRansScale - 1, 1}, {1}),     // unused context not empty
        withTables(good, tableBytes, {0, kRansScale - 1}, {0, 1}),  // context 1 sums short
        withTables(good, tableBytes, {0}, {0}),                     // used context empty
    };
    for (std::size_t i = 0; i < corrupt.size(); ++i) {
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(ransDecompress(corrupt[i], out)) << "case " << i;
    }
    // A lone symbol at the full scale would decode without consuming
    // bits, so it is rejected as well. Its gamma code needs one more bit.
    TableWriter w;
    w.table({kRansScale});
    w.table({0});
    std::vector<std::uint8_t> lone(good.begin(), good.begin() + kRansHeaderBytes);
    lone.insert(lone.end(), w.bytes_.begin(), w.bytes_.end());
    lone.insert(lone.end(), good.begin() + kRansHeaderBytes + tableBytes, good.end());
    EXPECT_FALSE(ransDecompress(lone).has_value());
}

TEST(Rans, BadHeaderRejected) {
    const auto good = ransCompress(varintStream(500, 2));
    auto badTag = good;
    badTag[0] = 0x20;  // an lzc format byte
    EXPECT_FALSE(ransDecompress(badTag).has_value());
    EXPECT_FALSE(ransDecodedSize(badTag).has_value());
    // A size no stream of this length can decode to.
    auto huge = good;
    const auto claim = static_cast<std::uint32_t>((good.size() - kRansHeaderBytes) *
                                                  kRansMaxExpansion + 1);
    for (int i = 0; i < 4; ++i) huge[1 + i] = static_cast<std::uint8_t>(claim >> (8 * i));
    EXPECT_FALSE(ransDecodedSize(huge).has_value());
    EXPECT_FALSE(ransDecompress(huge).has_value());
    EXPECT_FALSE(ransDecompress(std::span(good).first(3)).has_value());
}

TEST(Rans, TruncatedPayloadsRejected) {
    const auto good = ransCompress(varintStream(300, 3));
    ASSERT_TRUE(ransDecompress(good).has_value());
    std::vector<std::uint8_t> out;
    for (std::size_t len = 0; len < good.size(); ++len)
        EXPECT_FALSE(ransDecompress(std::span(good).first(len), out)) << len;
    auto trailing = good;
    trailing.push_back(0);
    EXPECT_FALSE(ransDecompress(trailing, out));
}

TEST(Rans, FinalStateMismatchRejected) {
    // Three equally frequent symbols: context 0 holds them at 1366, 1365
    // and 1365 of the scale, so the four states start after 10 table
    // bytes. (With power-of-two frequencies rANS degenerates to bit
    // packing, and a perturbed state only changes decoded symbols.)
    std::vector<std::uint8_t> data(4002);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i % 3);
    const auto good = ransCompress(data);
    const std::size_t tableBytes = 10;  // 8 + 3 * 21 + 8 + 1 bits
    ASSERT_EQ(withTables(good, tableBytes, {1366, 1365, 1365}, {0}), good);
    ASSERT_EQ(ransDecompress(good), data);
    const std::size_t statesAt = kRansHeaderBytes + tableBytes;
    // Perturb each state's low byte: still a valid state, but the decode
    // no longer ends where the encoder started.
    for (std::size_t lane = 0; lane < 4; ++lane)
        for (const std::uint8_t flip : {0x01, 0x10, 0x80}) {
            auto bad = good;
            bad[statesAt + 4 * lane] ^= flip;
            EXPECT_FALSE(ransDecompress(bad).has_value())
                << "lane " << lane << " flip " << int{flip};
        }
    // A state outside [2^23, 2^31) is rejected before decoding.
    auto low = good;
    low[statesAt + 2] = 0x00;
    low[statesAt + 3] = 0x00;
    EXPECT_FALSE(ransDecompress(low).has_value());
}

TEST(Rans, CorruptionFuzzNeverCrashes) {
    const auto good = ransCompress(varintStream(400, 5));
    std::vector<std::uint8_t> out;
    for (std::size_t bit = 0; bit < good.size() * 8; bit += 3) {
        auto flipped = good;
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NO_THROW(ransDecompress(flipped, out));
    }
    std::mt19937 rng(6);
    for (int trial = 0; trial < 200; ++trial) {
        auto noise = randomBytes(40 + trial, static_cast<std::uint32_t>(trial));
        noise[0] = kRansFormatTag;
        EXPECT_NO_THROW(ransDecompress(noise, out));
    }
}

}  // namespace
}  // namespace semholo::compress
