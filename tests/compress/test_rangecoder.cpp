#include "semholo/compress/rangecoder.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace semholo::compress {
namespace {

TEST(RangeCoder, SingleBitsRoundTrip) {
    std::vector<std::uint8_t> data;
    RangeEncoder enc(data);
    BitProb p;
    const std::vector<int> bits{0, 1, 1, 0, 1, 0, 0, 0, 1, 1};
    for (const int b : bits) enc.encodeBit(p, b);
    enc.finish();

    RangeDecoder dec(data);
    BitProb q;
    for (const int b : bits) EXPECT_EQ(dec.decodeBit(q), b);
}

TEST(RangeCoder, RandomBitStreamRoundTrip) {
    std::mt19937 rng(3);
    std::bernoulli_distribution bit(0.3);
    std::vector<int> bits(5000);
    for (auto& b : bits) b = bit(rng) ? 1 : 0;

    std::vector<std::uint8_t> data;
    RangeEncoder enc(data);
    BitProb p;
    for (const int b : bits) enc.encodeBit(p, b);
    enc.finish();

    RangeDecoder dec(data);
    BitProb q;
    for (const int b : bits) ASSERT_EQ(dec.decodeBit(q), b);
}

TEST(RangeCoder, AdaptiveCoderBeatsOneBitPerSymbolOnSkewedData) {
    // 95% zeros: the adaptive model must compress well below 1 bit/symbol.
    std::mt19937 rng(4);
    std::bernoulli_distribution bit(0.05);
    const std::size_t n = 20000;
    std::vector<std::uint8_t> data;
    RangeEncoder enc(data);
    BitProb p;
    for (std::size_t i = 0; i < n; ++i) enc.encodeBit(p, bit(rng) ? 1 : 0);
    enc.finish();
    EXPECT_LT(data.size(), n / 8 / 2);  // < 0.5 bit per symbol
}

TEST(RangeCoder, DirectBitsRoundTrip) {
    std::mt19937 rng(5);
    std::uniform_int_distribution<std::uint32_t> uni(0, 0xFFFFFF);
    std::vector<std::uint32_t> values(500);
    for (auto& v : values) v = uni(rng);

    std::vector<std::uint8_t> data;
    RangeEncoder enc(data);
    for (const auto v : values) enc.encodeDirect(v, 24);
    enc.finish();

    RangeDecoder dec(data);
    for (const auto v : values) ASSERT_EQ(dec.decodeDirect(24), v);
}

TEST(RangeCoder, TreeRoundTrip) {
    std::mt19937 rng(6);
    std::uniform_int_distribution<std::uint32_t> uni(0, 255);
    std::vector<std::uint32_t> values(2000);
    for (auto& v : values) v = uni(rng);

    std::vector<BitProb> encTree(255), decTree(255);
    std::vector<std::uint8_t> data;
    RangeEncoder enc(data);
    for (const auto v : values) enc.encodeTree(encTree, v, 8);
    enc.finish();

    RangeDecoder dec(data);
    for (const auto v : values) ASSERT_EQ(dec.decodeTree(decTree, 8), v);
}

TEST(RangeCoder, MixedOperationsRoundTrip) {
    std::vector<std::uint8_t> data;
    RangeEncoder enc(data);
    BitProb p;
    std::vector<BitProb> encTree(15);
    enc.encodeBit(p, 1);
    enc.encodeDirect(0x5A, 8);
    enc.encodeTree(encTree, 11, 4);
    enc.encodeBit(p, 0);
    enc.finish();

    RangeDecoder dec(data);
    BitProb q;
    std::vector<BitProb> decTree(15);
    EXPECT_EQ(dec.decodeBit(q), 1);
    EXPECT_EQ(dec.decodeDirect(8), 0x5Au);
    EXPECT_EQ(dec.decodeTree(decTree, 4), 11u);
    EXPECT_EQ(dec.decodeBit(q), 0);
}

}  // namespace
}  // namespace semholo::compress
