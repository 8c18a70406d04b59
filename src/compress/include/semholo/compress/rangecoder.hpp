// Adaptive binary range coder, the entropy-coding core of the LZMA-class
// codec (DESIGN.md: stand-in for the paper's LZMA keypoint compression).
// Probabilities are 11-bit adaptive counters exactly as in LZMA.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace semholo::compress {

// Adaptive probability of a bit being 0, in [0, 2048).
struct BitProb {
    std::uint16_t p{1024};
};

inline constexpr std::uint32_t kRangeTopValue = 1u << 24;
inline constexpr int kRangeProbBits = 11;
inline constexpr int kRangeMoveBits = 5;

// The encoder is inline and writes through a pointer to the caller's
// buffer, so its own address never escapes: a local encoder keeps its
// state in registers, and lzc's match loop codes every decision through
// it. Each decision is branch-free (bit selects by mask), since the
// bits it codes are close to random.
class RangeEncoder {
public:
    // Append the coded bytes to 'out' (its contents and capacity are
    // kept, so callers can prefix a header or reuse a buffer). 'out'
    // must outlive the encoder; the bytes are complete after finish().
    explicit RangeEncoder(std::vector<std::uint8_t>& out) : out_(&out) {}

    void encodeBit(BitProb& prob, int bit) {
        const std::uint32_t p = prob.p;
        const std::uint32_t bound = (range_ >> kRangeProbBits) * p;
        const std::uint32_t one = 0u - static_cast<std::uint32_t>(bit);  // all ones on 1
        low_ += bound & one;
        range_ = bound + ((range_ - 2 * bound) & one);  // 0: bound, 1: range - bound
        prob.p = static_cast<std::uint16_t>(
            p + ((((1u << kRangeProbBits) - p) >> kRangeMoveBits) & ~one) -
            ((p >> kRangeMoveBits) & one));
        normalize();
    }
    // Encode 'bits' raw bits of 'value' (MSB first) at probability 1/2.
    void encodeDirect(std::uint32_t value, int bits) {
        for (int i = bits - 1; i >= 0; --i) {
            range_ >>= 1;
            low_ += range_ & (0u - ((value >> i) & 1u));
            normalize();
        }
    }
    // Encode a value in [0, 2^bits) through an adaptive bit tree of
    // (1 << bits) - 1 probabilities.
    void encodeTree(std::span<BitProb> tree, std::uint32_t value, int bits) {
        std::uint32_t node = 1;
        for (int i = bits - 1; i >= 0; --i) {
            const int bit = static_cast<int>((value >> i) & 1u);
            encodeBit(tree[node - 1], bit);
            node = (node << 1) | static_cast<std::uint32_t>(bit);
        }
    }
    // Flush remaining state; call exactly once.
    void finish() {
        for (int i = 0; i < 5; ++i) shiftLow();
    }

private:
    // One shift always restores the range: probabilities stay within
    // [31, 2017] of 2048, so a decision leaves over 2^17 of a range of at
    // least 2^24, and a direct bit leaves 2^23.
    void normalize() {
        if (range_ < kRangeTopValue) {
            range_ <<= 8;
            shiftLow();
        }
    }
    void shiftLow() {
        if (low_ < 0xFF000000ull || low_ >= (1ull << 32)) {
            const auto carry = static_cast<std::uint8_t>(low_ >> 32);
            for (; cacheSize_ != 0; --cacheSize_) {
                out_->push_back(static_cast<std::uint8_t>(cache_ + carry));
                cache_ = 0xFF;
            }
            cache_ = static_cast<std::uint8_t>(low_ >> 24);
        }
        ++cacheSize_;
        low_ = (low_ << 8) & 0xFFFFFFFFull;
    }

    std::uint64_t low_{0};
    std::uint32_t range_{0xFFFFFFFFu};
    std::uint8_t cache_{0};
    std::uint64_t cacheSize_{1};
    std::vector<std::uint8_t>* out_;
};

class RangeDecoder {
public:
    explicit RangeDecoder(std::span<const std::uint8_t> data);

    int decodeBit(BitProb& prob);
    std::uint32_t decodeDirect(int bits);
    std::uint32_t decodeTree(std::span<BitProb> tree, int bits);
    bool exhausted() const { return pos_ > data_.size() + 8; }

private:
    std::uint8_t nextByte();

    std::span<const std::uint8_t> data_;
    std::size_t pos_{0};
    std::uint32_t range_{0xFFFFFFFFu};
    std::uint32_t code_{0};
};

}  // namespace semholo::compress
