#include "semholo/compress/rangecoder.hpp"

namespace semholo::compress {

RangeDecoder::RangeDecoder(std::span<const std::uint8_t> data) : data_(data) {
    nextByte();  // first byte emitted by the encoder is always 0
    for (int i = 0; i < 4; ++i) code_ = (code_ << 8) | nextByte();
}

std::uint8_t RangeDecoder::nextByte() {
    const std::uint8_t b = pos_ < data_.size() ? data_[pos_] : 0;
    ++pos_;
    return b;
}

int RangeDecoder::decodeBit(BitProb& prob) {
    const std::uint32_t bound = (range_ >> kRangeProbBits) * prob.p;
    int bit;
    if (code_ < bound) {
        range_ = bound;
        prob.p = static_cast<std::uint16_t>(prob.p +
                                            (((1u << kRangeProbBits) - prob.p) >> kRangeMoveBits));
        bit = 0;
    } else {
        code_ -= bound;
        range_ -= bound;
        prob.p = static_cast<std::uint16_t>(prob.p - (prob.p >> kRangeMoveBits));
        bit = 1;
    }
    while (range_ < kRangeTopValue) {
        range_ <<= 8;
        code_ = (code_ << 8) | nextByte();
    }
    return bit;
}

std::uint32_t RangeDecoder::decodeDirect(int bits) {
    std::uint32_t value = 0;
    for (int i = 0; i < bits; ++i) {
        range_ >>= 1;
        std::uint32_t bit = 0;
        if (code_ >= range_) {
            code_ -= range_;
            bit = 1;
        }
        value = (value << 1) | bit;
        while (range_ < kRangeTopValue) {
            range_ <<= 8;
            code_ = (code_ << 8) | nextByte();
        }
    }
    return value;
}

std::uint32_t RangeDecoder::decodeTree(std::span<BitProb> tree, int bits) {
    std::uint32_t node = 1;
    for (int i = 0; i < bits; ++i)
        node = (node << 1) | static_cast<std::uint32_t>(decodeBit(tree[node - 1]));
    return node - (1u << bits);
}

}  // namespace semholo::compress
