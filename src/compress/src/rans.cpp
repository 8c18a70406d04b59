#include "semholo/compress/rans.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace semholo::compress {

namespace {

constexpr int kContexts = 2;
constexpr int kLanes = 4;
constexpr std::uint32_t kSlotMask = kRansScale - 1;
// Lower bound of a lane's state; states stay in [kStateLow, kStateLow << 8).
constexpr std::uint32_t kStateLow = 1u << 23;
constexpr std::size_t kStateBytes = 4 * kLanes;

int contextOf(std::uint8_t previous) { return previous >> 7; }

using Counts = std::array<std::uint32_t, 256>;

void putU32le(std::uint8_t* at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t getU32le(const std::uint8_t* at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(at[i]) << (8 * i);
    return v;
}

// Scales counts to frequencies that sum to kRansScale, keeping every
// used symbol at 1 or more and every frequency below kRansScale.
Counts normalize(const Counts& count) {
    Counts freq{};
    std::uint64_t total = 0;
    for (const std::uint32_t c : count) total += c;
    if (total == 0) return freq;
    std::size_t top = 0;
    std::uint32_t sum = 0;
    for (std::size_t s = 0; s < 256; ++s) {
        if (count[s] == 0) continue;
        freq[s] = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>((count[s] * std::uint64_t{kRansScale} + total / 2) /
                                          total));
        sum += freq[s];
        if (count[s] > count[top]) top = s;
    }
    if (sum < kRansScale) freq[top] += kRansScale - sum;
    while (sum > kRansScale) {
        // Rounding up the rare symbols overshot: take the excess from the
        // largest frequencies, at most half of one at a time.
        const auto largest = std::max_element(freq.begin(), freq.end());
        const std::uint32_t take = std::min(sum - kRansScale, *largest / 2);
        *largest -= take;
        sum -= take;
    }
    // A lone symbol would cost no bits at all; give a neighbour one slot.
    if (freq[top] == kRansScale) {
        freq[top] -= 1;
        freq[(top + 1) % 256] = 1;
    }
    return freq;
}

class BitWriter {
public:
    explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}
    // The low 'bits' bits of 'value', most significant first.
    void put(std::uint32_t value, int bits) {
        acc_ = (acc_ << bits) | value;
        count_ += bits;
        for (; count_ >= 8; count_ -= 8)
            out_.push_back(static_cast<std::uint8_t>(acc_ >> (count_ - 8)));
    }
    // Elias gamma of v >= 1: floor(log2 v) zeros, then v's bits.
    void gamma(std::uint32_t v) {
        const int bits = static_cast<int>(std::bit_width(v));
        put(0, bits - 1);
        put(v, bits);
    }
    void flush() {
        if (count_ > 0) out_.push_back(static_cast<std::uint8_t>(acc_ << (8 - count_)));
        count_ = 0;
    }

private:
    std::vector<std::uint8_t>& out_;
    std::uint64_t acc_{0};
    int count_{0};
};

class BitReader {
public:
    explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}
    std::uint32_t get(int bits) {
        std::uint32_t v = 0;
        for (int i = 0; i < bits; ++i) {
            if (bit_ >= data_.size() * 8) {
                fail_ = true;
                return 0;
            }
            v = (v << 1) | ((data_[bit_ / 8] >> (7 - bit_ % 8)) & 1u);
            ++bit_;
        }
        return v;
    }
    // An Elias-gamma value of at most 'maxBits' bits; 0 on failure.
    std::uint32_t gamma(int maxBits) {
        int zeros = 0;
        while (!fail_ && get(1) == 0)
            if (++zeros >= maxBits) fail_ = true;
        if (fail_) return 0;
        return (1u << zeros) | get(zeros);
    }
    bool failed() const { return fail_; }
    std::size_t bytesRead() const { return (bit_ + 7) / 8; }

private:
    std::span<const std::uint8_t> data_;
    std::size_t bit_{0};
    bool fail_{false};
};

}  // namespace

std::size_t ransMaxCompressedBytes(std::size_t inputBytes) {
    // A table codes at most 256 gamma values of up to 25 bits each.
    constexpr std::size_t kMaxTableBytes = kContexts * (1 + 256 * 25 / 8 + 1);
    return kRansHeaderBytes + kMaxTableBytes + kStateBytes + 2 * inputBytes;
}

void ransCompress(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out) {
    const std::size_t n = data.size();
    out.assign(kRansHeaderBytes, 0);
    out[0] = kRansFormatTag;
    putU32le(&out[1], static_cast<std::uint32_t>(n));
    if (n == 0) return;

    std::array<Counts, kContexts> count{};
    std::uint8_t previous = 0;
    for (const std::uint8_t b : data) {
        ++count[contextOf(previous)][b];
        previous = b;
    }
    std::array<Counts, kContexts> freq, start;
    BitWriter tables(out);
    for (int c = 0; c < kContexts; ++c) {
        freq[c] = normalize(count[c]);
        std::size_t last = 0;
        for (std::size_t s = 0; s < 256; ++s) {
            start[c][s] = s == 0 ? 0 : start[c][s - 1] + freq[c][s - 1];
            if (freq[c][s] != 0) last = s;
        }
        tables.put(static_cast<std::uint32_t>(last), 8);
        for (std::size_t s = 0; s <= last; ++s) tables.gamma(freq[c][s] + 1);
    }
    tables.flush();

    // Encode back to front, writing the payload backwards from the end
    // of a worst-case-sized buffer; the decoder then reads it forwards.
    const std::size_t statesAt = out.size();
    out.resize(statesAt + kStateBytes + 2 * n);
    std::uint8_t* const end = out.data() + out.size();
    std::uint8_t* p = end;
    std::uint32_t x[kLanes] = {kStateLow, kStateLow, kStateLow, kStateLow};
    const auto encode = [&](std::size_t i, std::uint32_t& state) {
        const int c = i > 0 ? contextOf(data[i - 1]) : 0;
        const std::uint32_t f = freq[c][data[i]];
        const std::uint32_t limit = ((kStateLow >> kRansScaleBits) << 8) * f;
        for (; state >= limit; state >>= 8) *--p = static_cast<std::uint8_t>(state);
        const std::uint32_t q = state / f;
        state = (q << kRansScaleBits) + (state - q * f) + start[c][data[i]];
    };
    const std::size_t whole = n / kLanes * kLanes;
    for (std::size_t i = n; i-- > whole;) encode(i, x[i % kLanes]);
    for (std::size_t i = whole; i > 0; i -= kLanes) {
        encode(i - 1, x[3]);
        encode(i - 2, x[2]);
        encode(i - 3, x[1]);
        encode(i - 4, x[0]);
    }

    const auto payload = static_cast<std::size_t>(end - p);
    std::memmove(out.data() + statesAt + kStateBytes, p, payload);
    for (int lane = 0; lane < kLanes; ++lane) putU32le(&out[statesAt + 4 * lane], x[lane]);
    out.resize(statesAt + kStateBytes + payload);
}

std::vector<std::uint8_t> ransCompress(std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> out;
    ransCompress(data, out);
    return out;
}

std::optional<std::size_t> ransDecodedSize(std::span<const std::uint8_t> compressed) {
    if (compressed.size() < kRansHeaderBytes || compressed[0] != kRansFormatTag)
        return std::nullopt;
    const std::size_t size = getU32le(&compressed[1]);
    if (size > (1u << 30) || size > (compressed.size() - kRansHeaderBytes) * kRansMaxExpansion)
        return std::nullopt;
    return size;
}

bool ransDecompress(std::span<const std::uint8_t> compressed, std::vector<std::uint8_t>& out) {
    out.clear();
    const auto size = ransDecodedSize(compressed);
    if (!size) return false;
    if (*size == 0) return compressed.size() == kRansHeaderBytes;

    // One packed entry per slot: symbol | (slot - start) << 8 | freq << 20.
    // A zero entry marks an unused context.
    std::array<std::array<std::uint32_t, kRansScale>, kContexts> slots;
    BitReader tables(compressed.subspan(kRansHeaderBytes));
    for (auto& table : slots) {
        const std::uint32_t last = tables.get(8);
        std::uint32_t sum = 0;
        for (std::uint32_t s = 0; s <= last && !tables.failed(); ++s) {
            const std::uint32_t f = tables.gamma(kRansScaleBits + 1) - 1;
            if (tables.failed() || f >= kRansScale || sum + f > kRansScale) return false;
            for (std::uint32_t slot = sum; slot < sum + f; ++slot)
                table[slot] = s | (slot - sum) << 8 | f << 20;
            sum += f;
        }
        if (tables.failed() || (sum != 0 && sum != kRansScale)) return false;
        if (sum == 0) table.fill(0);
    }

    const std::size_t statesAt = kRansHeaderBytes + tables.bytesRead();
    if (compressed.size() < statesAt + kStateBytes) return false;
    std::uint32_t x[kLanes];
    for (int lane = 0; lane < kLanes; ++lane) {
        x[lane] = getU32le(&compressed[statesAt + 4 * lane]);
        if (x[lane] < kStateLow || x[lane] >= (kStateLow << 8)) return false;
    }
    const std::uint8_t* p = compressed.data() + statesAt + kStateBytes;
    const std::uint8_t* const end = compressed.data() + compressed.size();

    const std::size_t n = *size;
    out.resize(n);
    std::uint8_t* const o = out.data();
    std::uint8_t previous = 0;
    const auto decode = [&](std::size_t i, std::uint32_t& state) {
        const std::uint32_t e = slots[contextOf(previous)][state & kSlotMask];
        if (e == 0) return false;
        state = (e >> 20) * (state >> kRansScaleBits) + ((e >> 8) & 0xFFF);
        previous = static_cast<std::uint8_t>(e);
        o[i] = previous;
        while (state < kStateLow) {
            if (p == end) return false;
            state = (state << 8) | *p++;
        }
        return true;
    };
    const std::size_t whole = n / kLanes * kLanes;
    for (std::size_t i = 0; i < whole; i += kLanes)
        if (!decode(i, x[0]) || !decode(i + 1, x[1]) || !decode(i + 2, x[2]) ||
            !decode(i + 3, x[3]))
            return false;
    for (std::size_t i = whole; i < n; ++i)
        if (!decode(i, x[i % kLanes])) return false;

    return p == end && x[0] == kStateLow && x[1] == kStateLow && x[2] == kStateLow &&
           x[3] == kStateLow;
}

std::optional<std::vector<std::uint8_t>> ransDecompress(
    std::span<const std::uint8_t> compressed) {
    std::vector<std::uint8_t> out;
    if (!ransDecompress(compressed, out)) return std::nullopt;
    return out;
}

}  // namespace semholo::compress
