// A std::mt19937_64 that seeds and twists its state only as far as the
// draws so far need. LinkSimulator builds one engine per message and a
// typical message draws a handful of numbers, yet a std::mt19937_64
// seeds all 312 state words and twists all of them before its first
// output: nearly the whole cost of a send.
//
// Identity with std::mt19937_64, for any seed and any number of draws:
// the engine runs the standard seeding recurrence and the standard
// in-place twist, word for word in the same order; it only stops early.
// Twisting word i (i < n - m = 156) reads old words i, i + 1 and i + m,
// none of which an earlier step of the twist has overwritten, so output
// i of the first generation needs seeded words 0 .. i + 156 and nothing
// else. At output 156 the twist reaches words it computes from already
// twisted ones; the engine then seeds the remaining words and finishes
// the generation exactly as the standard twist's second loop does. From
// output 312 on it is an ordinary mt19937_64 (full twist per 312 draws).
#pragma once

#include <cstdint>
#include <random>

namespace semholo::net::internal {

class LazyMt19937_64 {
public:
    using result_type = std::mt19937_64::result_type;

    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }

    explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

    result_type operator()() {
        if (next_ == kN) {
            for (std::size_t k = 0; k < kN; ++k) twistWord(k);
            next_ = 0;
        } else if (lazy_) {
            if (next_ < kN - kM) {
                seedThrough(next_ + kM);
                twistWord(next_);
            } else {
                seedThrough(kN - 1);
                for (std::size_t k = next_; k < kN; ++k) twistWord(k);
                lazy_ = false;
            }
        }
        return temper(x_[next_++]);
    }

private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;
    static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ull;
    static constexpr result_type kUpperMask = ~result_type{0} << 31;
    static constexpr result_type kLowerMask = ~kUpperMask;
    static constexpr result_type kInitMultiplier = 6364136223846793005ull;

    // Standard seeding recurrence up to and including word 'last'.
    void seedThrough(std::size_t last) {
        for (; seeded_ <= last; ++seeded_) {
            const result_type prev = x_[seeded_ - 1];
            x_[seeded_] = kInitMultiplier * (prev ^ (prev >> 62)) + seeded_;
        }
    }

    // Step k of the standard in-place twist.
    void twistWord(std::size_t k) {
        const result_type y =
            (x_[k] & kUpperMask) | (x_[k + 1 == kN ? 0 : k + 1] & kLowerMask);
        x_[k] = x_[k < kN - kM ? k + kM : k + kM - kN] ^ (y >> 1) ^
                ((y & 1u) != 0 ? kMatrixA : 0);
    }

    static result_type temper(result_type z) {
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        return z;
    }

    // Left uninitialised on purpose: zeroing 312 words would cost a
    // tenth of a short message's draws. No word is read before
    // seedThrough() has written it (seeded_ tracks the frontier).
    result_type x_[kN];
    std::size_t seeded_{1};  // words 0 .. seeded_ - 1 hold seeded values
    std::size_t next_{0};    // index of the next output word
    bool lazy_{true};        // still inside the first, partial generation
};

}  // namespace semholo::net::internal
