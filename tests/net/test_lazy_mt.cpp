// The lazily seeded engine LinkSimulator draws its per-message numbers
// from must be indistinguishable from std::mt19937_64: the same raw
// outputs for every seed and draw count (across the first generation's
// lazy half, its eager second half and later full twists), and the same
// values through the two distributions the simulator uses.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "lazy_mt19937_64.hpp"

namespace semholo::net::internal {
namespace {

// Seeds spread over the whole 64-bit range, as the simulator's seed mix
// (config seed ^ packet counter * golden ratio ^ send time) produces.
std::uint64_t seedFor(std::uint64_t i) {
    return i * 0x9E3779B97F4A7C15ull ^ (i << 17) ^ 0x5DEECE66Dull;
}

// Draw counts cycling through 1 .. 1000 across seeds, so every count on
// both sides of the 156 / 312 boundaries is covered many times.
std::size_t drawsFor(std::uint64_t i) { return 1 + i % 1000; }

constexpr std::uint64_t kSeeds = 10000;

TEST(LinkSimulatorRng, RawOutputsMatchStdMt19937_64) {
    for (std::uint64_t i = 0; i < kSeeds; ++i) {
        const std::uint64_t seed = seedFor(i);
        std::mt19937_64 ref(seed);
        LazyMt19937_64 lazy(seed);
        const std::size_t draws = drawsFor(i);
        for (std::size_t d = 0; d < draws; ++d) {
            const auto want = ref();
            const auto got = lazy();
            if (got != want) {
                FAIL() << "seed " << seed << " draw " << d << ": " << got
                       << " != " << want;
            }
        }
    }
}

TEST(LinkSimulatorRng, SeveralGenerationsMatch) {
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
          ~std::uint64_t{0}, std::uint64_t{0x8000000000000000ull}}) {
        std::mt19937_64 ref(seed);
        LazyMt19937_64 lazy(seed);
        for (std::size_t d = 0; d < 5 * 312 + 7; ++d)
            ASSERT_EQ(lazy(), ref()) << "seed " << seed << " draw " << d;
    }
}

// The simulator's call pattern: a uniform draw per loss test and a
// normal draw per jitter sample, interleaved, each distribution object
// fresh per message (the normal one caches its second polar value).
TEST(LinkSimulatorRng, DistributionsMatchStdMt19937_64) {
    for (std::uint64_t i = 0; i < kSeeds; ++i) {
        const std::uint64_t seed = seedFor(i);
        std::mt19937_64 ref(seed);
        LazyMt19937_64 lazy(seed);
        std::uniform_real_distribution<double> uniRef(0.0, 1.0), uniLazy(0.0, 1.0);
        std::normal_distribution<double> normRef(0.0, 0.004), normLazy(0.0, 0.004);
        const std::size_t draws = drawsFor(i);
        for (std::size_t d = 0; d < draws; ++d) {
            // Vary the interleaving: sometimes two uniforms in a row (the
            // Gilbert-Elliott transition draw), sometimes a lone normal.
            const bool uniform = (d + i) % 3 != 2;
            const double want = uniform ? uniRef(ref) : normRef(ref);
            const double got = uniform ? uniLazy(lazy) : normLazy(lazy);
            if (std::bit_cast<std::uint64_t>(got) !=
                std::bit_cast<std::uint64_t>(want)) {
                FAIL() << "seed " << seed << " draw " << d << ": " << got
                       << " != " << want;
            }
        }
    }
}

}  // namespace
}  // namespace semholo::net::internal
