#include "semholo/mesh/kdtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace semholo::mesh {
namespace {

std::vector<Vec3f> randomPoints(std::size_t n, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> uni(-10.0f, 10.0f);
    std::vector<Vec3f> pts(n);
    for (auto& p : pts) p = {uni(rng), uni(rng), uni(rng)};
    return pts;
}

std::uint32_t bruteForceNearest(const std::vector<Vec3f>& pts, Vec3f q) {
    std::uint32_t best = 0;
    float bestD = std::numeric_limits<float>::max();
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
        const float d = (pts[i] - q).norm2();
        if (d < bestD) {
            bestD = d;
            best = i;
        }
    }
    return best;
}

TEST(KdTree, EmptyTree) {
    KdTree tree;
    EXPECT_TRUE(tree.empty());
    EXPECT_FALSE(tree.nearest({0, 0, 0}).valid());
    EXPECT_TRUE(tree.kNearest({0, 0, 0}, 3).empty());
    EXPECT_TRUE(tree.radiusSearch({0, 0, 0}, 1.0f).empty());
}

TEST(KdTree, SinglePoint) {
    const std::vector<Vec3f> pts{{1, 2, 3}};
    KdTree tree(pts);
    const auto hit = tree.nearest({0, 0, 0});
    ASSERT_TRUE(hit.valid());
    EXPECT_EQ(hit.index, 0u);
    EXPECT_NEAR(hit.distance2, 14.0f, 1e-4f);
}

TEST(KdTree, NearestMatchesBruteForce) {
    const auto pts = randomPoints(2000, 42);
    KdTree tree(pts);
    std::mt19937 rng(43);
    std::uniform_real_distribution<float> uni(-12.0f, 12.0f);
    for (int trial = 0; trial < 200; ++trial) {
        const Vec3f q{uni(rng), uni(rng), uni(rng)};
        const auto hit = tree.nearest(q);
        ASSERT_TRUE(hit.valid());
        const std::uint32_t expect = bruteForceNearest(pts, q);
        EXPECT_NEAR(hit.distance2, (pts[expect] - q).norm2(), 1e-4f);
    }
}

TEST(KdTree, NearestMatchesBruteForceOnCloudsWithDuplicates) {
    // Points on a coarse integer grid: many exact duplicates and many
    // queries with several equally distant points. The tree must return
    // exactly the brute-force distance, and a point at that distance.
    for (const std::uint32_t seed : {1u, 2u, 3u}) {
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cell(-4, 4);
        std::vector<Vec3f> pts(3000);
        for (auto& p : pts)
            p = {static_cast<float>(cell(rng)), static_cast<float>(cell(rng)),
                 static_cast<float>(cell(rng))};
        const KdTree tree(pts);
        std::uniform_real_distribution<float> uni(-6.0f, 6.0f);
        for (int trial = 0; trial < 400; ++trial) {
            const Vec3f q = trial % 2 == 0
                                ? Vec3f{uni(rng), uni(rng), uni(rng)}
                                : Vec3f{static_cast<float>(cell(rng)) + 0.5f,
                                        static_cast<float>(cell(rng)),
                                        static_cast<float>(cell(rng)) - 0.5f};
            const auto hit = tree.nearest(q);
            ASSERT_TRUE(hit.valid());
            const std::uint32_t expect = bruteForceNearest(pts, q);
            ASSERT_EQ(hit.distance2, (pts[expect] - q).norm2()) << "seed " << seed;
            ASSERT_EQ((pts[hit.index] - q).norm2(), hit.distance2);
        }
        // A query on a stored point finds a copy of it at distance zero.
        const auto exact = tree.nearest(pts[17]);
        EXPECT_EQ(exact.distance2, 0.0f);
        EXPECT_EQ(pts[exact.index], pts[17]);
    }
}

TEST(KdTree, KNearestSortedAndCorrect) {
    const auto pts = randomPoints(500, 7);
    KdTree tree(pts);
    const Vec3f q{1, 1, 1};
    const std::size_t k = 10;
    const auto hits = tree.kNearest(q, k);
    ASSERT_EQ(hits.size(), k);
    // Sorted ascending.
    for (std::size_t i = 1; i < hits.size(); ++i)
        EXPECT_LE(hits[i - 1].distance2, hits[i].distance2);
    // Matches brute force set.
    std::vector<float> all;
    for (const auto& p : pts) all.push_back((p - q).norm2());
    std::sort(all.begin(), all.end());
    for (std::size_t i = 0; i < k; ++i) EXPECT_NEAR(hits[i].distance2, all[i], 1e-4f);
}

TEST(KdTree, KNearestClampsToSize) {
    const auto pts = randomPoints(5, 9);
    KdTree tree(pts);
    EXPECT_EQ(tree.kNearest({0, 0, 0}, 10).size(), 5u);
}

TEST(KdTree, RadiusSearchMatchesBruteForce) {
    const auto pts = randomPoints(1000, 11);
    KdTree tree(pts);
    const Vec3f q{0.5f, -0.5f, 2.0f};
    const float radius = 3.0f;
    auto found = tree.radiusSearch(q, radius);
    std::sort(found.begin(), found.end());
    std::vector<std::uint32_t> expect;
    for (std::uint32_t i = 0; i < pts.size(); ++i)
        if ((pts[i] - q).norm2() <= radius * radius) expect.push_back(i);
    EXPECT_EQ(found, expect);
}

TEST(KdTree, DuplicatePointsAllFound) {
    std::vector<Vec3f> pts(20, Vec3f{1, 1, 1});
    KdTree tree(pts);
    EXPECT_EQ(tree.radiusSearch({1, 1, 1}, 0.1f).size(), 20u);
    EXPECT_TRUE(tree.nearest({1, 1, 1}).valid());
}

TEST(KdTree, PointAccessor) {
    const auto pts = randomPoints(50, 13);
    KdTree tree(pts);
    const auto hit = tree.nearest(pts[25]);
    EXPECT_EQ(tree.point(hit.index), pts[25]);
}

}  // namespace
}  // namespace semholo::mesh
