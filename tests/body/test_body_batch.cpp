#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"

namespace semholo::body {
namespace {

using geom::Vec3f;

std::vector<Vec3f> randomPoints(const geom::AABB& bounds, std::size_t n,
                                std::uint32_t seed) {
    std::mt19937 rng(seed);
    // Pad outward so lanes also hit the pruning fast path far from the
    // body, not just the blended interior.
    const Vec3f lo = bounds.lo - Vec3f{0.3f, 0.3f, 0.3f};
    const Vec3f hi = bounds.hi + Vec3f{0.3f, 0.3f, 0.3f};
    std::uniform_real_distribution<float> ux(lo.x, hi.x);
    std::uniform_real_distribution<float> uy(lo.y, hi.y);
    std::uniform_real_distribution<float> uz(lo.z, hi.z);
    std::vector<Vec3f> pts(n);
    for (auto& p : pts) p = {ux(rng), uy(rng), uz(rng)};
    return pts;
}

// The batch kernel must return, per point, EXACTLY the bits the scalar
// field returns — zero tolerance. That is the determinism contract that
// keeps sparse reconstruction byte-identical to dense whichever backend
// (scalar, AVX2) the dispatcher picked on this host; any widening here
// (FMA contraction, reassociation) is a build bug, not slack to absorb.
// Batch and scalar passes run on fresh fields, so their blend/prune
// tallies must match exactly too.
void expectBatchMatchesScalar(const Pose& pose, const BodyFieldOptions& options,
                              const std::vector<Vec3f>& pts,
                              const std::string& label) {
    const BodyField scalarBody = makeBodyField(pose, options);
    const BodyField batchBody = makeBodyField(pose, options);
    ASSERT_TRUE(batchBody.batch);
    std::vector<float> xs, ys, zs, batched(pts.size());
    for (const Vec3f& p : pts) {
        xs.push_back(p.x);
        ys.push_back(p.y);
        zs.push_back(p.z);
    }
    batchBody.batch(xs.data(), ys.data(), zs.data(), batched.data(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        ASSERT_EQ(batched[i], scalarBody.field(pts[i])) << label << " point " << i;
    EXPECT_EQ(batchBody.stats->bonesBlended(), scalarBody.stats->bonesBlended())
        << label;
    EXPECT_EQ(batchBody.stats->bonesPruned(), scalarBody.stats->bonesPruned())
        << label;
}

// Points spread over the whole padded body box. The odd count
// exercises the padded tail lanes.
void expectBatchBitIdentical(const Pose& pose, const BodyFieldOptions& options,
                             std::uint32_t seed) {
    const geom::AABB bounds = makeBodyField(pose, options).bounds;
    expectBatchMatchesScalar(pose, options, randomPoints(bounds, 1003, seed), "random");
}

TEST(BodyBatch, BitIdenticalToScalarFieldPlain) {
    BodyFieldOptions opt;
    opt.bonePruning = false;
    expectBatchBitIdentical(Pose{}, opt, 1);
}

TEST(BodyBatch, BitIdenticalToScalarFieldWithPruning) {
    BodyFieldOptions opt;
    opt.bonePruning = true;
    expectBatchBitIdentical(MotionGenerator(MotionKind::Wave).poseAt(0.7), opt, 2);
}

TEST(BodyBatch, BitIdenticalToScalarFieldWithExpression) {
    // Talk drives jaw/expression coefficients: the per-lane scalar
    // face-warp pre-pass must agree with the scalar path bit for bit.
    BodyFieldOptions opt;
    opt.bonePruning = true;
    expectBatchBitIdentical(MotionGenerator(MotionKind::Talk).poseAt(0.5), opt, 3);
}

TEST(BodyBatch, BitIdenticalToScalarFieldWithClothing) {
    BodyFieldOptions opt;
    opt.bonePruning = true;
    opt.clothingDetail = true;
    expectBatchBitIdentical(MotionGenerator(MotionKind::Collaborate).poseAt(1.1),
                            opt, 4);
}

TEST(BodyBatch, CountersMatchScalarTallies) {
    const Pose pose = MotionGenerator(MotionKind::Wave).poseAt(0.4);
    BodyFieldOptions opt;
    opt.bonePruning = true;
    const geom::AABB bounds = makeBodyField(pose, opt).bounds;
    expectBatchMatchesScalar(pose, opt, randomPoints(bounds, 512, 5), "random");
}

// One 128^3 cell of the body box: sampler-shaped inputs use this spacing.
constexpr float kCell = 0.014f;

// Appends a 4^3 lattice block with corner 'at', x fastest, as the
// sampler orders a block's nodes.
void appendBlock(Vec3f at, std::vector<Vec3f>& out) {
    for (int z = 0; z < 4; ++z)
        for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x)
                out.push_back(at + Vec3f{static_cast<float>(x), static_cast<float>(y),
                                         static_cast<float>(z)} * kCell);
}

// A point on the zero level set: bisect the field between an interior
// point and one far outside along +x.
Vec3f surfacePoint(const BodyField& body, Vec3f inside) {
    Vec3f in = inside;
    Vec3f out = inside + Vec3f{2.0f, 0.0f, 0.0f};
    for (int i = 0; i < 40; ++i) {
        const Vec3f mid = (in + out) * 0.5f;
        (body.field(mid) < 0.0f ? in : out) = mid;
    }
    return in;
}

// Sampler-shaped inputs: a 4^3 block, one x row, and compact clusters
// of n points, each n chosen around the 64-point cull chunk and the
// 8-lane batch. Chunks span a few centimetres, so capsules get culled —
// the path body-spanning random points never reach.
std::vector<std::pair<std::string, std::vector<Vec3f>>> clusteredInputs(Vec3f at) {
    std::vector<std::pair<std::string, std::vector<Vec3f>>> sets;
    std::vector<Vec3f> block;
    appendBlock(at, block);
    sets.emplace_back("block4", block);
    std::vector<Vec3f> row;
    for (int x = 0; x < 9; ++x)
        row.push_back(at + Vec3f{static_cast<float>(x) * kCell, 0.0f, 0.0f});
    sets.emplace_back("row", row);
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> jitter(-3.0f * kCell, 3.0f * kCell);
    for (const std::size_t n : {1u, 7u, 63u, 64u, 65u, 129u, 200u}) {
        std::vector<Vec3f> cluster(n);
        for (Vec3f& p : cluster) p = at + Vec3f{jitter(rng), jitter(rng), jitter(rng)};
        sets.emplace_back("cluster" + std::to_string(n), cluster);
    }
    return sets;
}

void expectClusteredBatchesMatchScalar(bool bonePruning) {
    // Talk drives the expression warp, so the face cluster exercises the
    // per-point warp feeding the chunk box.
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.5);
    BodyFieldOptions opt;
    opt.bonePruning = bonePruning;
    const BodyField body = makeBodyField(pose, opt);
    const PosedCapsule& torso = body.capsules.front();
    const std::vector<std::pair<std::string, Vec3f>> sites = {
        {"surface", surfacePoint(body, torso.a)},
        {"face", (body.faceBounds.lo + body.faceBounds.hi) * 0.5f},
        {"deep", torso.a},
        {"far", body.bounds.hi + Vec3f{0.6f, 0.6f, 0.6f}},
    };
    for (const auto& [site, at] : sites)
        for (const auto& [shape, pts] : clusteredInputs(at))
            expectBatchMatchesScalar(pose, opt, pts, site + "/" + shape);

    // Tile the face region and its surroundings with 4^3 blocks, one
    // 64-point chunk each: chunks inside, across and outside faceBounds,
    // where the kernel skips the warp.
    geom::AABB around = body.faceBounds;
    around.inflate(0.05f);
    std::vector<Vec3f> sweep;
    for (float z = around.lo.z; z < around.hi.z; z += 4 * kCell)
        for (float y = around.lo.y; y < around.hi.y; y += 4 * kCell)
            for (float x = around.lo.x; x < around.hi.x; x += 4 * kCell)
                appendBlock({x, y, z}, sweep);
    expectBatchMatchesScalar(pose, opt, sweep, "faceSweep");
}

TEST(BodyBatch, ClusteredInputsBitIdenticalWithPruning) {
    expectClusteredBatchesMatchScalar(true);
}

TEST(BodyBatch, ClusteredInputsBitIdenticalWithoutPruning) {
    expectClusteredBatchesMatchScalar(false);
}

TEST(BodyBatch, BackendNameIsReported) {
    const char* name = bodyBatchBackend();
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(std::string(name) == "avx2" || std::string(name) == "scalar" ||
                std::string(name) == "neon")
        << name;
}

}  // namespace
}  // namespace semholo::body
