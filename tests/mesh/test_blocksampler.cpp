#include "semholo/mesh/blocksampler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "sphere_sdf.hpp"

namespace semholo::mesh {
namespace {

geom::AABB unitBounds() {
    return {{-1.0f, -1.0f, -1.0f}, {1.0f, 1.0f, 1.0f}};
}

// Meshes must agree vertex-for-vertex, triangle-for-triangle: the sparse
// guarantee is bit-identity, not approximate equality.
void expectIdenticalMeshes(const TriMesh& a, const TriMesh& b) {
    ASSERT_EQ(a.vertexCount(), b.vertexCount());
    ASSERT_EQ(a.triangleCount(), b.triangleCount());
    for (std::size_t i = 0; i < a.vertexCount(); ++i) {
        EXPECT_EQ(a.vertices[i].x, b.vertices[i].x);
        EXPECT_EQ(a.vertices[i].y, b.vertices[i].y);
        EXPECT_EQ(a.vertices[i].z, b.vertices[i].z);
    }
    for (std::size_t i = 0; i < a.triangleCount(); ++i) {
        EXPECT_EQ(a.triangles[i].a, b.triangles[i].a);
        EXPECT_EQ(a.triangles[i].b, b.triangles[i].b);
        EXPECT_EQ(a.triangles[i].c, b.triangles[i].c);
    }
}

TEST(BlockSampler, SparseGridMatchesDenseWhereSampled) {
    const Vec3f center{0.1f, -0.05f, 0.0f};
    const auto field = sphereField(center, 0.4f);
    const int res = 33;
    BlockSampler dense(VoxelGrid(unitBounds(), {res, res, res}), 8);
    dense.sample(field, {});

    BlockSampler sampler(VoxelGrid(unitBounds(), {res, res, res}), 8);
    FieldSampleOptions opt;
    opt.certificate = sphereCertificate(center, 0.4f);
    const ReconCounters stats = sampler.sample(field, opt);

    EXPECT_GT(stats.blocksSkipped, 0u);
    EXPECT_GT(stats.blocksSampled, 0u);
    EXPECT_EQ(stats.blocksSkipped + stats.blocksSampled, stats.blocksTotal);
    EXPECT_LT(stats.nodesEvaluated, stats.nodesTotal);

    // Where blocks were fully sampled the values are bit-identical; where
    // skipped, the fill keeps the certified sign.
    for (int z = 0; z <= res; ++z)
        for (int y = 0; y <= res; ++y)
            for (int x = 0; x <= res; ++x) {
                const float dv = dense.value(x, y, z);
                const float sv = sampler.value(x, y, z);
                if (dv != sv) {
                    EXPECT_GT(dv * sv, 0.0f)
                        << "filled node changed sign at " << x << "," << y << "," << z;
                }
            }
}

TEST(BlockSampler, SparseExtractionBitIdenticalToDense) {
    const auto field = sphereField({0.0f, 0.0f, 0.0f}, 0.55f);
    for (const int res : {16, 33, 48}) {
        const TriMesh dense = extractIsoSurface(field, unitBounds(), res);

        FieldSampleOptions opt;
        opt.certificate = sphereCertificate({0.0f, 0.0f, 0.0f}, 0.55f);
        opt.hierarchical = false;  // the flat per-block test, end to end
        ReconCounters stats;
        const TriMesh sparse =
            extractIsoSurface(field, unitBounds(), res, {}, opt, &stats);
        EXPECT_GT(stats.blocksSkipped, 0u) << "res " << res;
        expectIdenticalMeshes(dense, sparse);
    }
}

TEST(BlockSampler, DeterministicAcrossWorkerCounts) {
    const Vec3f center{-0.2f, 0.15f, 0.1f};
    const auto field = sphereField(center, 0.5f);
    const int res = 40;

    VoxelGrid serial(unitBounds(), {res, res, res});
    BlockSampler serialSampler(serial, 8);
    FieldSampleOptions serialOpt;
    serialOpt.certificate = sphereCertificate(center, 0.5f);
    serialSampler.sample(field, serialOpt);

    for (const std::size_t workers : {2u, 4u}) {
        core::ThreadPool pool(workers);
        VoxelGrid parallel(unitBounds(), {res, res, res});
        BlockSampler parallelSampler(parallel, 8);
        FieldSampleOptions opt = serialOpt;
        opt.pool = &pool;
        parallelSampler.sample(field, opt);
        for (int z = 0; z <= res; ++z)
            for (int y = 0; y <= res; ++y)
                for (int x = 0; x <= res; ++x)
                    ASSERT_EQ(serialSampler.value(x, y, z), parallelSampler.value(x, y, z))
                        << "workers=" << workers;
    }
}

TEST(BlockSampler, NoCertificateMatchesDenseEverywhere) {
    const auto field = sphereField({0.0f, 0.0f, 0.0f}, 0.45f);
    const int res = 24;
    BlockSampler sampler(VoxelGrid(unitBounds(), {res, res, res}), 8);
    FieldSampleOptions opt;  // no certificate: every block is sampled
    const ReconCounters stats = sampler.sample(field, opt);
    EXPECT_EQ(stats.blocksSkipped, 0u);
    EXPECT_EQ(stats.nodesEvaluated, stats.nodesTotal);
    // Every stored value is the field at its node.
    for (int z = 0; z <= res; ++z)
        for (int y = 0; y <= res; ++y)
            for (int x = 0; x <= res; ++x)
                ASSERT_EQ(field(sampler.grid().nodePosition(x, y, z)), sampler.value(x, y, z));
}

TEST(BlockSampler, AnalyticCertificateSkipsAndStaysExact) {
    const Vec3f center{0.05f, 0.0f, -0.1f};
    const float radius = 0.5f;
    const auto field = sphereField(center, radius);
    const int res = 33;

    const TriMesh dense = extractIsoSurface(field, unitBounds(), res);

    FieldSampleOptions opt;
    opt.certificate = sphereCertificate(center, radius);
    ReconCounters stats;
    const TriMesh sparse = extractIsoSurface(field, unitBounds(), res, {}, opt, &stats);
    EXPECT_GT(stats.blocksSkipped, 0u);
    expectIdenticalMeshes(dense, sparse);
}

// Everything one octree sample() pass produces: the grid, the
// surface-free verdicts and every stats field.
struct OctreePass {
    std::vector<float> values;
    std::vector<std::uint8_t> surfaceFree;
    ReconCounters stats;
};

// Octree sampling of a sphere SDF with its exact analytic certificate.
constexpr float kOctreeRadius = 0.45f;

FieldSampleOptions octreeOptions(Vec3f center, core::ThreadPool* pool) {
    FieldSampleOptions opt;
    opt.pool = pool;
    opt.certificate = sphereCertificate(center, kOctreeRadius);
    return opt;
}

// One full pass.
OctreePass runOctree(Vec3i res, core::ThreadPool* pool) {
    VoxelGrid grid(unitBounds(), res);
    BlockSampler sampler(grid, 4);
    OctreePass pass;
    const Vec3f first{0.0f, 0.05f, -0.1f};
    pass.stats = sampler.sample(sphereField(first, kOctreeRadius),
                                octreeOptions(first, pool));
    for (int z = 0; z <= res.z; ++z)
        for (int y = 0; y <= res.y; ++y)
            for (int x = 0; x <= res.x; ++x) pass.values.push_back(sampler.value(x, y, z));
    pass.surfaceFree = sampler.surfaceFree();
    return pass;
}

TEST(BlockSampler, OctreeIdenticalAcrossPools) {
    core::ThreadPool one(1), two(2), eight(8);
    // 11^3 blocks split below depth 2; 2^3 and 2x1x3 block grids end in
    // single blocks above it; the anisotropic grid splits unevenly.
    for (const Vec3i res : {Vec3i{40, 40, 40}, Vec3i{7, 7, 7}, Vec3i{6, 3, 10},
                            Vec3i{44, 13, 29}}) {
        const OctreePass ref = runOctree(res, nullptr);
        EXPECT_GT(ref.stats.certTests, 0u);
        if (res.x == 40) {
            // Coarse fills and leaf work both come out of the tasks.
            EXPECT_GT(ref.stats.blocksCoarseFilled, 0u);
            EXPECT_GT(ref.stats.blocksSampled, 0u);
        }
        for (core::ThreadPool* pool : {&one, &two, &eight}) {
            const OctreePass got = runOctree(res, pool);
            SCOPED_TRACE(::testing::Message()
                         << "res " << res.x << "x" << res.y << "x" << res.z
                         << " workers " << pool->size());
            ASSERT_EQ(got.values, ref.values);
            EXPECT_EQ(got.surfaceFree, ref.surfaceFree);
            EXPECT_EQ(got.stats.blocksTotal, ref.stats.blocksTotal);
            EXPECT_EQ(got.stats.blocksSampled, ref.stats.blocksSampled);
            EXPECT_EQ(got.stats.blocksSkipped, ref.stats.blocksSkipped);
            EXPECT_EQ(got.stats.blocksCoarseFilled, ref.stats.blocksCoarseFilled);
            EXPECT_EQ(got.stats.nodesEvaluated, ref.stats.nodesEvaluated);
            EXPECT_EQ(got.stats.nodesTotal, ref.stats.nodesTotal);
            EXPECT_EQ(got.stats.certTests, ref.stats.certTests);
        }
    }
}

TEST(BlockSampler, CellBlockCoversWholeGrid) {
    VoxelGrid grid(unitBounds(), {20, 20, 20});
    BlockSampler sampler(grid, 8);
    // Every cell must map to a valid block whose guard region contains it.
    for (int z = 0; z < 20; ++z)
        for (int y = 0; y < 20; ++y)
            for (int x = 0; x < 20; ++x) {
                const int b = sampler.tiling().cellBlock(x, y, z);
                ASSERT_GE(b, 0);
                ASSERT_LT(b, sampler.tiling().count());
            }
}

TEST(BlockSampler, RejectsBlockSizesOutsideOneTo62) {
    // Extraction packs a block's halo sign row (blockSize + 2 nodes) into
    // one 64-bit word, so 62 is the largest tiling it can work on.
    VoxelGrid grid(unitBounds(), {20, 20, 20});
    EXPECT_THROW(BlockSampler(grid, 63), std::invalid_argument);
    EXPECT_THROW(BlockSampler(grid, 0), std::invalid_argument);
    EXPECT_NO_THROW(BlockSampler(grid, 1));
    EXPECT_NO_THROW(BlockSampler(grid, 62));
}

}  // namespace
}  // namespace semholo::mesh
