// Tests for the block-local table-driven extractor: canonical
// equivalence with the retained legacy extractor, byte-identity
// (positions, indices, normals) across worker counts, batch-sampled grid
// identity, and the degenerate/no-crossing edge cases.
#include "semholo/mesh/isosurface.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/isosurface_legacy.hpp"
#include "sphere_sdf.hpp"

namespace semholo::mesh {
namespace {

geom::AABB unitBounds() {
    return {{-1.0f, -1.0f, -1.0f}, {1.0f, 1.0f, 1.0f}};
}

// 'field' sampled at every node of the res^3 lattice over unitBounds(),
// on blockSize-node blocks.
BlockSampler sampleAll(const ScalarField& field, int res,
                       int blockSize = BlockTiling::kDefaultBlockSize) {
    BlockSampler sampler(VoxelGrid(unitBounds(), {res, res, res}), blockSize);
    sampler.sample(field, FieldSampleOptions{});
    return sampler;
}

// The reference extractor over the sampler's values.
TriMesh extractLegacy(const BlockSampler& sampler, const IsoSurfaceOptions& options = {}) {
    return extractIsoSurfaceLegacy(sampler.grid(), denseValues(sampler), nullptr, options);
}

// Capsule SDF between two endpoints — the primitive the body field is
// built from, so extraction sees production-like curvature.
ScalarField capsuleField(Vec3f a, Vec3f b, float radius) {
    return [a, b, radius](Vec3f p) {
        const Vec3f ab = b - a;
        const Vec3f ap = p - a;
        const float denom = ab.dot(ab);
        float t = denom > 0.0f ? ap.dot(ab) / denom : 0.0f;
        t = t < 0.0f ? 0.0f : (t > 1.0f ? 1.0f : t);
        return (p - (a + ab * t)).norm() - radius;
    };
}

// Smooth union of two spheres: a field whose iso-surface changes
// topology with the iso value (one blob vs two).
ScalarField blobField() {
    const auto f1 = sphereField({-0.35f, 0.0f, 0.0f}, 0.4f);
    const auto f2 = sphereField({0.35f, 0.1f, -0.05f}, 0.35f);
    return [f1, f2](Vec3f p) {
        const float a = f1(p), b = f2(p);
        const float k = 0.15f;
        const float h = std::fmax(k - std::fabs(a - b), 0.0f) / k;
        return std::fmin(a, b) - h * h * k * 0.25f;
    };
}

void expectIdenticalMeshes(const TriMesh& a, const TriMesh& b) {
    ASSERT_EQ(a.vertexCount(), b.vertexCount());
    ASSERT_EQ(a.triangleCount(), b.triangleCount());
    for (std::size_t i = 0; i < a.vertexCount(); ++i) {
        ASSERT_EQ(a.vertices[i].x, b.vertices[i].x) << "vertex " << i;
        ASSERT_EQ(a.vertices[i].y, b.vertices[i].y) << "vertex " << i;
        ASSERT_EQ(a.vertices[i].z, b.vertices[i].z) << "vertex " << i;
    }
    for (std::size_t i = 0; i < a.triangleCount(); ++i) {
        ASSERT_EQ(a.triangles[i].a, b.triangles[i].a) << "triangle " << i;
        ASSERT_EQ(a.triangles[i].b, b.triangles[i].b) << "triangle " << i;
        ASSERT_EQ(a.triangles[i].c, b.triangles[i].c) << "triangle " << i;
    }
    // Bit for bit, so a flipped sign of zero or a changed NaN shows too.
    ASSERT_EQ(a.normals.size(), b.normals.size());
    for (std::size_t i = 0; i < a.normals.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a.normals[i].x),
                  std::bit_cast<std::uint32_t>(b.normals[i].x)) << "normal " << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a.normals[i].y),
                  std::bit_cast<std::uint32_t>(b.normals[i].y)) << "normal " << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a.normals[i].z),
                  std::bit_cast<std::uint32_t>(b.normals[i].z)) << "normal " << i;
    }
}

void expectSameTriangleSet(const TriMesh& a, const TriMesh& b) {
    const auto soupA = canonicalTriangleSoup(a);
    const auto soupB = canonicalTriangleSoup(b);
    ASSERT_EQ(soupA.size(), soupB.size());
    for (std::size_t i = 0; i < soupA.size(); ++i)
        for (int v = 0; v < 3; ++v) {
            ASSERT_EQ(soupA[i][v].x, soupB[i][v].x) << "triangle " << i;
            ASSERT_EQ(soupA[i][v].y, soupB[i][v].y) << "triangle " << i;
            ASSERT_EQ(soupA[i][v].z, soupB[i][v].z) << "triangle " << i;
        }
}

TEST(IsoSurfaceParallel, ByteIdenticalAcrossWorkerCounts) {
    const auto field = blobField();
    const int res = 48;
    const BlockSampler grid = sampleAll(field, res);

    const TriMesh serial = extractIsoSurface(grid);
    for (const std::size_t workers : {1u, 2u, 8u}) {
        core::ThreadPool pool(workers);
        IsoSurfaceOptions opt;
        opt.pool = &pool;
        const TriMesh pooled = extractIsoSurface(grid, opt);
        expectIdenticalMeshes(serial, pooled);
    }

    // The reconstruction's configuration: a 4-node sampler tiling and no
    // weld pass, so the extractor's own normals reach the output.
    const BlockSampler sampler = sampleAll(field, res, 4);
    IsoSurfaceOptions recon;
    recon.weldVertices = false;
    const TriMesh reconSerial = extractIsoSurface(sampler, recon, nullptr);
    for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
        core::ThreadPool pool(workers);
        recon.pool = &pool;
        const TriMesh pooled = extractIsoSurface(sampler, recon, nullptr);
        expectIdenticalMeshes(reconSerial, pooled);
    }
}

TEST(IsoSurfaceParallel, CleanupDropsTrianglesThroughGridNodes) {
    // Node coordinates are multiples of 1/8 here, so the plane
    // x + y / 2 = 0 passes exactly through grid nodes. Every crossing
    // edge that ends on such a node puts its vertex on the node, and
    // triangles spanned by coincident vertices have zero area.
    const int res = 16;
    const BlockSampler grid = sampleAll([](Vec3f p) { return p.x + 0.5f * p.y; }, res);

    IsoSurfaceOptions opt;
    opt.weldVertices = false;
    ReconCounters stats;
    const TriMesh serial = extractIsoSurface(grid, opt, &stats);
    ASSERT_GT(serial.triangleCount(), 0u);
    EXPECT_GT(stats.triangles, serial.triangleCount());
    expectSameTriangleSet(extractLegacy(grid, opt), serial);

    TriMesh reference = serial;
    reference.computeVertexNormals();
    expectIdenticalMeshes(reference, serial);

    for (const std::size_t workers : {2u, 3u, 8u}) {
        core::ThreadPool pool(workers);
        opt.pool = &pool;
        expectIdenticalMeshes(serial, extractIsoSurface(grid, opt, nullptr));
    }
}

TEST(IsoSurfaceParallel, MatchesLegacyAcrossFieldsAndIsoValues) {
    struct Case {
        const char* name;
        ScalarField field;
    };
    const Case cases[] = {
        {"sphere", sphereField({0.1f, -0.05f, 0.08f}, 0.55f)},
        {"capsule", capsuleField({-0.4f, -0.3f, 0.0f}, {0.35f, 0.4f, 0.1f}, 0.25f)},
        {"blobs", blobField()},
    };
    for (const Case& c : cases)
        for (const int res : {16, 33})
            for (const float iso : {0.0f, 0.08f, -0.05f}) {
                SCOPED_TRACE(std::string(c.name) + " res " +
                             std::to_string(res) + " iso " + std::to_string(iso));
                const BlockSampler grid = sampleAll(c.field, res);
                IsoSurfaceOptions opt;
                opt.isoValue = iso;
                // The triangle-set guarantee is on the pre-weld output;
                // welding may pick different epsilon-merge representatives
                // depending on emission order.
                opt.weldVertices = false;
                const TriMesh legacy = extractLegacy(grid, opt);
                const TriMesh block = extractIsoSurface(grid, opt);
                ASSERT_GT(block.triangleCount(), 0u)
                    << c.name << " res " << res << " iso " << iso;
                expectSameTriangleSet(legacy, block);
            }
}

TEST(IsoSurfaceParallel, SparseMatchesLegacySparse) {
    const Vec3f center{0.0f, 0.05f, -0.1f};
    const float radius = 0.5f;
    const auto field = sphereField(center, radius);
    const int res = 40;
    BlockSampler sampler(VoxelGrid(unitBounds(), {res, res, res}), 8);
    FieldSampleOptions sampling;
    sampling.certificate = sphereCertificate(center, radius);
    sampler.sample(field, sampling);

    IsoSurfaceOptions opt;  // pre-weld comparison, as in the other suites
    opt.weldVertices = false;
    // The legacy extractor reads a dense copy of the values, the block
    // extractor the sampler's store.
    const TriMesh legacy =
        extractIsoSurfaceLegacy(sampler.grid(), denseValues(sampler), &sampler, opt);
    const TriMesh block = extractIsoSurface(sampler, opt);
    ASSERT_GT(block.triangleCount(), 0u);
    expectSameTriangleSet(legacy, block);
}

TEST(IsoSurfaceParallel, BlockDecompositionDoesNotChangeOutput) {
    // The dense path (BlockTiling::kDefaultBlockSize tiles) and the
    // sparse path (other sampler-sized tiles) must emit identical bytes —
    // the canonical ordering is decomposition-independent.
    const auto field = blobField();
    const int res = 40;
    const BlockSampler dense = sampleAll(field, res);

    for (const int blockSize : {4, 8, 16}) {
        BlockSampler sampler(VoxelGrid(unitBounds(), {res, res, res}), blockSize);
        FieldSampleOptions sampling;  // no certificate: grids identical node-for-node
        sampler.sample(field, sampling);
        expectIdenticalMeshes(extractIsoSurface(dense), extractIsoSurface(sampler));
    }
}

TEST(IsoSurfaceParallel, NoCrossingProducesEmptyMesh) {
    const int res = 16;
    for (const float value : {1.0f, -1.0f}) {
        const BlockSampler grid = sampleAll([value](Vec3f) { return value; }, res);
        const TriMesh m = extractIsoSurface(grid);
        EXPECT_EQ(m.vertexCount(), 0u);
        EXPECT_EQ(m.triangleCount(), 0u);
        expectSameTriangleSet(extractLegacy(grid), m);
    }
}

TEST(IsoSurfaceParallel, SurfaceClippedByGridBoundary) {
    // Sphere larger than the bounds: the iso-surface exits through every
    // face, exercising the clamped halo rows at the grid edge.
    const auto field = sphereField({0.3f, 0.2f, -0.25f}, 1.1f);
    for (const int res : {15, 32}) {
        const BlockSampler grid = sampleAll(field, res);
        const TriMesh legacy = extractLegacy(grid);
        const TriMesh block = extractIsoSurface(grid);
        ASSERT_GT(block.triangleCount(), 0u) << "res " << res;
        expectSameTriangleSet(legacy, block);
    }
}

TEST(IsoSurfaceParallel, WeldOptOutKeepsTriangleSet) {
    const auto field = capsuleField({-0.3f, 0.0f, 0.0f}, {0.3f, 0.2f, 0.0f}, 0.3f);
    const int res = 33;
    const BlockSampler grid = sampleAll(field, res);

    IsoSurfaceOptions welded;  // default weldVertices = true
    IsoSurfaceOptions unwelded;
    unwelded.weldVertices = false;
    const TriMesh a = extractIsoSurface(grid, welded);
    const TriMesh b = extractIsoSurface(grid, unwelded);
    // Node-edge dedup already welds shared cell/block boundaries, so for
    // a smooth field missing the nodes the weld pass must be a no-op.
    expectIdenticalMeshes(a, b);
    expectSameTriangleSet(a, b);
}

TEST(IsoSurfaceParallel, StatsCountActiveCellsAndOutput) {
    const auto field = sphereField({0.0f, 0.0f, 0.0f}, 0.5f);
    const int res = 24;
    const BlockSampler grid = sampleAll(field, res);

    IsoSurfaceOptions opt;
    opt.weldVertices = false;
    ReconCounters stats;
    const TriMesh m = extractIsoSurface(grid, opt, &stats);
    // sampleAll tiles the grid at the default size.
    const auto blocksTotal = static_cast<std::uint64_t>(
        BlockTiling(grid.grid().resolution(), BlockTiling::kDefaultBlockSize).count());
    EXPECT_GT(blocksTotal, 0u);
    EXPECT_GT(stats.blocksExtracted, 0u);
    EXPECT_LE(stats.blocksExtracted, blocksTotal);
    EXPECT_GT(stats.activeCells, 0u);
    // Pre-cleanup counters bound the final mesh from above (degenerate
    // removal may drop triangles but never adds).
    EXPECT_GE(stats.vertices, m.vertexCount());
    EXPECT_GE(stats.triangles, m.triangleCount());
}

}  // namespace
}  // namespace semholo::mesh
