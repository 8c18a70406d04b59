// Property tests for the octree certificate hierarchy: a certified node
// must never contain a surface crossing anywhere a descendant block's
// guard region reaches, the sparse octree+batch pipeline must extract
// byte-identical meshes to a dense pass at every resolution, and the
// extractor must refuse a store whose certified blocks are wrong.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/blocksampler.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "semholo/recon/keypoint_recon.hpp"

namespace semholo::recon {
namespace {

using body::BodyField;
using body::BodyFieldOptions;
using body::MotionGenerator;
using body::MotionKind;
using body::Pose;
using geom::Vec3f;
using mesh::BlockSampler;
using mesh::Vec3i;
using mesh::VoxelGrid;

// Enumerate octree nodes over the block grid exactly the way
// BlockSampler::descend splits: inclusive block-coordinate ranges,
// octants split at lo + (hi - lo) / 2.
void collectNodes(Vec3i lo, Vec3i hi,
                  std::vector<std::pair<Vec3i, Vec3i>>& nodes) {
    nodes.emplace_back(lo, hi);
    if (lo.x == hi.x && lo.y == hi.y && lo.z == hi.z) return;
    const Vec3i mid{lo.x + (hi.x - lo.x) / 2, lo.y + (hi.y - lo.y) / 2,
                    lo.z + (hi.z - lo.z) / 2};
    for (int oz = 0; oz < 2; ++oz) {
        for (int oy = 0; oy < 2; ++oy) {
            for (int ox = 0; ox < 2; ++ox) {
                const Vec3i clo{ox ? mid.x + 1 : lo.x, oy ? mid.y + 1 : lo.y,
                                oz ? mid.z + 1 : lo.z};
                const Vec3i chi{ox ? hi.x : mid.x, oy ? hi.y : mid.y,
                                oz ? hi.z : mid.z};
                if (clo.x > chi.x || clo.y > chi.y || clo.z > chi.z) continue;
                if (clo.x == lo.x && clo.y == lo.y && clo.z == lo.z &&
                    chi.x == hi.x && chi.y == hi.y && chi.z == hi.z)
                    continue;  // degenerate split: node did not shrink
                collectNodes(clo, chi, nodes);
            }
        }
    }
}

TEST(OctreeCertificates, CertifiedNodesContainNoSurfaceCrossing) {
    std::mt19937 rng(17);
    std::uniform_real_distribution<float> ut(0.0f, 2.0f);
    std::uniform_real_distribution<float> u01(0.0f, 1.0f);
    const MotionKind kinds[] = {MotionKind::Idle, MotionKind::Wave,
                                MotionKind::Talk, MotionKind::Collaborate};
    struct Case {
        Pose pose;
        bool clothing;
        int res, blockSize;
    };
    std::vector<Case> cases;
    for (int trial = 0; trial < 6; ++trial) {
        const Pose pose = MotionGenerator(kinds[trial % 4]).poseAt(ut(rng));
        // Clothing folds: the certificate must cover them.
        cases.push_back({pose, (trial % 2) == 1, 16 + 8 * (trial % 3),  // 16, 24, 32
                         (trial % 2) ? 4 : 8});
    }
    // A speaking face (expression warp) at the production block size.
    cases.push_back({MotionGenerator(MotionKind::Talk).poseAt(0.0), false, 64, 4});

    std::size_t certified = 0;
    for (std::size_t k = 0; k < cases.size(); ++k) {
        const Case& tc = cases[k];
        SCOPED_TRACE("case " + std::to_string(k));
        BodyFieldOptions opt;
        opt.clothingDetail = tc.clothing;
        const BodyField body = body::makeBodyField(tc.pose, opt);
        VoxelGrid grid(body.bounds, {tc.res, tc.res, tc.res});
        BlockSampler sampler(grid, tc.blockSize);
        const Vec3i bg = sampler.tiling().blocks();

        std::vector<std::pair<Vec3i, Vec3i>> nodes;
        collectNodes({0, 0, 0}, {bg.x - 1, bg.y - 1, bg.z - 1}, nodes);
        for (const auto& [lo, hi] : nodes) {
            const geom::AABB box = sampler.nodeBox(lo, hi);
            // The box must contain every descendant block's guard box —
            // that containment is what lets one coarse test stand in for
            // all of them.
            for (int z = lo.z; z <= hi.z; ++z)
                for (int y = lo.y; y <= hi.y; ++y)
                    for (int x = lo.x; x <= hi.x; ++x) {
                        const geom::AABB gb =
                            sampler.blockGuardBounds(sampler.tiling().index({x, y, z}));
                        ASSERT_TRUE(box.contains(gb.lo) && box.contains(gb.hi));
                    }
            if (!body.certificate(box)) continue;
            ++certified;
            // The certificate claims no zero crossing anywhere in the box:
            // the field must keep the centre's sign at its 8 corners and
            // at uniform probes throughout.
            const float centerValue = body.field(box.center());
            ASSERT_NE(centerValue, 0.0f);
            for (int probe = 0; probe < 40; ++probe) {
                const Vec3f p =
                    probe < 8 ? Vec3f{probe & 1 ? box.hi.x : box.lo.x,
                                      probe & 2 ? box.hi.y : box.lo.y,
                                      probe & 4 ? box.hi.z : box.lo.z}
                              : Vec3f{box.lo.x + (box.hi.x - box.lo.x) * u01(rng),
                                      box.lo.y + (box.hi.y - box.lo.y) * u01(rng),
                                      box.lo.z + (box.hi.z - box.lo.z) * u01(rng)};
                const float v = body.field(p);
                ASSERT_NE(v, 0.0f);
                ASSERT_GT(v * centerValue, 0.0f) << "crossing inside certified box, probe " << probe;
            }
        }
    }
    // The property is vacuous if nothing ever certifies.
    EXPECT_GT(certified, 100u);
}

void expectIdenticalMeshes(const mesh::TriMesh& a, const mesh::TriMesh& b) {
    ASSERT_EQ(a.vertexCount(), b.vertexCount());
    ASSERT_EQ(a.triangleCount(), b.triangleCount());
    for (std::size_t i = 0; i < a.vertexCount(); ++i) {
        ASSERT_EQ(a.vertices[i].x, b.vertices[i].x);
        ASSERT_EQ(a.vertices[i].y, b.vertices[i].y);
        ASSERT_EQ(a.vertices[i].z, b.vertices[i].z);
    }
    for (std::size_t i = 0; i < a.triangleCount(); ++i) {
        ASSERT_EQ(a.triangles[i].a, b.triangles[i].a);
        ASSERT_EQ(a.triangles[i].b, b.triangles[i].b);
        ASSERT_EQ(a.triangles[i].c, b.triangles[i].c);
    }
}

TEST(OctreeCertificates, SparseOctreeBatchExtractionMatchesDense) {
    // Random poses x resolutions x block sizes: the full production
    // stack (octree descent, coarse fills, SIMD batch evaluation) must
    // extract the same mesh, byte for byte, as a dense serial pass.
    std::mt19937 rng(23);
    std::uniform_real_distribution<float> ut(0.0f, 2.0f);
    const MotionKind kinds[] = {MotionKind::Walk, MotionKind::Talk,
                                MotionKind::Wave};
    for (int trial = 0; trial < 3; ++trial) {
        const Pose pose = MotionGenerator(kinds[trial]).poseAt(ut(rng));
        BodyFieldOptions opt;
        opt.bonePruning = false;  // bit-reproducible field
        const BodyField body =
            body::makeBodyField(pose, opt);
        const int res = 24 + 9 * trial;  // 24, 33, 42
        const int blockSize = (trial % 2) ? 8 : 4;

        const auto denseMesh = mesh::extractIsoSurface(body.field, body.bounds, res);

        VoxelGrid sparseGrid(body.bounds, {res, res, res});
        BlockSampler sampler(sparseGrid, blockSize);
        mesh::FieldSampleOptions so;
        so.certificate = body.certificate;
        so.batch = body.batch;
        so.hierarchical = true;
        const auto stats = sampler.sample(body.field, so);
        EXPECT_GT(stats.blocksCoarseFilled, 0u) << "octree never engaged";
        const auto sparseMesh = mesh::extractIsoSurface(sampler);
        expectIdenticalMeshes(denseMesh, sparseMesh);
    }
}

TEST(BlockSampler, StoreBytesTrackTheSurface) {
    // The block store holds B^3 floats only for the blocks left to sample
    // near the surface, plus one table entry per block: under a third of
    // a dense (R+1)^3 float grid at the Figure 4 resolutions.
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.5);
    const BodyField body = body::makeBodyField(pose);
    for (const int res : {128, 256}) {
        BlockSampler sampler(VoxelGrid(body.bounds, {res, res, res}), resolveBlockSize(res));
        mesh::FieldSampleOptions so;
        so.pool = &core::sharedPool();
        so.certificate = body.certificate;
        so.batch = body.batch;
        const auto stats = sampler.sample(body.field, so);
        ASSERT_GT(stats.blocksSampled, 0u) << res;
        const std::size_t denseBytes =
            static_cast<std::size_t>(res + 1) * (res + 1) * (res + 1) * sizeof(float);
        EXPECT_GT(sampler.storeBytes(), 0u) << res;
        EXPECT_LT(3 * sampler.storeBytes(), denseBytes) << res;
    }
}

TEST(IsoSurface, UnsoundStoreThrowsInsteadOfCorrupting) {
    // The body certificate picks the blocks to skip, but every sampled
    // node reads one unit high, so sampled nodes next to certified
    // interior blocks cross the surface there. The extractor must refuse
    // the store, naming a block, on one thread and on the pool, and
    // touch no memory it does not own on the way.
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.0);
    const BodyField body = body::makeBodyField(pose);
    for (core::ThreadPool* pool : {static_cast<core::ThreadPool*>(nullptr), &core::sharedPool()}) {
        SCOPED_TRACE(pool == nullptr ? "serial" : "pool");
        BlockSampler sampler(VoxelGrid(body.bounds, {128, 128, 128}), 4);
        mesh::FieldSampleOptions so;
        so.pool = pool;
        so.certificate = body.certificate;
        so.batch = [&body](const float* xs, const float* ys, const float* zs, float* vals,
                           std::size_t n) {
            body.batch(xs, ys, zs, vals, n);
            for (std::size_t i = 0; i < n; ++i) vals[i] += 1.0f;
        };
        ASSERT_GT(sampler.sample(body.field, so).blocksSkipped, 0u);
        mesh::IsoSurfaceOptions opt;
        opt.pool = pool;
        try {
            mesh::extractIsoSurface(sampler, opt);
            ADD_FAILURE() << "an unsound store extracted without error";
        } catch (const std::logic_error& e) {
            EXPECT_NE(std::string(e.what()).find("block ("), std::string::npos) << e.what();
        }
    }
}

TEST(IsoSurface, CertificateWithNonzeroIsoLevelRejected) {
    // The certificate proves "no zero crossing": at level 0.05 the blocks
    // it skips may hold the surface, which left an unsound store that the
    // extractor threw std::logic_error on at 64^3. The field overload
    // refuses the combination before sampling instead.
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.0);
    const BodyField body = body::makeBodyField(pose);
    mesh::FieldSampleOptions so;
    so.certificate = body.certificate;
    mesh::IsoSurfaceOptions opt;
    opt.isoValue = 0.05f;
    EXPECT_THROW(mesh::extractIsoSurface(body.field, body.bounds, 64, opt, so),
                 std::invalid_argument);
    // Either half alone still extracts.
    EXPECT_FALSE(mesh::extractIsoSurface(body.field, body.bounds, 64, opt).empty());
    opt.isoValue = 0.0f;
    EXPECT_FALSE(mesh::extractIsoSurface(body.field, body.bounds, 64, opt, so).empty());
}

}  // namespace
}  // namespace semholo::recon
