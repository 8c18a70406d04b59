#include "semholo/recon/sparse_recon.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>

#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/isosurface.hpp"

namespace semholo::recon {

namespace {

using geom::Vec3f;

double msSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

float aabbDistance(Vec3f p, Vec3f lo, Vec3f hi) {
    const float dx = std::max({lo.x - p.x, 0.0f, p.x - hi.x});
    const float dy = std::max({lo.y - p.y, 0.0f, p.y - hi.y});
    const float dz = std::max({lo.z - p.z, 0.0f, p.z - hi.z});
    return std::sqrt(dx * dx + dy * dy + dz * dz);
}

// Conservative data per posed capsule for the block-support test.
struct CapsuleBounds {
    Vec3f lo, hi;   // segment AABB (no radius)
    float rmax;     // larger end radius: distance lower bounds
};

CapsuleBounds capsuleBounds(const body::PosedCapsule& c) {
    CapsuleBounds b;
    b.lo = {std::min(c.a.x, c.b.x), std::min(c.a.y, c.b.y), std::min(c.a.z, c.b.z)};
    b.hi = {std::max(c.a.x, c.b.x), std::max(c.a.y, c.b.y), std::max(c.a.z, c.b.z)};
    b.rmax = std::max(c.ra, c.rb);
    return b;
}

// Bound on how much a capsule's distance field can change between two
// posings: endpoint displacement plus radius change.
float capsuleMovement(const body::PosedCapsule& now, const body::PosedCapsule& prev) {
    const float endpoints =
        std::max((now.a - prev.a).norm(), (now.b - prev.b).norm());
    const float radii =
        std::max(std::fabs(now.ra - prev.ra), std::fabs(now.rb - prev.rb));
    return endpoints + radii;
}

}  // namespace

SparseReconstructor::SparseReconstructor(const SparseReconstructorOptions& options)
    : options_(options) {
    options_.recon.mode = ReconMode::Sparse;
    options_.recon.blockSize =
        resolveBlockSize(options_.recon.blockSize, options_.recon.resolution);
}

void SparseReconstructor::invalidate() {
    haveFrame_ = false;
    prevCapsules_.clear();
    std::fill(accumDrift_.begin(), accumDrift_.end(), 0.0f);
    std::fill(prevSupport_.begin(), prevSupport_.end(), ~0ull);
    extractCache_.clear();
}

void SparseReconstructor::rebuildGrid(const geom::AABB& bodyBounds) {
    geom::AABB bounds = bodyBounds;
    bounds.inflate(options_.motionMargin);
    gridBounds_ = bounds;
    const int r = options_.recon.resolution;
    grid_ = std::make_unique<mesh::VoxelGrid>(bounds, mesh::Vec3i{r, r, r});
    sampler_ = std::make_unique<mesh::BlockSampler>(*grid_, options_.recon.blockSize);
    const auto blocks = static_cast<std::size_t>(sampler_->blockCount());
    accumDrift_.assign(blocks, 0.0f);
    prevSupport_.assign(blocks, ~0ull);
    extractCache_.clear();
    haveFrame_ = false;
    prevCapsules_.clear();
    if (frames_ > 0) ++rebuilds_;
}

ReconstructionResult SparseReconstructor::reconstruct(const body::Pose& pose) {
    const ReconstructionOptions& ro = options_.recon;
    ReconstructionResult result;
    result.gridBytes =
        reconstructionWorkingSetBytes(ro.resolution, ReconMode::Sparse, ro.blockSize);
    if (!ro.device.fitsInMemory(result.gridBytes)) {
        result.failureReason = "out of memory on " + ro.device.name;
        return result;
    }

    body::BodyFieldOptions fieldOpt;
    fieldOpt.bonePruning = ro.bonePruning;
    const body::BodyField body =
        body::makeBodyField(pose, body::Skeleton::canonical(), fieldOpt);

    if (grid_ == nullptr || !(gridBounds_.contains(body.bounds.lo) &&
                              gridBounds_.contains(body.bounds.hi)))
        rebuildGrid(body.bounds);

    const auto blocks = static_cast<std::size_t>(sampler_->blockCount());
    const std::size_t n = body.capsules.size();
    core::ThreadPool* pool = ro.pool != nullptr ? ro.pool : &core::sharedPool();

    const auto t0 = std::chrono::steady_clock::now();

    // Per-frame support sets + drift accounting. The support test is the
    // per-block analogue of the field's per-query bone pruning: capsule i
    // cannot change any node of the block's guard region when its
    // conservative lower-bound distance clears the region's smallest
    // capsule upper bound by the blend radius (3x slack covers the
    // smooth-min fold's bounded undershoot, d >= min - k).
    std::vector<std::uint8_t> dirty(blocks, 1);
    std::vector<std::uint64_t> support(blocks, ~0ull);
    const bool trackable = n > 0 && n <= 64;
    const bool cacheUsable =
        trackable && haveFrame_ && prevCapsules_.size() == n;

    std::vector<CapsuleBounds> caps;
    std::vector<float> moves;
    float exprDelta = 0.0f;
    if (trackable) {
        caps.reserve(n);
        for (const body::PosedCapsule& c : body.capsules)
            caps.push_back(capsuleBounds(c));
        if (cacheUsable) {
            moves.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                moves.push_back(capsuleMovement(body.capsules[i], prevCapsules_[i]));
            // Expression coefficient deltas shift the warp offset by at
            // most amplitude * |delta| inside the face region; through
            // the field that is bounded by the Lipschitz constant.
            const float dc0 = static_cast<float>(
                std::fabs(pose.expression.coeffs[0] - prevExpression_[0]));
            const float dc1 = static_cast<float>(
                std::fabs(pose.expression.coeffs[1] - prevExpression_[1]));
            const float dc2 = static_cast<float>(
                std::fabs(pose.expression.coeffs[2] - prevExpression_[2]));
            const float dc3 = static_cast<float>(
                std::fabs(pose.expression.coeffs[3] - prevExpression_[3]));
            exprDelta = body.lipschitz *
                        (0.02f * dc0 + 0.015f * dc1 + 0.012f * dc2 + 0.008f * dc3);
        }

        geom::AABB faceUnion = body.faceBounds;
        if (cacheUsable) faceUnion.expand(prevFaceBounds_);
        const float guard = sampler_->guardRadius();
        const float blend3 = 3.0f * body::kFieldBlend;

        // One block's support + drift bookkeeping, restricted to the
        // candidate capsules 'cand' (in the flat scan cand = all bits).
        // Candidate restriction is exact: a capsule excluded at an octree
        // ancestor provably neither enters the block's mask nor attains
        // its smallest upper bound, so masks equal the flat scan's.
        auto scanLeaf = [&](int block, std::uint64_t cand) {
            const auto b = static_cast<std::size_t>(block);
            const Vec3f center = sampler_->blockCenter(block);
            // Smallest capsule-distance upper bound at the center.
            float ubMin = std::numeric_limits<float>::max();
            for (std::uint64_t m = cand; m != 0; m &= m - 1) {
                const auto i = static_cast<std::size_t>(std::countr_zero(m));
                ubMin = std::min(ubMin,
                                 body::capsuleUpperBound(body.capsules[i], center));
            }
            const float threshold = ubMin + body.lipschitz * guard + blend3;

            std::uint64_t mask = 0;
            for (std::uint64_t m = cand; m != 0; m &= m - 1) {
                const auto i = static_cast<std::size_t>(std::countr_zero(m));
                const float lb = aabbDistance(center, caps[i].lo, caps[i].hi) -
                                 caps[i].rmax - guard;
                if (lb <= threshold) mask |= 1ull << i;
            }
            support[b] = mask;

            if (!cacheUsable) return;
            float drift = 0.0f;
            const std::uint64_t active = mask | prevSupport_[b];
            for (std::uint64_t m = active; m != 0; m &= m - 1)
                drift = std::max(
                    drift, moves[static_cast<std::size_t>(std::countr_zero(m))]);
            if (exprDelta > 0.0f &&
                sampler_->blockGuardBounds(block).intersects(faceUnion))
                drift += exprDelta;
            accumDrift_[b] += drift;
            dirty[b] = accumDrift_[b] > options_.cacheTolerance ? 1 : 0;
        };

        if (options_.recon.octreeCertificates) {
            // Octree-keyed scan: candidate capsule sets narrow on the way
            // down (one conservative test per capsule per node instead of
            // per block), and subtrees none of whose candidate or
            // previously-supporting capsules moved reuse last frame's
            // masks wholesale. Every verdict is provably identical to the
            // flat scan's; only the work is hierarchical.
            const std::uint64_t allMask =
                n >= 64 ? ~0ull : ((1ull << n) - 1ull);
            std::uint64_t movedMask = 0;
            if (cacheUsable)
                for (std::size_t i = 0; i < n; ++i)
                    if (moves[i] > 0.0f) movedMask |= 1ull << i;
            const mesh::Vec3i bg = sampler_->blockGrid();
            const auto blockAt = [&bg](int x, int y, int z) {
                return x + bg.x * (y + bg.y * z);
            };

            auto scanNode = [&](auto&& self, mesh::Vec3i lo, mesh::Vec3i hi,
                                std::uint64_t inherited) -> void {
                if (lo.x == hi.x && lo.y == hi.y && lo.z == hi.z) {
                    scanLeaf(blockAt(lo.x, lo.y, lo.z), inherited);
                    return;
                }
                Vec3f center;
                float radius;
                sampler_->nodeBall(lo, hi, center, radius);

                // Node-level candidate test. B + radius bounds every
                // descendant's ubMin from above (endpoint distances are
                // 1-Lipschitz in the query point), and each candidate
                // lower bound weakens by at most radius — so a capsule
                // failing this test fails every leaf test below. The
                // epsilon keeps float rounding from ever flipping an
                // exclusion the real-valued proof would not make.
                float B = std::numeric_limits<float>::max();
                for (std::uint64_t m = inherited; m != 0; m &= m - 1) {
                    const auto i =
                        static_cast<std::size_t>(std::countr_zero(m));
                    B = std::min(B, body::capsuleUpperBound(body.capsules[i],
                                                            center));
                }
                const float nodeThreshold = B + radius +
                                            body.lipschitz * guard + blend3 +
                                            1e-4f;
                std::uint64_t cand = 0;
                for (std::uint64_t m = inherited; m != 0; m &= m - 1) {
                    const auto i =
                        static_cast<std::size_t>(std::countr_zero(m));
                    const float lb =
                        aabbDistance(center, caps[i].lo, caps[i].hi) -
                        caps[i].rmax - guard - radius;
                    if (lb <= nodeThreshold) cand |= 1ull << i;
                }

                if (cacheUsable) {
                    std::uint64_t prevUnion = 0;
                    for (int z = lo.z; z <= hi.z; ++z)
                        for (int y = lo.y; y <= hi.y; ++y)
                            for (int x = lo.x; x <= hi.x; ++x)
                                prevUnion |= prevSupport_[static_cast<std::size_t>(
                                    blockAt(x, y, z))];
                    // The node ball contains every descendant guard box,
                    // so a ball clear of the face union means no leaf
                    // pays the expression term either.
                    const bool faceClear =
                        exprDelta <= 0.0f ||
                        aabbDistance(center, faceUnion.lo, faceUnion.hi) >
                            radius;
                    if (faceClear && (movedMask & (cand | prevUnion)) == 0) {
                        // Nothing that can touch this subtree moved:
                        // masks are unchanged and drift increments are
                        // zero, frame over frame.
                        for (int z = lo.z; z <= hi.z; ++z)
                            for (int y = lo.y; y <= hi.y; ++y)
                                for (int x = lo.x; x <= hi.x; ++x) {
                                    const auto b = static_cast<std::size_t>(
                                        blockAt(x, y, z));
                                    support[b] = prevSupport_[b];
                                    dirty[b] = accumDrift_[b] >
                                                       options_.cacheTolerance
                                                   ? 1
                                                   : 0;
                                }
                        return;
                    }
                } else if (cand == 0) {
                    // Fresh frame (everything dirty anyway): no capsule
                    // can support any block below.
                    for (int z = lo.z; z <= hi.z; ++z)
                        for (int y = lo.y; y <= hi.y; ++y)
                            for (int x = lo.x; x <= hi.x; ++x)
                                support[static_cast<std::size_t>(
                                    blockAt(x, y, z))] = 0;
                    return;
                }

                const mesh::Vec3i mid{lo.x + (hi.x - lo.x) / 2,
                                      lo.y + (hi.y - lo.y) / 2,
                                      lo.z + (hi.z - lo.z) / 2};
                for (int oz = 0; oz < 2; ++oz)
                    for (int oy = 0; oy < 2; ++oy)
                        for (int ox = 0; ox < 2; ++ox) {
                            const mesh::Vec3i clo{ox ? mid.x + 1 : lo.x,
                                                  oy ? mid.y + 1 : lo.y,
                                                  oz ? mid.z + 1 : lo.z};
                            const mesh::Vec3i chi{ox ? hi.x : mid.x,
                                                  oy ? hi.y : mid.y,
                                                  oz ? hi.z : mid.z};
                            if (clo.x > chi.x || clo.y > chi.y ||
                                clo.z > chi.z)
                                continue;
                            self(self, clo, chi, cand);
                        }
            };
            scanNode(scanNode, {0, 0, 0},
                     {bg.x - 1, bg.y - 1, bg.z - 1}, allMask);
        } else {
            const std::uint64_t allMask =
                n >= 64 ? ~0ull : ((1ull << n) - 1ull);
            auto scanBlocks = [&](std::size_t begin, std::size_t end) {
                for (std::size_t b = begin; b < end; ++b)
                    scanLeaf(static_cast<int>(b), allMask);
            };
            const std::size_t chunks = std::min<std::size_t>(
                blocks, std::max<std::size_t>(1, pool->size() * 4));
            if (chunks <= 1) {
                scanBlocks(0, blocks);
            } else {
                pool->parallelFor(chunks, [&](std::size_t c) {
                    scanBlocks(blocks * c / chunks, blocks * (c + 1) / chunks);
                });
            }
        }
    }

    mesh::FieldSampleOptions sampling;
    sampling.blockSize = ro.blockSize;
    sampling.pool = pool;
    sampling.lipschitz = body.lipschitz;
    // A cached block may drift up to cacheTolerance before invalidation;
    // widening every skip certificate by it keeps skipped blocks
    // crossing-free for as long as the cache may hold them.
    sampling.margin = body.margin + options_.cacheTolerance;
    sampling.certificate = [&body, slack = options_.cacheTolerance](
                               geom::Vec3f center, float radius) {
        return body.certificate(center, radius, slack);
    };
    if (ro.simdBatch) sampling.batch = body.batch;
    sampling.hierarchical = ro.octreeCertificates;
    const mesh::FieldSampleStats fs =
        sampler_->sample(body.field, sampling, cacheUsable ? &dirty : nullptr);
    result.fieldSampleMs = msSince(t0);

    if (cacheUsable) {
        for (std::size_t b = 0; b < blocks; ++b)
            if (dirty[b] != 0) accumDrift_[b] = 0.0f;
    } else {
        std::fill(accumDrift_.begin(), accumDrift_.end(), 0.0f);
    }
    prevSupport_ = std::move(support);
    prevCapsules_ = body.capsules;
    prevFaceBounds_ = body.faceBounds;
    prevExpression_ = {pose.expression.coeffs[0], pose.expression.coeffs[1],
                       pose.expression.coeffs[2], pose.expression.coeffs[3]};
    haveFrame_ = true;
    ++frames_;

    result.stats.blocksTotal = fs.blocksTotal;
    result.stats.blocksSampled = fs.blocksSampled;
    result.stats.blocksSkipped = fs.blocksSkipped;
    result.stats.blocksCached = fs.blocksCached;
    result.stats.blocksCoarseFilled = fs.blocksCoarseFilled;
    result.stats.nodesEvaluated = fs.nodesEvaluated;
    result.stats.nodesTotal = fs.nodesTotal;
    result.stats.certTests = fs.certTests;
    result.stats.bonesBlended = body.stats->bonesBlended();
    result.stats.bonesPruned = body.stats->bonesPruned();

    const auto t1 = std::chrono::steady_clock::now();
    // Block-local extraction over the persistent grid: weld skipped (one
    // vertex per crossing edge by construction), worker fan-out over the
    // sampling pool, and the per-block topology cache carried across
    // frames — a block whose node signs did not change re-emits from its
    // cached active-cell list, recomputing only vertex positions.
    mesh::IsoSurfaceOptions iso;
    iso.weldVertices = false;
    iso.pool = pool;
    mesh::ExtractStats es;
    result.mesh =
        mesh::extractIsoSurface(*grid_, sampler_.get(), iso, &extractCache_, &es);
    result.stats.activeCells = es.activeCells;
    result.stats.reusedTopologyBlocks = es.reusedTopologyBlocks;
    result.extractMs = msSince(t1);
    result.success = !result.mesh.empty();
    if (!result.success) result.failureReason = "empty iso-surface";
    return result;
}

}  // namespace semholo::recon
