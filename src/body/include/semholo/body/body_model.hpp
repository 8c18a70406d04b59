// The parametric body surface model.
//
// Two complementary representations, mirroring the paper's pipeline:
//
//  * BodyModel — an explicit template mesh built once per subject (shape
//    betas), deformed per frame with linear blend skinning. This plays
//    the role of the ground-truth capture mesh ("textured mesh generated
//    from RGB-D data", Fig. 2a): it is what the traditional pipeline
//    streams and what reconstructions are scored against.
//
//  * makeBodyField — an implicit skeleton-conditioned signed distance
//    for a given pose. The keypoint-reconstruction path (X-Avatar
//    stand-in) evaluates this field on an R^3 grid and runs iso-surface
//    extraction, reproducing the resolution/quality/FPS trade-offs of
//    Figs. 2 and 4.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "semholo/body/pose.hpp"
#include "semholo/body/skeleton.hpp"
#include "semholo/mesh/trimesh.hpp"
#include "semholo/mesh/voxelgrid.hpp"

namespace semholo::body {

using mesh::ScalarField;
using mesh::TriMesh;

// Smooth-minimum blending radius for the implicit body field; larger
// values merge limbs more organically.
inline constexpr float kFieldBlend = 0.02f;

struct BodyFieldOptions {
    // Add high-frequency clothing-fold displacement to the surface. The
    // ground-truth capture template enables this; reconstruction from
    // keypoints cannot (keypoints carry no garment information), which
    // is exactly the quality gap Figure 2 reports ("cannot recover the
    // details of the clothes, such as folds").
    bool clothingDetail{false};
    float clothingAmplitude{0.008f};
    // Per-query capsule pruning: skip capsules whose conservative
    // lower-bound distance proves the smooth-min blend would leave the
    // running value unchanged. The skip is mathematically exact but
    // differs from the full fold over every capsule by at most one
    // rounding step per skipped capsule. Off, the field is that full
    // fold: the dense reconstruction baseline and the BodyModel template
    // sample it, and sampling it is bit-reproducible on every path.
    bool bonePruning{true};
};

// Live instrumentation counters for a body field evaluated concurrently
// by sampler workers. Sharded per thread so the hot path stays
// uncontended; totals are exact.
class BodyFieldStats {
public:
    void add(std::uint32_t blended, std::uint32_t pruned) noexcept;
    std::uint64_t bonesBlended() const noexcept;
    std::uint64_t bonesPruned() const noexcept;

private:
    static constexpr std::size_t kShards = 16;
    struct alignas(64) Shard {
        std::atomic<std::uint64_t> blended{0};
        std::atomic<std::uint64_t> pruned{0};
    };
    std::array<Shard, kShards> shards_{};
};

// One posed capsule of the implicit body (bones, head sphere, torso
// slabs): the geometry the analytic block certificate bounds from.
struct PosedCapsule {
    Vec3f a, b;
    float ra, rb;
};

// Signed distance from p to a capsule's round-cone surface (radius
// lerped from ra at a to rb at b): one term of the body field's fold.
float capsuleDistance(const PosedCapsule& c, Vec3f p);

// Bounds on capsuleDistance(c, p) over every point p of an axis-aligned
// box: lower <= capsuleDistance(c, p) <= upper. They are what the
// analytic block certificate folds. With s the box's centre, h its
// half-diagonal and d(q) the exact distance from q to the segment [a, b]
// (1-Lipschitz, so d(p) lies within h of d(s)):
//   lower = max(d(s) - h, gap(box of [a, b], region)) - max(ra, rb)
//   upper = d(s) + h - min(ra, rb)
// where gap is the box-to-box distance, no more than d(p) for any p in
// the region. The lerped radius lies between min(ra, rb) and
// max(ra, rb). (Pairing each endpoint with its own radius does not
// bound tapered capsules.) A one-point region gives the bounds at that
// point.
struct CapsuleRange {
    float lower, upper;
};
CapsuleRange capsuleRange(const PosedCapsule& c, const geom::AABB& region);

// A body field packaged with what sparse sampling needs: the per-point
// and batch evaluators, grid bounds, and the analytic block certificate.
// 'field' is the signed distance to the posed body surface, negative
// inside: a smooth-min fold over shape-scaled capsules along every bone
// plus head and torso capsules, with expression-driven face offsets (jaw
// open, pout, smile).
struct BodyField {
    ScalarField field;  // thread-safe; shared by all sampler workers
    // SIMD batch evaluator (SoA points): bit-identical to calling
    // 'field' per point — including per-lane bone-pruning decisions —
    // on every backend (see geometry/simd.hpp for the determinism
    // contract). BlockSampler uses this for whole-block evaluation.
    mesh::BatchScalarField batch;
    // Loose world bounds of the posed body, for grid placement: the
    // joints' box inflated by the largest capsule radius plus the blend
    // margin.
    geom::AABB bounds;
    // World-space box outside which the expression warp is provably
    // zero: the certificate pays the warp offset only for boxes that
    // reach it.
    geom::AABB faceBounds;
    std::vector<PosedCapsule> capsules;
    std::shared_ptr<BodyFieldStats> stats;  // counters for this field
    // Analytic block certificate: certificate(region) is true when the
    // field provably has no zero crossing anywhere in the box 'region'.
    // It bounds the field from the posed capsules directly (capsuleRange,
    // whose bounds hold regardless of capsule cone slope) and pays the
    // expression-warp displacement only for regions the warp can
    // actually reach. Feed it to mesh::FieldSampleOptions::certificate.
    std::function<bool(const geom::AABB& region)> certificate;
};

// Build the implicit body of 'pose' on the canonical skeleton: the one
// builder of the body field, for dense and sparse sampling alike.
BodyField makeBodyField(const Pose& pose, const BodyFieldOptions& options = {});

// Name of the kernel BodyField::batch dispatches to on this machine:
// "avx2" when the CPU + build support it, else the baseline backend
// ("neon"/"scalar"). SEMHOLO_SIMD=scalar forces the baseline.
const char* bodyBatchBackend();

// Per-vertex skinning: up to 4 (joint, weight) pairs.
struct SkinWeights {
    std::array<std::uint16_t, 4> joints{};
    std::array<float, 4> weights{};
};

class BodyModel {
public:
    // Build the subject template in the rest pose. 'templateResolution'
    // is the iso-surface grid resolution for the template. The default
    // (47) yields ~10.5k vertices / ~21k triangles — the same scale as
    // the SMPL-X template the paper streams — so the raw per-frame mesh
    // payload lands on Table 2's ~398 KB.
    explicit BodyModel(const ShapeParams& shape, int templateResolution = 47);

    const TriMesh& templateMesh() const { return template_; }
    const ShapeParams& shape() const { return shape_; }
    const std::vector<SkinWeights>& skinWeights() const { return weights_; }

    // Deform the template to 'pose' with linear blend skinning and apply
    // expression displacements. The returned mesh carries the template's
    // per-vertex colours (the "ground-truth texture").
    TriMesh deform(const Pose& pose) const;

private:
    void computeSkinWeights();
    void paintTexture();

    ShapeParams shape_{};
    TriMesh template_;
    std::vector<SkinWeights> weights_;
    SkeletonState restState_{};
};

// Procedural ground-truth texture: skin tone with clothing bands; also
// used to score the Figure 3 learned-texture comparison.
Vec3f groundTruthAlbedo(Vec3f restPosition);

// Expression displacement applied to a rest-space point near the face.
Vec3f expressionOffset(Vec3f restPosition, const ExpressionParams& expression);

}  // namespace semholo::body
