// Internal: SoA capsule data + batch-kernel entry points for the SIMD
// body-field evaluation (see geometry/simd.hpp for the lane types and
// the determinism contract). The kernel source (body_batch_kernel.inl)
// is compiled once per ISA flavor — body_batch_base.cpp for the portable
// baseline and body_batch_avx2.cpp (x86, -mavx2) for the wide path —
// and makeBodyField dispatches to the widest kernel the CPU supports.
//
// Every kernel evaluates, per lane, the exact float-operation sequence
// of the scalar field closure in body_model.cpp: results are
// bit-identical to calling BodyField::field point by point, including
// the per-lane bone-pruning decisions (each lane keeps its own running
// distance, so a lane prunes a capsule exactly when the scalar path
// would). Kernels cull capsules per chunk of up to 64 points only when
// every lane of the chunk provably prunes them, so values and tallies
// are unchanged.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "semholo/body/body_model.hpp"

namespace semholo::body::detail {

// Capsule + prune-box constants in structure-of-arrays form so kernels
// broadcast one scalar per capsule instead of gathering.
struct BodyBatchData {
    // Segment endpoints a and b, precomputed ab = b - a and |ab|^2.
    std::vector<float> ax, ay, az;
    std::vector<float> bx, by, bz;
    std::vector<float> abx, aby, abz;
    std::vector<float> len2;
    // End radii: ra and drr = rb - ra (the lerp coefficients).
    std::vector<float> ra, drr;
    // Prune boxes (segment AABB) + larger end radius.
    std::vector<float> lox, loy, loz, hix, hiy, hiz, rmax;
    // Smaller end radius: the chunk cull's distance upper bounds.
    std::vector<float> rmin;
    std::size_t count{0};

    bool bonePruning{true};
    bool hasExpression{false};
    ExpressionParams expr{};
    // BodyField::faceBounds: outside it the expression warp is zero.
    geom::AABB faceBounds{};
    geom::RigidTransform headXf{}, headInv{};
    Vec3f headRest{};
    bool clothingDetail{false};
    float clothingAmplitude{0.0f};
    geom::RigidTransform rootInv{};
};

// Procedural clothing folds (shared by the scalar closure and the batch
// kernels): high-frequency displacement confined to the clothed body
// regions, in the pelvis-local frame so folds move with the root.
inline float clothingFoldDisplacement(Vec3f pLocal, float amplitude) {
    if (pLocal.y > 0.45f || pLocal.y < -0.95f) return 0.0f;  // skin regions
    return amplitude * std::sin(55.0f * pLocal.y) *
           std::sin(35.0f * pLocal.x + 20.0f * pLocal.z);
}

// Evaluate the body field at n SoA query points; adds the capsule blend
// / prune tallies for the batch to 'blended' / 'pruned'.
void evaluateBodyBatchBaseline(const BodyBatchData& data, const float* xs,
                               const float* ys, const float* zs, float* out,
                               std::size_t n, std::uint64_t& blended,
                               std::uint64_t& pruned);
#if defined(SEMHOLO_HAVE_AVX2_KERNELS)
void evaluateBodyBatchAvx2(const BodyBatchData& data, const float* xs,
                           const float* ys, const float* zs, float* out,
                           std::size_t n, std::uint64_t& blended,
                           std::uint64_t& pruned);
#endif

}  // namespace semholo::body::detail
