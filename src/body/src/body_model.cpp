#include "semholo/body/body_model.hpp"

#include <algorithm>
#include <cmath>

#include "body_batch.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/geometry/simd.hpp"
#include "semholo/mesh/isosurface.hpp"

namespace semholo::body {

namespace {

// Polynomial smooth minimum (Quilez): blends capsule fields organically.
float smin(float a, float b, float k) {
    const float h = geom::clamp(0.5f + 0.5f * (b - a) / k, 0.0f, 1.0f);
    return geom::lerp(b, a, h) - k * h * (1.0f - h);
}

// Girth multiplier from shape betas (beta[2] = overall girth).
float girth(const ShapeParams& shape) {
    return 1.0f + 0.06f * static_cast<float>(shape.betas[2]);
}

std::vector<PosedCapsule> posedCapsules(const SkeletonState& state,
                                        const ShapeParams& shape) {
    std::vector<PosedCapsule> out;
    const float g = girth(shape);
    for (const Bone& bone : canonicalBones()) {
        const Vec3f a = state.worldFromJoint[index(bone.parent)].translation;
        const Vec3f b = state.worldFromJoint[index(bone.child)].translation;
        out.push_back({a, b, bone.radiusAtParent * g, bone.radiusAtChild * g});
    }
    // Head: a sphere centred slightly above the head joint.
    const Vec3f headPos = state.worldFromJoint[index(JointId::Head)].translation;
    const Vec3f headUp =
        state.worldFromJoint[index(JointId::Head)].rotation.rotate({0, 1, 0});
    out.push_back({headPos + headUp * 0.04f, headPos + headUp * 0.09f, 0.105f * g,
                   0.095f * g});
    // Torso volume: widen the spine capsules with two extra "slabs".
    const Vec3f spine1 = state.worldFromJoint[index(JointId::Spine1)].translation;
    const Vec3f spine3 = state.worldFromJoint[index(JointId::Spine3)].translation;
    const Vec3f right =
        state.worldFromJoint[index(JointId::Spine2)].rotation.rotate({1, 0, 0});
    out.push_back({spine1 + right * 0.06f, spine3 + right * 0.07f, 0.09f * g, 0.09f * g});
    out.push_back({spine1 - right * 0.06f, spine3 - right * 0.07f, 0.09f * g, 0.09f * g});
    return out;
}

}  // namespace

Vec3f expressionOffset(Vec3f restPosition, const ExpressionParams& expression) {
    // Face region in the rest pose: around the head at (0, ~0.70, ~+0.09).
    const Vec3f mouthCenter{0.0f, 0.66f, 0.10f};
    const Vec3f browCenter{0.0f, 0.75f, 0.10f};
    const float dMouth = (restPosition - mouthCenter).norm();
    const float dBrow = (restPosition - browCenter).norm();
    Vec3f offset{};
    // Jaw open: pull the lower-lip region down.
    if (dMouth < 0.06f && restPosition.y < mouthCenter.y) {
        const float w = 1.0f - dMouth / 0.06f;
        offset.y -= 0.02f * w * static_cast<float>(expression.coeffs[0]);
    }
    // Pout: push the lip region forward (+z).
    if (dMouth < 0.045f) {
        const float w = 1.0f - dMouth / 0.045f;
        offset.z += 0.015f * w * static_cast<float>(expression.coeffs[1]);
    }
    // Smile: stretch mouth corners outward in x.
    if (dMouth < 0.07f) {
        const float w = 1.0f - dMouth / 0.07f;
        offset.x += 0.012f * w * static_cast<float>(expression.coeffs[2]) *
                    (restPosition.x >= 0.0f ? 1.0f : -1.0f);
    }
    // Brow raise.
    if (dBrow < 0.05f && restPosition.y > browCenter.y - 0.01f) {
        const float w = 1.0f - dBrow / 0.05f;
        offset.y += 0.008f * w * static_cast<float>(expression.coeffs[3]);
    }
    return offset;
}

using detail::clothingFoldDisplacement;

// ---- BodyFieldStats ------------------------------------------------------

namespace {

std::atomic<unsigned> gStatsShardCounter{0};

// Each thread claims its own shard once, so the per-evaluation counter
// updates are uncontended relaxed adds.
unsigned thisThreadShard() {
    static thread_local const unsigned shard =
        gStatsShardCounter.fetch_add(1, std::memory_order_relaxed);
    return shard;
}

}  // namespace

void BodyFieldStats::add(std::uint32_t blended, std::uint32_t pruned) noexcept {
    Shard& s = shards_[thisThreadShard() % kShards];
    s.blended.fetch_add(blended, std::memory_order_relaxed);
    s.pruned.fetch_add(pruned, std::memory_order_relaxed);
}

std::uint64_t BodyFieldStats::bonesBlended() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.blended.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t BodyFieldStats::bonesPruned() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.pruned.load(std::memory_order_relaxed);
    return total;
}

// ---- makeBodyField -------------------------------------------------------

namespace {

// Conservative per-capsule data for the per-query skip test: the
// segment's axis-aligned box plus the larger end radius. For any point,
// capsuleDistance >= dist(point, segment box) - rmax, so
//   dist2(q, box) > (d + kFieldBlend + rmax)^2
// certifies the capsule's smooth-min contribution is the identity.
struct BonePruneData {
    Vec3f lo, hi;
    float rmax;
};

float aabbDistance2(Vec3f p, Vec3f lo, Vec3f hi) {
    const float dx = std::max({lo.x - p.x, 0.0f, p.x - hi.x});
    const float dy = std::max({lo.y - p.y, 0.0f, p.y - hi.y});
    const float dz = std::max({lo.z - p.z, 0.0f, p.z - hi.z});
    return dx * dx + dy * dy + dz * dz;
}

}  // namespace

float capsuleDistance(const PosedCapsule& c, Vec3f p) {
    float t;
    const float d = geom::pointSegmentDistance(p, c.a, c.b, t);
    return d - geom::lerp(c.ra, c.rb, t);
}

CapsuleRange capsuleRange(const PosedCapsule& c, const geom::AABB& region) {
    const Vec3f s = region.center();
    const float h = 0.5f * region.diagonal();
    float t;
    const float d = geom::pointSegmentDistance(s, c.a, c.b, t);
    // Per axis, how far the segment's box and the region stand apart.
    const float gx = std::max({std::min(c.a.x, c.b.x) - region.hi.x, 0.0f,
                               region.lo.x - std::max(c.a.x, c.b.x)});
    const float gy = std::max({std::min(c.a.y, c.b.y) - region.hi.y, 0.0f,
                               region.lo.y - std::max(c.a.y, c.b.y)});
    const float gz = std::max({std::min(c.a.z, c.b.z) - region.hi.z, 0.0f,
                               region.lo.z - std::max(c.a.z, c.b.z)});
    const float gap = std::sqrt(gx * gx + gy * gy + gz * gz);
    return {std::max(d - h, gap) - std::max(c.ra, c.rb), d + h - std::min(c.ra, c.rb)};
}

namespace {

using BatchKernel = void (*)(const detail::BodyBatchData&, const float*,
                             const float*, const float*, float*, std::size_t,
                             std::uint64_t&, std::uint64_t&);

BatchKernel pickBatchKernel() {
#if defined(SEMHOLO_HAVE_AVX2_KERNELS)
    if (!geom::simd::forcedScalar() && geom::simd::cpuHasAvx2())
        return &detail::evaluateBodyBatchAvx2;
#endif
    return &detail::evaluateBodyBatchBaseline;
}

}  // namespace

const char* bodyBatchBackend() {
#if defined(SEMHOLO_HAVE_AVX2_KERNELS)
    if (!geom::simd::forcedScalar() && geom::simd::cpuHasAvx2()) return "avx2";
#endif
    if (geom::simd::forcedScalar()) return "scalar";
    return geom::simd::backendName(geom::simd::baselineBackend());
}

BodyField makeBodyField(const Pose& pose, const BodyFieldOptions& options) {
    const SkeletonState state = forwardKinematics(pose);
    const ExpressionParams expr = pose.expression;
    const RigidTransform headXf = state.worldFromJoint[index(JointId::Head)];
    const RigidTransform headInv = headXf.inverse();
    const Vec3f headRest = Skeleton::canonical().restPosition(JointId::Head);
    const RigidTransform rootInv =
        state.worldFromJoint[index(JointId::Pelvis)].inverse();

    BodyField out;
    out.stats = std::make_shared<BodyFieldStats>();
    out.capsules = posedCapsules(state, pose.shape);
    std::vector<BonePruneData> prune;
    prune.reserve(out.capsules.size());
    for (const PosedCapsule& b : out.capsules) {
        BonePruneData bd;
        bd.lo = {std::min(b.a.x, b.b.x), std::min(b.a.y, b.b.y),
                 std::min(b.a.z, b.b.z)};
        bd.hi = {std::max(b.a.x, b.b.x), std::max(b.a.y, b.b.y),
                 std::max(b.a.z, b.b.z)};
        bd.rmax = std::max(b.ra, b.rb);
        prune.push_back(bd);
    }

    for (const auto& xf : state.worldFromJoint) out.bounds.expand(xf.translation);
    out.bounds.inflate(0.18f);  // largest capsule radius + blend margin

    // Rest-space box covering every expressionOffset falloff region
    // (mouth sphere radius 0.07 around y=0.66, brow sphere radius 0.05
    // around y=0.75, both at z=0.10), inflated by the largest possible
    // offset; posed into world space through the head transform.
    {
        const geom::AABB faceRest{{-0.07f, 0.59f, 0.03f}, {0.07f, 0.80f, 0.17f}};
        geom::AABB face;
        for (int corner = 0; corner < 8; ++corner) {
            const Vec3f local{corner & 1 ? faceRest.hi.x : faceRest.lo.x,
                              corner & 2 ? faceRest.hi.y : faceRest.lo.y,
                              corner & 4 ? faceRest.hi.z : faceRest.lo.z};
            face.expand(headXf.apply(local - headRest));
        }
        face.inflate(0.03f);
        out.faceBounds = face;
    }

    // Expression coefficient magnitudes: whether the warp acts at all,
    // and (maxWarp below) how far it can move a query.
    const float a0 = std::fabs(static_cast<float>(expr.coeffs[0]));
    const float a1 = std::fabs(static_cast<float>(expr.coeffs[1]));
    const float a2 = std::fabs(static_cast<float>(expr.coeffs[2]));
    const float a3 = std::fabs(static_cast<float>(expr.coeffs[3]));
    const bool hasExpression = a0 > 0.0f || a1 > 0.0f || a2 > 0.0f || a3 > 0.0f;

    out.field = [capsules = out.capsules, prune, expr, hasExpression, headXf,
                 headInv, headRest, rootInv, options,
                 stats = out.stats](Vec3f p) {
        Vec3f q = p;
        if (hasExpression) {
            const Vec3f pHeadLocal = headInv.apply(p) + headRest;
            const Vec3f offset = expressionOffset(pHeadLocal, expr);
            if (offset.norm2() > 0.0f) q = p - headXf.applyVector(offset);
        }
        float d = std::numeric_limits<float>::max();
        std::uint32_t blended = 0;
        std::uint32_t pruned = 0;
        for (std::size_t i = 0; i < capsules.size(); ++i) {
            if (options.bonePruning) {
                const BonePruneData& bd = prune[i];
                const float t = d + kFieldBlend + bd.rmax;
                if (t < 0.0f || aabbDistance2(q, bd.lo, bd.hi) > t * t) {
                    ++pruned;
                    continue;
                }
            }
            d = smin(d, capsuleDistance(capsules[i], q), kFieldBlend);
            ++blended;
        }
        if (options.clothingDetail)
            d += clothingFoldDisplacement(rootInv.apply(p),
                                          options.clothingAmplitude);
        stats->add(blended, pruned);
        return d;
    };

    // SoA batch evaluator: same math, eight lanes at a time. The kernel
    // mirrors the closure above operation for operation, so batch and
    // per-point results are bit-identical (the test suites assert this).
    {
        auto data = std::make_shared<detail::BodyBatchData>();
        data->count = out.capsules.size();
        for (const PosedCapsule& b : out.capsules) {
            data->ax.push_back(b.a.x);
            data->ay.push_back(b.a.y);
            data->az.push_back(b.a.z);
            data->bx.push_back(b.b.x);
            data->by.push_back(b.b.y);
            data->bz.push_back(b.b.z);
            const Vec3f ab = b.b - b.a;
            data->abx.push_back(ab.x);
            data->aby.push_back(ab.y);
            data->abz.push_back(ab.z);
            data->len2.push_back(ab.norm2());
            data->ra.push_back(b.ra);
            data->drr.push_back(b.rb - b.ra);
            data->rmin.push_back(std::min(b.ra, b.rb));
        }
        for (const BonePruneData& bd : prune) {
            data->lox.push_back(bd.lo.x);
            data->loy.push_back(bd.lo.y);
            data->loz.push_back(bd.lo.z);
            data->hix.push_back(bd.hi.x);
            data->hiy.push_back(bd.hi.y);
            data->hiz.push_back(bd.hi.z);
            data->rmax.push_back(bd.rmax);
        }
        data->bonePruning = options.bonePruning;
        data->hasExpression = hasExpression;
        data->expr = expr;
        data->faceBounds = out.faceBounds;
        data->headXf = headXf;
        data->headInv = headInv;
        data->headRest = headRest;
        data->clothingDetail = options.clothingDetail;
        data->clothingAmplitude = options.clothingAmplitude;
        data->rootInv = rootInv;
        const BatchKernel kernel = pickBatchKernel();
        out.batch = [data, kernel, stats = out.stats](
                        const float* xs, const float* ys, const float* zs,
                        float* vals, std::size_t n) {
            std::uint64_t blended = 0;
            std::uint64_t pruned = 0;
            kernel(*data, xs, ys, zs, vals, n, blended, pruned);
            stats->add(static_cast<std::uint32_t>(blended),
                       static_cast<std::uint32_t>(pruned));
        };
    }

    // Analytic block certificate. For any query q in the region, the
    // per-capsule bounds give
    //   capsuleRange_i.lower <= capsuleDistance_i(q) <= capsuleRange_i.upper
    // and the smooth-min fold satisfies min_i - kFieldBlend <= f <= min_i,
    // so one pass over the capsules brackets f over the whole box. The
    // expression warp shifts the query by at most 'maxWarp' but only for
    // points inside the face region, and the clothing displacement adds
    // at most its amplitude: both widen the bracket only when they can
    // apply. No global cone-slope constant ever enters, which is what
    // keeps the shell of unskippable blocks thin for expressive poses.
    const float maxWarp =
        0.02f * a0 + 0.015f * a1 + 0.012f * a2 + 0.008f * a3;
    const float clothingSlack =
        options.clothingDetail ? options.clothingAmplitude : 0.0f;
    out.certificate = [capsules = out.capsules, face = out.faceBounds, maxWarp,
                       clothingSlack](const geom::AABB& region) -> bool {
        float clear = clothingSlack + 1e-4f;
        if (maxWarp > 0.0f && region.intersects(face)) clear += maxWarp;
        float lb = std::numeric_limits<float>::max();  // min_i capsule lower bound
        float ub = std::numeric_limits<float>::max();  // min_i capsule upper bound
        for (const PosedCapsule& c : capsules) {
            const CapsuleRange range = capsuleRange(c, region);
            lb = std::min(lb, range.lower);
            ub = std::min(ub, range.upper);
        }
        // Exterior: f >= lb - kFieldBlend > 0 over the box.
        if (lb - kFieldBlend > clear) return true;
        // Interior: f <= ub < 0 over the box.
        if (ub < -clear) return true;
        return false;
    };
    return out;
}

BodyModel::BodyModel(const ShapeParams& shape, int templateResolution) : shape_(shape) {
    Pose rest;
    rest.shape = shape;
    restState_ = forwardKinematics(rest);
    // The capture-quality template carries clothing-fold detail that
    // keypoint-based reconstruction cannot represent (Figure 2 gap).
    BodyFieldOptions fieldOpt;
    fieldOpt.clothingDetail = true;
    // Bone pruning off: the template feeds byte-exact payload-size
    // expectations downstream, so sampling must fold every capsule, bit
    // for bit. Certified block skipping and the worker pool are
    // value-preserving, so they stay on.
    fieldOpt.bonePruning = false;
    const BodyField body = makeBodyField(rest, fieldOpt);
    mesh::FieldSampleOptions sampling;
    sampling.pool = &core::sharedPool();
    sampling.certificate = body.certificate;
    // The batch evaluator is the field's bit-identical SoA companion, so
    // routing sampled blocks through it keeps the byte-exact guarantee.
    sampling.batch = body.batch;
    template_ = mesh::extractIsoSurface(body.field, body.bounds,
                                        templateResolution, {}, sampling);
    computeSkinWeights();
    paintTexture();
}

void BodyModel::computeSkinWeights() {
    const auto& bones = canonicalBones();
    const float g = girth(shape_);
    weights_.resize(template_.vertexCount());
    for (std::size_t vi = 0; vi < template_.vertexCount(); ++vi) {
        const Vec3f v = template_.vertices[vi];
        // Distance to each bone's surface; keep the best four.
        std::array<std::pair<float, std::uint16_t>, 4> best;
        best.fill({std::numeric_limits<float>::max(), 0});
        for (const Bone& bone : bones) {
            const Vec3f a = restState_.worldFromJoint[index(bone.parent)].translation;
            const Vec3f b = restState_.worldFromJoint[index(bone.child)].translation;
            const float d = std::max(
                0.0f, capsuleDistance({a, b, bone.radiusAtParent * g,
                                       bone.radiusAtChild * g},
                                      v));
            // Weight attaches to the child joint (the bone's own joint).
            const auto j = static_cast<std::uint16_t>(index(bone.child));
            if (d < best[3].first) {
                best[3] = {d, j};
                std::sort(best.begin(), best.end(),
                          [](const auto& x, const auto& y) { return x.first < y.first; });
            }
        }
        SkinWeights w;
        float total = 0.0f;
        const float sigma = 0.07f;
        for (std::size_t k = 0; k < 4; ++k) {
            const float wk = std::exp(-best[k].first * best[k].first / (sigma * sigma));
            w.joints[k] = best[k].second;
            w.weights[k] = wk;
            total += wk;
        }
        if (total < 1e-9f) {
            w.weights = {1, 0, 0, 0};
        } else {
            for (float& wk : w.weights) wk /= total;
        }
        weights_[vi] = w;
    }
}

Vec3f groundTruthAlbedo(Vec3f p) {
    // Skin / clothing bands with high-frequency detail so texture error is
    // measurable: shirt between shoulders and hips, trousers below, skin
    // elsewhere; stripes give the "folds" detail the learned texture loses.
    const Vec3f skin{0.87f, 0.67f, 0.53f};
    const Vec3f shirt{0.20f, 0.35f, 0.65f};
    const Vec3f trousers{0.25f, 0.22f, 0.20f};
    Vec3f base = skin;
    if (p.y < -0.05f && p.y > -0.95f) base = trousers;
    if (p.y >= -0.05f && p.y < 0.42f && std::fabs(p.x) < 0.35f) base = shirt;
    // High-frequency stripe detail (simulates cloth folds).
    const float stripes = 0.06f * std::sin(60.0f * p.y) * std::sin(40.0f * p.x);
    return {geom::clamp(base.x + stripes, 0.0f, 1.0f),
            geom::clamp(base.y + stripes, 0.0f, 1.0f),
            geom::clamp(base.z + stripes, 0.0f, 1.0f)};
}

void BodyModel::paintTexture() {
    template_.colors.resize(template_.vertexCount());
    for (std::size_t i = 0; i < template_.vertexCount(); ++i)
        template_.colors[i] = groundTruthAlbedo(template_.vertices[i]);
}

TriMesh BodyModel::deform(const Pose& pose) const {
    TriMesh out = template_;
    const SkeletonState state = forwardKinematics(pose);

    // Per-joint skinning transforms: world(pose) * world(rest)^-1.
    std::array<RigidTransform, kJointCount> skin;
    for (std::size_t j = 0; j < kJointCount; ++j)
        skin[j] = state.worldFromJoint[j] * restState_.worldFromJoint[j].inverse();

    for (std::size_t vi = 0; vi < out.vertexCount(); ++vi) {
        const Vec3f rest = template_.vertices[vi] +
                           expressionOffset(template_.vertices[vi], pose.expression);
        const SkinWeights& w = weights_[vi];
        Vec3f blended{};
        for (std::size_t k = 0; k < 4; ++k) {
            if (w.weights[k] <= 0.0f) continue;
            blended += skin[w.joints[k]].apply(rest) * w.weights[k];
        }
        out.vertices[vi] = blended;
    }
    out.computeVertexNormals();
    return out;
}

}  // namespace semholo::body
