#include "semholo/body/body_model.hpp"

#include <gtest/gtest.h>

#include <random>

#include "semholo/body/animation.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "semholo/mesh/metrics.hpp"
#include "semholo/mesh/sampling.hpp"

namespace semholo::body {
namespace {

// Template construction is expensive; share one across tests.
const BodyModel& sharedModel() {
    static const BodyModel model{ShapeParams{}, 72};
    return model;
}

TEST(BodySignedDistance, NegativeInsidePositiveOutside) {
    const Pose rest;
    const auto sdf = makeBodyField(rest, {.bonePruning = false}).field;
    // Torso centre is inside.
    EXPECT_LT(sdf({0.0f, 0.2f, 0.0f}), 0.0f);
    // Head centre is inside.
    EXPECT_LT(sdf({0.0f, 0.62f, 0.0f}), 0.0f);
    // Far away is outside.
    EXPECT_GT(sdf({2.0f, 0.0f, 0.0f}), 0.5f);
    EXPECT_GT(sdf({0.0f, 3.0f, 0.0f}), 0.5f);
}

TEST(BodySignedDistance, TracksPose) {
    Pose bent;
    bent.rotation(JointId::LeftElbow) = {0, 0, -1.4f};
    const auto sdfRest = makeBodyField(Pose{}, {.bonePruning = false}).field;
    const auto sdfBent = makeBodyField(bent, {.bonePruning = false}).field;
    // The rest-pose wrist location is inside at rest but empties out when
    // the elbow bends.
    const Vec3f wristRest = Skeleton::canonical().restPosition(JointId::LeftWrist);
    EXPECT_LT(sdfRest(wristRest), 0.01f);
    EXPECT_GT(sdfBent(wristRest), 0.02f);
}

TEST(CapsuleBounds, UpperBoundHoldsForTaperedCapsule) {
    // A cone tapering from ra = 0.5 to a point: at q the nearest segment
    // point is the midpoint, where the lerped radius is 0.25, so the
    // distance is 0.6 - 0.25 = 0.35. Pairing each endpoint with its own
    // radius would claim min(|q-a| - 0.5, |q-b| - 0) = 0.281 — below
    // the true distance, which let the interior certificate fire early.
    const PosedCapsule c{{0.0f, 0.0f, 0.0f}, {1.0f, 0.0f, 0.0f}, 0.5f, 0.0f};
    const Vec3f q{0.5f, 0.6f, 0.0f};
    EXPECT_NEAR(capsuleDistance(c, q), 0.35f, 1e-6f);
    const CapsuleRange range = capsuleRange(c, {q, q});
    EXPECT_GE(range.upper, capsuleDistance(c, q));
    EXPECT_LE(range.lower, capsuleDistance(c, q));
    // At one point both bounds use the exact segment distance, 0.6.
    EXPECT_NEAR(range.upper, 0.6f, 1e-6f);
    EXPECT_NEAR(range.lower, 0.1f, 1e-6f);
}

TEST(CapsuleBounds, BracketDistanceForRandomTaperedCapsules) {
    // Random tapered capsules and random boxes, from single points to
    // boxes larger than the capsule: every probe inside the box, corners
    // included, has its capsule distance between the box's bounds.
    std::mt19937 rng(11);
    std::uniform_real_distribution<float> coord(-1.0f, 1.0f);
    std::uniform_real_distribution<float> radius(0.0f, 0.4f);
    std::uniform_real_distribution<float> u01(0.0f, 1.0f);
    for (int i = 0; i < 20000; ++i) {
        const PosedCapsule c{{coord(rng), coord(rng), coord(rng)},
                             {coord(rng), coord(rng), coord(rng)},
                             radius(rng), radius(rng)};
        const Vec3f mid{2.0f * coord(rng), 2.0f * coord(rng), 2.0f * coord(rng)};
        const float scale = i % 4 == 0 ? 0.0f : 0.6f * u01(rng);
        const Vec3f half{scale * u01(rng), scale * u01(rng), scale * u01(rng)};
        const geom::AABB box{mid - half, mid + half};
        const CapsuleRange range = capsuleRange(c, box);
        for (int probe = 0; probe < 12; ++probe) {
            const Vec3f p =
                probe < 8 ? Vec3f{probe & 1 ? box.hi.x : box.lo.x,
                                  probe & 2 ? box.hi.y : box.lo.y,
                                  probe & 4 ? box.hi.z : box.lo.z}
                          : Vec3f{box.lo.x + (box.hi.x - box.lo.x) * u01(rng),
                                  box.lo.y + (box.hi.y - box.lo.y) * u01(rng),
                                  box.lo.z + (box.hi.z - box.lo.z) * u01(rng)};
            const float d = capsuleDistance(c, p);
            ASSERT_LE(range.lower, d + 1e-5f) << "sample " << i << " probe " << probe;
            ASSERT_GE(range.upper, d - 1e-5f) << "sample " << i << " probe " << probe;
        }
    }
}

TEST(BodyField, ExpressionWarpVanishesOutsideFaceBounds) {
    // The batch kernel skips the expression warp for point chunks that
    // miss faceBounds, so the warp offset must be exactly zero there —
    // also for a tilted head and saturated expression coefficients.
    std::vector<Pose> poses = {MotionGenerator(MotionKind::Talk).poseAt(0.5),
                               MotionGenerator(MotionKind::Talk).poseAt(1.7)};
    Pose extreme = MotionGenerator(MotionKind::Wave).poseAt(0.9);
    for (std::size_t k = 0; k < 4; ++k) extreme.expression.coeffs[k] = 1.0;
    poses.push_back(extreme);
    std::mt19937 rng(13);
    for (const Pose& pose : poses) {
        const BodyField body = makeBodyField(pose);
        const RigidTransform headInv =
            forwardKinematics(pose, Skeleton::canonical())
                .worldFromJoint[index(JointId::Head)]
                .inverse();
        const Vec3f headRest = Skeleton::canonical().restPosition(JointId::Head);
        geom::AABB around = body.faceBounds;
        around.inflate(0.1f);
        std::uniform_real_distribution<float> ux(around.lo.x, around.hi.x);
        std::uniform_real_distribution<float> uy(around.lo.y, around.hi.y);
        std::uniform_real_distribution<float> uz(around.lo.z, around.hi.z);
        int outside = 0;
        for (int i = 0; i < 20000; ++i) {
            const Vec3f p{ux(rng), uy(rng), uz(rng)};
            if (body.faceBounds.contains(p)) continue;
            ++outside;
            const Vec3f offset =
                expressionOffset(headInv.apply(p) + headRest, pose.expression);
            ASSERT_EQ(offset.norm2(), 0.0f) << "sample " << i;
        }
        EXPECT_GT(outside, 10000);
    }
}

TEST(BodyBounds, ContainsAllKeypoints) {
    const MotionGenerator gen(MotionKind::Collaborate);
    for (double t : {0.0, 1.0, 3.0, 5.0}) {
        const Pose p = gen.poseAt(t);
        const auto box = makeBodyField(p).bounds;
        for (const Vec3f& kp : jointKeypoints(p)) EXPECT_TRUE(box.contains(kp));
    }
}

TEST(BodyModel, TemplateIsClosedAndHumanSized) {
    const TriMesh& tmpl = sharedModel().templateMesh();
    ASSERT_GT(tmpl.triangleCount(), 1000u);
    EXPECT_EQ(tmpl.countBoundaryEdges(), 0u);
    const auto box = tmpl.bounds();
    // Standing human: ~1.7 m tall, arm span ~1.5+ m in T-pose.
    EXPECT_GT(box.extent().y, 1.4f);
    EXPECT_GT(box.extent().x, 1.2f);
}

TEST(BodyModel, TemplateHasTexture) {
    const TriMesh& tmpl = sharedModel().templateMesh();
    ASSERT_TRUE(tmpl.hasColors());
    // The texture must not be constant (skin + clothes bands).
    Vec3f lo{1, 1, 1}, hi{0, 0, 0};
    for (const Vec3f& c : tmpl.colors) {
        lo = {std::min(lo.x, c.x), std::min(lo.y, c.y), std::min(lo.z, c.z)};
        hi = {std::max(hi.x, c.x), std::max(hi.y, c.y), std::max(hi.z, c.z)};
    }
    EXPECT_GT((hi - lo).norm(), 0.3f);
}

TEST(BodyModel, SkinWeightsNormalized) {
    for (const SkinWeights& w : sharedModel().skinWeights()) {
        float sum = 0.0f;
        for (const float wk : w.weights) {
            EXPECT_GE(wk, 0.0f);
            sum += wk;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
        for (const std::uint16_t j : w.joints) EXPECT_LT(j, kJointCount);
    }
}

TEST(BodyModel, DeformAtRestIsNearTemplate) {
    const BodyModel& model = sharedModel();
    Pose rest;
    rest.shape = model.shape();
    const TriMesh deformed = model.deform(rest);
    ASSERT_EQ(deformed.vertexCount(), model.templateMesh().vertexCount());
    double maxDrift = 0.0;
    for (std::size_t i = 0; i < deformed.vertexCount(); ++i)
        maxDrift = std::max(
            maxDrift, static_cast<double>(
                          (deformed.vertices[i] - model.templateMesh().vertices[i])
                              .norm()));
    EXPECT_LT(maxDrift, 1e-4);
}

TEST(BodyModel, DeformMovesArmWithElbow) {
    const BodyModel& model = sharedModel();
    Pose bent;
    bent.shape = model.shape();
    bent.rotation(JointId::LeftElbow) = {0, 0, -1.4f};
    const TriMesh deformed = model.deform(bent);

    // Vertices near the rest wrist should move; torso should not.
    const Vec3f wrist = Skeleton::canonical().restPosition(JointId::LeftWrist);
    const Vec3f chest{0.0f, 0.3f, 0.0f};
    double wristMove = 0.0, chestMove = 0.0;
    std::size_t wristN = 0, chestN = 0;
    for (std::size_t i = 0; i < deformed.vertexCount(); ++i) {
        const Vec3f& rest = model.templateMesh().vertices[i];
        const double move = (deformed.vertices[i] - rest).norm();
        if ((rest - wrist).norm() < 0.08f) {
            wristMove += move;
            ++wristN;
        }
        if ((rest - chest).norm() < 0.12f) {
            chestMove += move;
            ++chestN;
        }
    }
    ASSERT_GT(wristN, 0u);
    ASSERT_GT(chestN, 0u);
    EXPECT_GT(wristMove / static_cast<double>(wristN), 0.05);
    EXPECT_LT(chestMove / static_cast<double>(chestN), 0.02);
}

TEST(BodyModel, DeformedMeshStaysNearImplicitSurface) {
    // The LBS-deformed template and the posed implicit field describe the
    // same body: sampled surface points should have small field values.
    const BodyModel& model = sharedModel();
    const MotionGenerator gen(MotionKind::Wave);
    const Pose p = gen.poseAt(0.4);
    const TriMesh deformed = model.deform(p);
    const auto sdf = makeBodyField(p, {.bonePruning = false}).field;
    const auto samples = mesh::sampleSurface(deformed, 400, 5);
    double meanAbs = 0.0;
    for (const Vec3f& s : samples.points) meanAbs += std::fabs(sdf(s));
    meanAbs /= static_cast<double>(samples.size());
    EXPECT_LT(meanAbs, 0.05);
}

TEST(ExpressionOffset, JawOpenPullsLowerFaceDown) {
    ExpressionParams expr;
    expr.coeffs[0] = 1.0;  // jaw open
    // Just below the mouth centre.
    const Vec3f lowerLip{0.0f, 0.645f, 0.10f};
    const Vec3f offset = expressionOffset(lowerLip, expr);
    EXPECT_LT(offset.y, 0.0f);
    // A point on the torso is unaffected.
    EXPECT_EQ(expressionOffset({0.0f, 0.0f, 0.1f}, expr), (Vec3f{}));
}

TEST(ExpressionOffset, PoutPushesLipsForward) {
    ExpressionParams expr;
    expr.coeffs[1] = 1.0;
    const Vec3f lips{0.0f, 0.66f, 0.10f};
    EXPECT_GT(expressionOffset(lips, expr).z, 0.0f);
}

TEST(ExpressionOffset, SmileSpreadsCornersOutward) {
    ExpressionParams expr;
    expr.coeffs[2] = 1.0;
    const Vec3f leftCorner{0.02f, 0.66f, 0.10f};
    const Vec3f rightCorner{-0.02f, 0.66f, 0.10f};
    EXPECT_GT(expressionOffset(leftCorner, expr).x, 0.0f);
    EXPECT_LT(expressionOffset(rightCorner, expr).x, 0.0f);
}

TEST(GroundTruthAlbedo, RegionsDiffer) {
    const Vec3f head = groundTruthAlbedo({0.0f, 0.7f, 0.05f});
    const Vec3f chest = groundTruthAlbedo({0.0f, 0.2f, 0.05f});
    const Vec3f leg = groundTruthAlbedo({0.05f, -0.5f, 0.0f});
    EXPECT_GT((head - chest).norm(), 0.2f);
    EXPECT_GT((chest - leg).norm(), 0.2f);
}

TEST(BodyModel, HigherResolutionTemplateHasMoreDetail) {
    const BodyModel lo(ShapeParams{}, 40);
    EXPECT_GT(sharedModel().templateMesh().vertexCount(),
              lo.templateMesh().vertexCount() * 2);
}

}  // namespace
}  // namespace semholo::body
