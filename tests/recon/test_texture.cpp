#include "semholo/recon/texture.hpp"

#include <gtest/gtest.h>

#include "semholo/body/body_model.hpp"
#include "semholo/recon/keypoint_recon.hpp"

#include "pinned_digest.hpp"

namespace semholo::recon {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 64};
    return model;
}

TEST(ProjectTexture, TransfersRegionColours) {
    const mesh::TriMesh& reference = sharedModel().templateMesh();
    ReconstructionOptions opt;
    opt.resolution = 48;
    auto recon = reconstructFromPose(body::Pose{}, opt);
    ASSERT_TRUE(recon.success);

    const double meanDist = projectTexture(recon.mesh, reference);
    ASSERT_TRUE(recon.mesh.hasColors());
    EXPECT_GT(meanDist, 0.0);
    EXPECT_LT(meanDist, 0.05);  // reconstruction is geometrically close

    // Head vertices get skin, thigh vertices get trousers.
    geom::Vec3f headColor{}, legColor{};
    int headN = 0, legN = 0;
    for (std::size_t i = 0; i < recon.mesh.vertexCount(); ++i) {
        const auto& v = recon.mesh.vertices[i];
        if (v.y > 0.6f) {
            headColor += recon.mesh.colors[i];
            ++headN;
        }
        if (v.y < -0.3f && v.y > -0.7f) {
            legColor += recon.mesh.colors[i];
            ++legN;
        }
    }
    ASSERT_GT(headN, 0);
    ASSERT_GT(legN, 0);
    headColor /= static_cast<float>(headN);
    legColor /= static_cast<float>(legN);
    EXPECT_GT((headColor - legColor).norm(), 0.2f);
}

TEST(ProjectTexture, NoColorsOnReferenceIsNoop) {
    mesh::TriMesh target = mesh::makeUVSphere(1.0f, 8, 16);
    const mesh::TriMesh plain = mesh::makeUVSphere(1.0f, 8, 16);
    EXPECT_DOUBLE_EQ(projectTexture(target, plain), 0.0);
    EXPECT_FALSE(target.hasColors());
}

TEST(LearnedTexture, LosesHighFrequencyDetail) {
    // Figure 3: the learned texture misses fine detail. The smoothed
    // (capacity-limited) texture must differ from the ground truth much
    // more than a re-projected texture does.
    mesh::TriMesh groundTruth = sharedModel().templateMesh();
    mesh::TriMesh learned = groundTruth;
    applyLearnedTexture(learned);
    const double learnedErr = colorError(groundTruth, learned);
    EXPECT_GT(learnedErr, 0.01);

    // But the learned texture still keeps the low-frequency regions: the
    // mean colour shift stays bounded.
    EXPECT_LT(learnedErr, 0.5);
}

TEST(LearnedTexture, LargerRadiusLosesMore) {
    mesh::TriMesh gt = sharedModel().templateMesh();
    mesh::TriMesh mild = gt, strong = gt;
    LearnedTextureOptions a, b;
    a.radiusFraction = 0.02f;
    b.radiusFraction = 0.08f;
    applyLearnedTexture(mild, a);
    applyLearnedTexture(strong, b);
    EXPECT_GT(colorError(gt, strong), colorError(gt, mild));
}

TEST(ColorError, IdenticalZeroDifferentPositive) {
    const mesh::TriMesh& m = sharedModel().templateMesh();
    EXPECT_DOUBLE_EQ(colorError(m, m), 0.0);
    mesh::TriMesh shifted = m;
    for (auto& c : shifted.colors) c.x = geom::clamp(c.x + 0.2f, 0.0f, 1.0f);
    EXPECT_GT(colorError(m, shifted), 0.1);
}

TEST(ColorError, MismatchedLayoutsSafe) {
    const mesh::TriMesh a = mesh::makeUVSphere(1.0f, 8, 16);
    const mesh::TriMesh b = mesh::makeUVSphere(1.0f, 4, 8);
    EXPECT_DOUBLE_EQ(colorError(a, b), 0.0);
}

TEST(LearnedTexture, DefaultOutputsMatchPinnedDigest) {
    // The capacity-limited texture on the coloured template: every
    // smoothed vertex colour. Recorded before the neighbour cap became a
    // constant.
    mesh::TriMesh textured = sharedModel().templateMesh();
    ASSERT_TRUE(textured.hasColors());
    applyLearnedTexture(textured);
    pinned::Digest d;
    d.add(textured.colors);
    EXPECT_EQ(d.h, 0xc1287322865d4030ull) << std::hex << d.h;
}

}  // namespace
}  // namespace semholo::recon
