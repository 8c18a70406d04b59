#include "semholo/nerf/renderer.hpp"

#include <gtest/gtest.h>

#include "semholo/nerf/trainer.hpp"

#include "pinned_digest.hpp"

namespace semholo::nerf {
namespace {

using capture::RGBImage;
using geom::CameraIntrinsics;

// A tiny analytic scene: a glowing red ball of radius 0.5 at the origin,
// rendered by direct ray marching for ground truth.
RGBImage referenceBallImage(const Camera& cam) {
    RGBImage img(cam.intrinsics.width, cam.intrinsics.height);
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            const geom::Ray ray = cam.pixelRayWorld(
                {static_cast<float>(x) + 0.5f, static_cast<float>(y) + 0.5f});
            // Sphere intersection.
            const float b = 2.0f * ray.origin.dot(ray.direction);
            const float c = ray.origin.norm2() - 0.25f;
            const float disc = b * b - 4.0f * c;
            img.at(x, y) = disc > 0.0f ? geom::Vec3f{0.9f, 0.1f, 0.1f}
                                       : geom::Vec3f{0.0f, 0.0f, 0.0f};
        }
    }
    return img;
}

Camera ballCamera(float angle, int w = 24, int h = 18) {
    const geom::Vec3f eye{3.0f * std::sin(angle), 0.3f, 3.0f * std::cos(angle)};
    return Camera::lookAt(eye, {0, 0, 0}, {0, 1, 0},
                          CameraIntrinsics::fromFov(w, h, 0.7f));
}

TrainerConfig fastConfig() {
    TrainerConfig cfg;
    cfg.render.near = 1.5f;
    cfg.render.far = 4.5f;
    cfg.render.samplesPerRay = 16;
    cfg.raysPerStep = 64;
    cfg.adam.learningRate = 5e-3f;
    return cfg;
}

TEST(Renderer, EmptyFieldRendersBackground) {
    // A fresh field has near-uniform low density; with a bright
    // background, rays mostly pass through.
    RadianceField field;
    RenderOptions opt;
    opt.background = {0.2f, 0.4f, 0.6f};
    opt.samplesPerRay = 8;
    const geom::Vec3f c = renderRay(field, {{0, 0, -3}, {0, 0, 1}}, opt);
    EXPECT_TRUE(std::isfinite(c.x));
    EXPECT_GE(c.minCoeff(), 0.0f);
}

TEST(Renderer, RenderImageDimensions) {
    RadianceField field;
    RenderOptions opt;
    opt.samplesPerRay = 4;
    const Camera cam = ballCamera(0.0f, 16, 12);
    const RGBImage img = renderImage(field, cam, opt);
    EXPECT_EQ(img.width(), 16);
    EXPECT_EQ(img.height(), 12);
}

TEST(Renderer, TrainStepReducesLoss) {
    FieldConfig fc;
    fc.hiddenWidth = 24;
    fc.hiddenLayers = 2;
    fc.encodingLevels = 3;
    RadianceField field(fc);
    const TrainerConfig cfg = fastConfig();

    const Camera cam = ballCamera(0.0f);
    const RGBImage ref = referenceBallImage(cam);
    std::vector<TrainRay> rays;
    for (int y = 0; y < ref.height(); ++y)
        for (int x = 0; x < ref.width(); ++x)
            rays.push_back({cam.pixelRayWorld({static_cast<float>(x) + 0.5f,
                                               static_cast<float>(y) + 0.5f}),
                            ref.at(x, y)});

    double first = 0.0, last = 0.0;
    for (int step = 0; step < 60; ++step) {
        const double loss = trainStep(field, rays, cfg.render, cfg.adam);
        if (step == 0) first = loss;
        last = loss;
    }
    EXPECT_LT(last, first * 0.7);
}

TEST(Trainer, ColdStartLearnsScene) {
    FieldConfig fc;
    fc.hiddenWidth = 32;
    fc.hiddenLayers = 2;
    fc.encodingLevels = 3;
    RadianceField field(fc);
    NerfTrainer trainer(field, fastConfig());

    std::vector<TrainView> views;
    for (const float a : {0.0f, 2.1f, 4.2f})
        views.push_back({ballCamera(a), referenceBallImage(ballCamera(a))});

    const double psnrBefore = trainer.evaluatePSNR(views[0]);
    const auto stats = trainer.pretrain(views, 120);
    EXPECT_GT(stats.steps, 0);
    EXPECT_GT(stats.wallMs, 0.0);
    const double psnrAfter = trainer.evaluatePSNR(views[0]);
    EXPECT_GT(psnrAfter, psnrBefore + 2.0);  // clearly learned something
}

TEST(Trainer, ChangedPixelCountDetectsMotion) {
    RGBImage a(10, 10, {0.5f, 0.5f, 0.5f});
    RGBImage b = a;
    EXPECT_EQ(changedPixelCount(a, b, 0.02f), 0u);
    b.at(3, 4) = {1.0f, 0.5f, 0.5f};
    b.at(7, 1) = {0.0f, 0.5f, 0.5f};
    EXPECT_EQ(changedPixelCount(a, b, 0.02f), 2u);
    // Mismatched sizes: everything counts as changed.
    RGBImage c(4, 4);
    EXPECT_EQ(changedPixelCount(a, c, 0.02f), 16u);
}

TEST(Trainer, FineTuneOnChangesUsesOnlyChangedRays) {
    FieldConfig fc;
    fc.hiddenWidth = 16;
    fc.hiddenLayers = 2;
    fc.encodingLevels = 2;
    RadianceField field(fc);
    NerfTrainer trainer(field, fastConfig());

    const Camera cam = ballCamera(0.0f);
    RGBImage prev = referenceBallImage(cam);
    RGBImage cur = prev;
    // Change a small patch.
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 3; ++x) cur.at(x, y) = {0.0f, 1.0f, 0.0f};

    const auto stats =
        trainer.fineTuneOnChanges({{cam, prev}}, {{cam, cur}}, 5, 0.02f);
    EXPECT_EQ(stats.steps, 5);
    // Pool had only 9 rays; each step uses at most that many.
    EXPECT_LE(stats.raysUsed, 9u * 5u);
    EXPECT_GT(stats.raysUsed, 0u);
}

TEST(Trainer, NoChangesNoWork) {
    RadianceField field;
    NerfTrainer trainer(field, fastConfig());
    const Camera cam = ballCamera(0.0f);
    const RGBImage img = referenceBallImage(cam);
    const auto stats = trainer.fineTuneOnChanges({{cam, img}}, {{cam, img}}, 10);
    EXPECT_EQ(stats.steps, 0);
    EXPECT_EQ(stats.raysUsed, 0u);
}

TEST(Trainer, NarrowWidthFasterPerStep) {
    // Section 3.2: smaller sub-networks fine-tune faster. Compare wall
    // time of the same number of steps at 0.25 vs 1.0 width.
    FieldConfig fc;
    fc.hiddenWidth = 64;
    fc.hiddenLayers = 3;
    RadianceField field(fc);

    const Camera cam = ballCamera(0.0f);
    const RGBImage ref = referenceBallImage(cam);
    std::vector<TrainView> views{{cam, ref}};

    TrainerConfig narrowCfg = fastConfig();
    narrowCfg.render.widthFraction = 0.25f;
    TrainerConfig fullCfg = fastConfig();
    fullCfg.render.widthFraction = 1.0f;

    NerfTrainer narrow(field, narrowCfg);
    NerfTrainer full(field, fullCfg);
    const auto statsNarrow = narrow.pretrain(views, 10);
    const auto statsFull = full.pretrain(views, 10);
    EXPECT_LT(statsNarrow.wallMs, statsFull.wallMs);
}

TEST(Trainer, DefaultOutputsMatchPinnedDigest) {
    // Six Adam steps on the ball scene, then a short pre-train: every
    // step's loss and the trainer's final loss and PSNR. Recorded before
    // the Adam moment decays and epsilon became constants.
    FieldConfig fc;
    fc.hiddenWidth = 16;
    fc.hiddenLayers = 2;
    fc.encodingLevels = 3;
    RadianceField field(fc);
    const TrainerConfig cfg = fastConfig();
    const Camera cam = ballCamera(0.0f, 12, 9);
    const RGBImage ref = referenceBallImage(cam);
    std::vector<TrainRay> rays;
    for (int y = 0; y < ref.height(); ++y)
        for (int x = 0; x < ref.width(); ++x)
            rays.push_back({cam.pixelRayWorld({static_cast<float>(x) + 0.5f,
                                               static_cast<float>(y) + 0.5f}),
                            ref.at(x, y)});
    pinned::Digest d;
    for (int step = 0; step < 6; ++step)
        d.add(trainStep(field, rays, cfg.render, cfg.adam));

    RadianceField fresh(fc);
    NerfTrainer trainer(fresh, cfg);
    const std::vector<TrainView> views{{cam, ref}};
    d.add(trainer.pretrain(views, 8).finalLoss);
    d.add(trainer.evaluatePSNR(views[0]));
    EXPECT_EQ(d.h, 0x1c1817263f75412aull) << std::hex << d.h;
}

}  // namespace
}  // namespace semholo::nerf
