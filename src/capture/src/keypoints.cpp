#include "semholo/capture/keypoints.hpp"

#include <cmath>
#include <random>

#include "semholo/body/ik.hpp"

namespace semholo::capture {

namespace {

using body::jointKeypoints;
using geom::Vec2f;
using geom::Vec3f;

// Detector noise model. 2D detection error in pixels (per coordinate std dev).
constexpr float kPixelSigma = 2.0f;
// Additional metres of error introduced by the 2D->3D lifting net.
constexpr float kLiftingSigma = 0.015f;
// Direct-3D per-axis error in metres (depth-derived).
constexpr float kDirectSigma = 0.008f;
// Confidence decay with occlusion: a joint whose ground-truth position
// is behind the rendered depth by more than this margin is considered
// occluded in that view. Joint centres lie *inside* the body, so the
// margin must exceed the largest capsule radius (~0.12 m) plus sensor
// noise for a joint under its own surface to count as visible.
constexpr float kOcclusionMargin = 0.16f;
// Probability a visible joint still drops out (detector miss).
constexpr float kMissRate = 0.01f;

// Simulated per-frame inference cost model (milliseconds). Values follow
// published orders of magnitude on workstation GPUs.
constexpr double kDetect2dPerMegapixelMs = 18.0;  // OpenPose-class per view
constexpr double kLiftPerJointMs = 0.05;          // temporal-conv lifting
constexpr double kDirect3dPerMegapixelMs = 6.0;   // depth-based extraction
constexpr double kTriangulationPerJointMs = 0.002;
// Per-keypoint regression-head cost: richer keypoint sets (hands, face)
// need extra heads — the section 3.1 "intricate models" cost.
constexpr double kPerKeypointHeadMs = 0.08;

// Is the world point visible in this view (not occluded by the rendered
// depth and inside the image)?
bool visibleInView(const geom::Camera& camera, const DepthImage& depth, Vec3f world,
                   float margin) {
    Vec2f pix;
    float z;
    if (!camera.projectWorld(world, pix, z)) return false;
    if (!camera.intrinsics.inBounds(pix)) return false;
    const int x = static_cast<int>(pix.x);
    const int y = static_cast<int>(pix.y);
    const float zb = depth.at(x, y);
    if (zb <= 0.0f) return true;  // dropout: nothing to occlude against
    return z <= zb + margin;
}

}  // namespace

std::array<bool, kJointCount> keypointSetMask(KeypointSet set) {
    using body::JointId;
    using body::index;
    std::array<bool, kJointCount> mask{};
    // Body25: everything before the hands.
    for (std::size_t j = 0; j < body::kBodyJointCount; ++j) mask[j] = true;
    if (set == KeypointSet::Body25) return mask;
    // Extended40: add the five proximal finger joints of each hand and
    // both index tips (pointing matters for collaboration).
    if (set == KeypointSet::Extended40) {
        for (const JointId j :
             {JointId::LeftThumb1, JointId::LeftIndex1, JointId::LeftMiddle1,
              JointId::LeftRing1, JointId::LeftPinky1, JointId::LeftIndex3,
              JointId::RightThumb1, JointId::RightIndex1, JointId::RightMiddle1,
              JointId::RightRing1, JointId::RightPinky1, JointId::RightIndex3})
            mask[index(j)] = true;
        // Extended40 also refines the face anchors (already in the first
        // 25: jaw and eyes), plus three extra per-hand joints above make
        // 25 + 12 = 37; count name kept for the detector-family analogy.
        return mask;
    }
    mask.fill(true);
    return mask;
}

std::size_t keypointSetCount(KeypointSet set) {
    const auto mask = keypointSetMask(set);
    std::size_t n = 0;
    for (const bool b : mask)
        if (b) ++n;
    return n;
}

std::string_view keypointSetName(KeypointSet set) {
    switch (set) {
        case KeypointSet::Body25: return "body-25";
        case KeypointSet::Extended40: return "extended-40";
        case KeypointSet::Full55: return "full-55";
    }
    return "unknown";
}

KeypointObservation detectKeypoints2DLifted(const CaptureRig& rig,
                                            const std::vector<RGBDFrame>& frames,
                                            const body::Pose& groundTruth,
                                            std::uint64_t seed, KeypointSet set) {
    KeypointObservation obs;
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> gauss(0.0f, 1.0f);
    std::uniform_real_distribution<float> uni(0.0f, 1.0f);
    const auto gt = jointKeypoints(groundTruth);
    const auto& cameras = rig.cameras();
    const auto mask = keypointSetMask(set);

    double megapixels = 0.0;
    for (const auto& f : frames)
        megapixels += static_cast<double>(f.width()) * f.height() / 1e6;

    for (std::size_t j = 0; j < kJointCount; ++j) {
        if (!mask[j]) {
            obs.confidence[j] = 0.0f;
            continue;
        }
        // Collect per-view noisy 2D observations with occlusion tests.
        struct View2D {
            std::size_t cam;
            Vec2f pixel;
        };
        std::vector<View2D> views;
        for (std::size_t c = 0; c < cameras.size() && c < frames.size(); ++c) {
            if (!visibleInView(cameras[c], frames[c].depth, gt[j], kOcclusionMargin))
                continue;
            if (uni(rng) < kMissRate) continue;
            Vec2f pix;
            float z;
            if (!cameras[c].projectWorld(gt[j], pix, z)) continue;
            pix.x += gauss(rng) * kPixelSigma;
            pix.y += gauss(rng) * kPixelSigma;
            views.push_back({c, pix});
        }
        if (views.size() < 2) {
            obs.confidence[j] = 0.0f;  // triangulation impossible
            continue;
        }

        // Linear triangulation: least-squares intersection of the view
        // rays (closed form over ray closest points).
        Vec3f num{};
        geom::Mat3 denom = geom::Mat3::zero();
        for (const View2D& v : views) {
            const geom::Ray ray = cameras[v.cam].pixelRayWorld(v.pixel);
            const geom::Mat3 proj =
                geom::Mat3::identity() - geom::Mat3::outer(ray.direction, ray.direction);
            denom = denom + proj;
            num += proj * ray.origin;
        }
        const Vec3f triangulated = denom.inverse() * num;

        // Lifting-network error term (the paper's extra inference noise).
        const Vec3f lifted =
            triangulated + Vec3f{gauss(rng), gauss(rng), gauss(rng)} * kLiftingSigma;
        obs.positions[j] = lifted;
        obs.confidence[j] =
            static_cast<float>(views.size()) / static_cast<float>(cameras.size());
    }

    const auto joints = static_cast<double>(keypointSetCount(set));
    obs.simulatedLatencyMs =
        megapixels * kDetect2dPerMegapixelMs + joints * kLiftPerJointMs +
        joints * kTriangulationPerJointMs * static_cast<double>(cameras.size()) +
        joints * kPerKeypointHeadMs * static_cast<double>(cameras.size());
    return obs;
}

KeypointObservation detectKeypoints3DDirect(const CaptureRig& rig,
                                            const std::vector<RGBDFrame>& frames,
                                            const body::Pose& groundTruth,
                                            std::uint64_t seed, KeypointSet set) {
    KeypointObservation obs;
    std::mt19937_64 rng(seed ^ 0xD1CEB00Cull);
    std::normal_distribution<float> gauss(0.0f, 1.0f);
    std::uniform_real_distribution<float> uni(0.0f, 1.0f);
    const auto gt = jointKeypoints(groundTruth);
    const auto& cameras = rig.cameras();
    const auto mask = keypointSetMask(set);

    double megapixels = 0.0;
    for (const auto& f : frames)
        megapixels += static_cast<double>(f.width()) * f.height() / 1e6;

    for (std::size_t j = 0; j < kJointCount; ++j) {
        if (!mask[j]) {
            obs.confidence[j] = 0.0f;
            continue;
        }
        // Average the depth-derived estimates over views that see the joint.
        Vec3f sum{};
        int seen = 0;
        for (std::size_t c = 0; c < cameras.size() && c < frames.size(); ++c) {
            if (!visibleInView(cameras[c], frames[c].depth, gt[j], kOcclusionMargin))
                continue;
            if (uni(rng) < kMissRate) continue;
            sum += gt[j] + Vec3f{gauss(rng), gauss(rng), gauss(rng)} * kDirectSigma;
            ++seen;
        }
        if (seen == 0) {
            obs.confidence[j] = 0.0f;
            continue;
        }
        obs.positions[j] = sum / static_cast<float>(seen);
        obs.confidence[j] =
            static_cast<float>(seen) / static_cast<float>(cameras.size());
    }

    obs.simulatedLatencyMs =
        megapixels * kDirect3dPerMegapixelMs +
        static_cast<double>(keypointSetCount(set)) * kPerKeypointHeadMs;
    return obs;
}

double keypointError(const KeypointObservation& obs, const body::Pose& groundTruth) {
    const auto gt = jointKeypoints(groundTruth);
    double total = 0.0;
    int n = 0;
    for (std::size_t j = 0; j < kJointCount; ++j) {
        if (obs.confidence[j] < body::kKeypointMinConfidence) continue;
        total += (obs.positions[j] - gt[j]).norm();
        ++n;
    }
    return n > 0 ? total / n : 0.0;
}

}  // namespace semholo::capture
