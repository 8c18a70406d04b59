// Telesurgery (section 1): a latency-critical session using the foveated
// hybrid channel of section 3.1. The remote surgeon's gaze is tracked;
// the region they look at streams as full-quality mesh while the
// periphery is reconstructed from keypoints. Demonstrates gaze
// classification, saccade landing prediction, and the foveal-radius
// trade-off under a tight latency budget.
#include <cstdio>

#include "semholo/core/qoe.hpp"
#include "semholo/core/session.hpp"
#include "semholo/gaze/foveation.hpp"

using namespace semholo;

int main() {
    std::printf("SemHolo telesurgery: foveated hybrid channel under a tight "
                "latency budget\n\n");

    // 1. The surgeon's gaze over the procedure.
    gaze::GazeModelConfig gazeCfg;
    gazeCfg.fixationMeanDurationS = 0.6;  // surgeons fixate long
    gazeCfg.saccadeMeanAmplitudeDeg = 6.0;
    const auto gazeStream = gaze::generateGazeStream(3.0, gazeCfg, 11);
    const auto events = gaze::classifyGaze(gazeStream);
    std::size_t fixations = 0, pursuits = 0, saccades = 0;
    for (const auto& e : events) {
        if (e.type == gaze::EyeMovement::Fixation) ++fixations;
        if (e.type == gaze::EyeMovement::SmoothPursuit) ++pursuits;
        if (e.type == gaze::EyeMovement::Saccade) ++saccades;
    }
    std::printf("gaze: %zu samples -> %zu fixations, %zu pursuits, %zu saccades\n",
                gazeStream.size(), fixations, pursuits, saccades);

    // 2. Saccade landing prediction accuracy (the hard gaze case).
    double predErr = 0.0, naiveErr = 0.0;
    int predicted = 0;
    for (const auto& e : events) {
        if (e.type != gaze::EyeMovement::Saccade || e.endIndex - e.beginIndex < 5)
            continue;
        const std::size_t mid = e.beginIndex + (e.endIndex - e.beginIndex) * 2 / 5;
        const auto pred = gaze::predictSaccadeLanding(gazeStream, e.beginIndex, mid);
        if (!pred.valid) continue;
        predErr += (pred.predicted - gazeStream[e.endIndex].angles).norm();
        naiveErr += (gazeStream[mid].angles - gazeStream[e.endIndex].angles).norm();
        ++predicted;
    }
    if (predicted > 0)
        std::printf("saccade landing prediction: %.1f deg error vs %.1f deg for "
                    "no-prediction (over %d saccades)\n\n",
                    predErr / predicted, naiveErr / predicted, predicted);

    // 3. The operating-room link: metro fibre, 8 ms one way.
    const body::BodyModel model{body::ShapeParams{}};
    core::SessionConfig cfg;
    cfg.frames = 45;
    cfg.motion = body::MotionKind::Collaborate;  // instrument handling
    cfg.link.bandwidth = net::BandwidthTrace::constant(100e6);
    cfg.link.propagationDelayS = 0.008;
    cfg.qualityEvalInterval = 15;
    cfg.qualitySamples = 5000;

    std::printf("%-22s %10s %10s %12s %8s\n", "foveal radius", "Mbps", "e2e ms",
                "chamfer mm", "QoE");
    for (const double radius : {4.0, 7.5, 15.0}) {
        core::FoveatedOptions opt;
        opt.fovealRadiusDeg = radius;
        opt.peripheralResolution = 36;
        auto channel = core::makeFoveatedChannel(opt);
        const auto stats = core::runSession(*channel, model, cfg);
        const auto qoe = core::computeQoE(stats);
        std::printf("%-22.1f %10.2f %10.0f %12.2f %8.2f\n", radius,
                    stats.bandwidthMbps, stats.telemetry.e2eMs.mean(),
                    stats.meanChamfer * 1000.0,
                    qoe.mos);
    }

    std::printf(
        "\nThe foveal radius dials bandwidth against peripheral reconstruction\n"
        "cost (section 3.1); gaze prediction keeps the foveal region ahead of\n"
        "the surgeon's saccades.\n");
    return 0;
}
