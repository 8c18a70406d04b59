// Remote collaboration (the paper's section 1 motivating use case): two
// sites exchange keypoint semantics over a simulated broadband path
// while both participants gesture over a shared task. Prints live
// per-second statistics and the end-of-call summary for each direction.
#include <cstdio>

#include "semholo/core/qoe.hpp"
#include "semholo/core/session.hpp"

using namespace semholo;

namespace {

void report(const char* direction, const core::SessionStats& stats) {
    const auto qoe = core::computeQoE(stats);
    const core::telemetry::SessionTelemetry& t = stats.telemetry;
    std::printf("\n[%s]\n", direction);
    std::printf("  frames: %zu sent, %llu rendered (%llu dropped busy)\n",
                stats.frames.size(),
                static_cast<unsigned long long>(t.counters.framesDecoded),
                static_cast<unsigned long long>(t.counters.dropsAtSender +
                                                t.counters.dropsAtReceiver));
    std::printf("  bandwidth: %.2f Mbps (raw mesh would need ~95 Mbps)\n",
                stats.bandwidthMbps);
    std::printf("  latency: mean %.0f ms, p95 %.0f ms (interactive bound: 100 ms)\n",
                t.e2eMs.mean(), t.e2eMs.p95());
    std::printf("  pipeline: extract %.1f ms + network %.1f ms + reconstruct %.0f ms\n",
                t.encodeMs.mean(), t.transferMs.mean(), t.decodeMs.mean());
    std::printf("  quality: chamfer %.2f mm | QoE %.2f / 5\n",
                stats.meanChamfer * 1000.0, qoe.mos);
}

}  // namespace

int main() {
    std::printf("SemHolo remote collaboration: two sites, keypoint semantics\n");

    // Two different subjects.
    body::ShapeParams shapeA;  // default adult
    body::ShapeParams shapeB;
    shapeB.betas[0] = -1.5;  // shorter participant
    shapeB.betas[2] = 1.0;   // stockier
    const body::BodyModel alice(shapeA);
    const body::BodyModel bob(shapeB);

    // A transatlantic-ish broadband path: 25 Mbps, 45 ms one way, jitter.
    core::SessionConfig cfg;
    cfg.frames = 90;  // 3 seconds at 30 FPS
    cfg.motion = body::MotionKind::Collaborate;
    cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);
    cfg.link.propagationDelayS = 0.045;
    cfg.link.jitterStddevS = 0.004;
    cfg.link.lossRate = 0.002;
    cfg.qualityEvalInterval = 30;
    cfg.qualitySamples = 6000;

    core::KeypointChannelOptions chOpt;
    chOpt.reconResolution = 48;

    // Direction A -> B.
    cfg.motionSeed = 1;
    auto channelAB = core::makeKeypointChannel(chOpt);
    const auto statsAB = core::runSession(*channelAB, alice, cfg);
    report("alice -> bob", statsAB);

    // Direction B -> A (mirrors the structure, per Figure 1).
    cfg.motionSeed = 2;
    auto channelBA = core::makeKeypointChannel(chOpt);
    const auto statsBA = core::runSession(*channelBA, bob, cfg);
    report("bob -> alice", statsBA);

    std::printf(
        "\nBoth directions fit comfortably in broadband; latency is dominated\n"
        "by receiver-side reconstruction, the bottleneck the paper's research\n"
        "agenda (section 3.1) targets.\n");
    return 0;
}
