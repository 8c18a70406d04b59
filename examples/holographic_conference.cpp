// Holographic conference: six participants share one uplink. Compares
// five strategies for the same meeting — raw meshes, LOD-ABR meshes,
// LOD-ABR with the closed-loop degradation policy, LOD-ABR with the
// conference server's max-min bandwidth arbiter coordinating everyone's
// targets, and keypoint semantics — and prints who actually fits, plus
// how fairly the link was shared. This is the 6G telepresence vision of
// the paper's introduction, run end to end through the SFU conference
// engine (runConference): every user's policy observes its own link
// outcomes each capture tick, and the server fans the other five
// streams back out over per-viewer downlinks.
#include <cstdio>
#include <memory>

#include "semholo/core/conference.hpp"
#include "semholo/core/qoe.hpp"

using namespace semholo;

namespace {

struct Strategy {
    const char* label;
    std::function<std::unique_ptr<core::SemanticChannel>(const body::BodyModel&)>
        make;
    bool degradation{false};
    core::ArbiterStrategy arbiter{core::ArbiterStrategy::None};
};

std::unique_ptr<core::SemanticChannel> makeAbrChannel(const body::BodyModel&) {
    core::AdaptiveMeshOptions opt;
    opt.ladderTriangles = {800, 3000, 10000, 25000};
    return core::makeAdaptiveMeshChannel(opt);
}

}  // namespace

int main() {
    std::printf("SemHolo holographic conference: 6 participants, one 25 Mbps uplink\n\n");

    const body::BodyModel model{body::ShapeParams{}};
    constexpr std::size_t kUsers = 6;

    const std::vector<Strategy> strategies{
        {"raw mesh",
         [](const body::BodyModel&) {
             return core::makeTraditionalChannel({false, false});
         }},
        {"LOD-ABR mesh", makeAbrChannel},
        {"LOD-ABR + degradation", makeAbrChannel, true},
        {"LOD-ABR + arbiter", makeAbrChannel, true,
         core::ArbiterStrategy::MaxMin},
        {"keypoint semantics",
         [](const body::BodyModel&) {
             core::KeypointChannelOptions opt;
             opt.reconResolution = 32;
             return core::makeKeypointChannel(opt);
         }},
    };

    core::MultiSessionStats arbiterStats;
    std::printf("%-22s %14s %12s %14s %14s %10s\n", "strategy", "aggregate Mbps",
                "mean e2e ms", "within 150 ms", "frames rendered", "fairness");
    for (const Strategy& strategy : strategies) {
        core::ConferenceConfig conf;
        conf.session.frames = 15;
        conf.session.motion = body::MotionKind::Talk;
        conf.session.link.bandwidth = net::BandwidthTrace::constant(25e6);
        conf.session.link.propagationDelayS = 0.03;
        conf.session.link.queueCapacityBytes = 4 * 1024 * 1024;
        if (strategy.degradation) {
            conf.session.degradation.enabled = true;
            conf.session.degradation.maxLevel = 3;
            conf.session.degradation.downgradeAfter = 1;
            conf.session.degradation.upgradeAfter = 10;
        }
        conf.arbiter.strategy = strategy.arbiter;
        // Server fan-out: every viewer receives the other five streams
        // over a broadband downlink.
        conf.downlink.bandwidth = net::BandwidthTrace::constant(100e6);
        conf.downlink.queueCapacityBytes = 8 * 1024 * 1024;
        conf.participants.resize(kUsers);
        for (auto& p : conf.participants) p.channelFactory = strategy.make;

        const auto stats = core::runConference(conf, model);
        if (strategy.arbiter != core::ArbiterStrategy::None)
            arbiterStats = stats;
        const std::size_t rendered = stats.telemetry.counters.framesDecoded;
        std::printf("%-22s %14.2f %12.0f %11zu/%zu %13zu/%zu %10.3f\n",
                    strategy.label, stats.aggregateMbps, stats.telemetry.e2eMs.mean(),
                    stats.usersWithinLatency(150.0), kUsers, rendered,
                    kUsers * conf.session.frames, stats.fairnessIndex);
    }

    // Per-user fairness for the arbiter strategy: what uplink rate the
    // server asked each participant to hold, who backed off, and what
    // slice of the uplink each participant ended with.
    std::printf("\nLOD-ABR + max-min arbiter, per participant:\n");
    std::printf("%-6s %12s %12s %12s %8s %12s %10s\n", "user", "delivered",
                "target Mbps", "share", "e2e ms", "downs/ups", "final lvl");
    for (std::size_t u = 0; u < arbiterStats.fairness.size(); ++u) {
        const core::UserFairnessStats& f = arbiterStats.fairness[u];
        const core::telemetry::SessionTelemetry& t = arbiterStats.perUser[u].telemetry;
        std::printf("%-6zu %9llu/%llu %12.2f %12.2f %8.0f %9llu/%llu %10zu\n", u,
                    static_cast<unsigned long long>(t.counters.framesDelivered),
                    static_cast<unsigned long long>(t.counters.framesCaptured),
                    f.targetRateMbps, f.bandwidthShare, t.e2eMs.mean(),
                    static_cast<unsigned long long>(t.counters.degradations),
                    static_cast<unsigned long long>(t.counters.upgrades),
                    f.finalDegradationLevel);
    }

    // Downlink fan-out: how much the server pushed to each viewer (the
    // other five streams, thinned by that viewer's subscription ladder).
    std::printf("\nServer fan-out (arbiter run): %llu frames, %.2f MB total\n",
                static_cast<unsigned long long>(arbiterStats.serverFanoutFrames),
                static_cast<double>(arbiterStats.serverFanoutBytes) / 1e6);
    for (const core::DownlinkStats& d : arbiterStats.downlinks)
        std::printf("  viewer %zu: %zu/%zu frames delivered, share %.2f\n",
                    d.viewer, d.framesDelivered, d.framesForwarded,
                    d.fanoutShare);

    std::printf(
        "\nRaw meshes want %.0fx the uplink and stall for everyone; the LOD-ABR\n"
        "baseline survives by degrading geometry; the closed loop lets each\n"
        "participant shed quality against its observed link outcomes, and the\n"
        "bandwidth arbiter coordinates those loops so the link is split evenly\n"
        "instead of first-to-recover-wins; keypoint semantics carries all six\n"
        "participants in under a tenth of the link — the paper's argument for\n"
        "semantic holographic communication, at conference scale.\n",
        6.0 * 95.0 / 25.0);
    return 0;
}
