// Ablation I: multi-user scaling over a shared bottleneck — how many
// telepresence participants fit through one uplink per semantic type.
// The multi-user volumetric delivery literature the paper cites ([105],
// [106]) motivates exactly this: traditional mesh streams collide at 2-3
// users on broadband, keypoint streams scale to rooms full of people.
//
// This bench drives the conference engine through the ConferenceConfig
// API: participants are data (one ChannelSpec per row), every row runs
// under the deterministic timing model so the serial (workers=1) and
// parallel (workers=N) engines are byte-identical, and the 8-user row is
// re-run at both worker counts to report the engine's wall-clock
// speedup. A congested conference section then runs adaptive-mesh
// participants through a faulty 8 Mbps bottleneck with closed-loop
// degradation off and on, reporting per-user fairness (delivery ratio,
// bandwidth share, ladder transitions) from the per-tick feedback
// scheduler. Per-stage telemetry (p50/p95/p99 plus
// drop/retransmission/queue counters) is exported to
// BENCH_multiuser.json.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "semholo/core/conference.hpp"
#include "semholo/core/thread_pool.hpp"

using namespace semholo;

namespace {

struct Workload {
    const char* label;
    core::ChannelSpec spec;
};

// A conference of 'users' identical participants publishing 'spec'.
core::ConferenceConfig makeConference(const core::ChannelSpec& spec,
                                      std::size_t users,
                                      const core::SessionConfig& session) {
    core::ConferenceConfig conf;
    conf.session = session;
    conf.enableDownlinks = false;  // uplink-scaling ablation
    conf.participants.resize(users);
    for (auto& p : conf.participants) p.channel = spec;
    return conf;
}

double nowMs() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

int main() {
    bench::banner("Ablation I: participants per shared 25 Mbps uplink");

    const body::BodyModel model(body::ShapeParams{}, 48);

    // The sweep is data: add a row here to add a channel configuration.
    const std::vector<Workload> workloads{
        {"keypoint", {"keypoint", {{"reconResolution", 24}}}},
        {"traditional", {"traditional", {{"compress", 1}, {"withColors", 0}}}},
    };

    core::SessionConfig cfg;
    cfg.frames = 12;
    cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);
    cfg.link.queueCapacityBytes = 2 * 1024 * 1024;
    // Deterministic pipeline clocks: identical drop/delivery sequences
    // at any worker count, so rows are reproducible and the speedup
    // comparison below is apples-to-apples.
    cfg.timing = core::TimingModel::Simulated;

    core::telemetry::JsonWriter json;
    json.beginObject();
    json.field("schema_version", core::telemetry::kBenchSchemaVersion);
    json.field("bench", std::string("ablation_multiuser"));
    json.field("hardware_workers",
               static_cast<std::uint64_t>(core::ThreadPool::defaultWorkers()));
    json.beginArray("rows");

    bench::Table table({"channel", "users", "aggregate Mbps", "mean e2e ms",
                        "users <= 150 ms"});
    for (const Workload& workload : workloads) {
        for (const std::size_t users : {1u, 2u, 4u, 8u}) {
            const auto stats =
                core::runConference(makeConference(workload.spec, users, cfg),
                                    model);
            table.addRow({workload.label, std::to_string(users),
                          bench::fmt("%.2f", stats.aggregateMbps),
                          bench::fmt("%.0f", stats.telemetry.e2eMs.mean()),
                          std::to_string(stats.usersWithinLatency(150.0)) + "/" +
                              std::to_string(users)});
            json.beginObject()
                .field("channel", std::string(workload.label))
                .field("users", static_cast<std::uint64_t>(users))
                .field("aggregate_mbps", stats.aggregateMbps)
                .field("mean_e2e_ms", stats.telemetry.e2eMs.mean())
                .raw("telemetry", core::telemetry::toJsonValue(stats.telemetry))
                .endObject();
        }
    }
    table.print();

    // Engine speedup: the 8-user keypoint row, serial vs parallel. The
    // deterministic clocks mean both runs produce byte-identical
    // per-frame sequences — verified below — so the only difference is
    // wall time.
    const std::size_t speedupUsers = 8;
    const std::size_t parallelWorkers =
        std::max<std::size_t>(4, core::ThreadPool::defaultWorkers());
    core::MultiSessionStats serialStats, parallelStats;
    double serialMs = 0.0, parallelMs = 0.0;
    {
        cfg.workers = 1;
        const double t0 = nowMs();
        serialStats = core::runConference(
            makeConference(workloads[0].spec, speedupUsers, cfg), model);
        serialMs = nowMs() - t0;
    }
    {
        cfg.workers = parallelWorkers;
        const double t0 = nowMs();
        parallelStats = core::runConference(
            makeConference(workloads[0].spec, speedupUsers, cfg), model);
        parallelMs = nowMs() - t0;
    }
    const bool identical = bench::sameFrames(serialStats, parallelStats);
    const double speedup = parallelMs > 0.0 ? serialMs / parallelMs : 0.0;
    std::printf(
        "\nEngine: %zu users, workers=1 %.0f ms vs workers=%zu %.0f ms -> "
        "%.2fx speedup (%zu hardware threads); sequences %s\n",
        speedupUsers, serialMs, parallelWorkers, parallelMs, speedup,
        core::ThreadPool::defaultWorkers(),
        identical ? "byte-identical" : "DIVERGED (engine bug)");

    // Congested conference: adaptive-mesh participants on a link too
    // narrow for everyone's top rung, with a scripted outage and a
    // bandwidth collapse. Run once with SessionConfig::degradation
    // disabled and once enabled: the per-tick feedback scheduler lets
    // every user's DegradationPolicy observe its own link outcomes, so
    // the enabled run sheds quality instead of frames.
    bench::banner("Congested conference: closed-loop degradation on/off");
    core::SessionConfig congested;
    congested.frames = 90;
    congested.fps = 30.0;
    congested.timing = core::TimingModel::Simulated;
    congested.transfer.reliable = false;
    congested.link.bandwidth = net::BandwidthTrace::constant(8e6);
    congested.link.propagationDelayS = 0.01;
    congested.link.jitterStddevS = 0.0;
    congested.link.queueCapacityBytes = 16 * 1024;
    congested.link.faults.outages.push_back({1.0, 0.5});
    congested.link.faults.collapses.push_back({2.0, 1.0, 0.08});

    const std::size_t confUsers = 3;
    core::AdaptiveMeshOptions meshOpt;
    meshOpt.ladderTriangles = {400, 1500, 6000};
    // ladderTriangles is vector-valued, which a ChannelSpec cannot carry
    // — this is what Participant::channelFactory is for.
    const auto adaptiveConference = [&](const core::SessionConfig& session) {
        core::ConferenceConfig conf;
        conf.session = session;
        conf.enableDownlinks = false;
        conf.participants.resize(confUsers);
        for (auto& p : conf.participants)
            p.channelFactory = [meshOpt](const body::BodyModel&) {
                return core::makeAdaptiveMeshChannel(meshOpt);
            };
        return conf;
    };

    core::MultiSessionStats confOff, confOn;
    confOff = core::runConference(adaptiveConference(congested), model);
    {
        core::SessionConfig withPolicy = congested;
        withPolicy.degradation.enabled = true;
        withPolicy.degradation.maxLevel = 3;
        withPolicy.degradation.downgradeAfter = 2;
        withPolicy.degradation.upgradeAfter = 8;
        confOn = core::runConference(adaptiveConference(withPolicy), model);
    }

    const auto deliveryRatio = [&](const core::MultiSessionStats& s) {
        return static_cast<double>(s.telemetry.counters.framesDelivered) /
               static_cast<double>(confUsers * congested.frames);
    };
    bench::Table confTable({"policy", "delivery", "aggregate Mbps",
                            "degradations", "fairness (Jain)"});
    const auto confRow = [&](const char* label,
                             const core::MultiSessionStats& s) {
        confTable.addRow(
            {label, bench::fmt("%.1f%%", deliveryRatio(s) * 100.0),
             bench::fmt("%.2f", s.aggregateMbps),
             std::to_string(s.telemetry.counters.degradations),
             bench::fmt("%.3f", s.fairnessIndex)});
    };
    confRow("off", confOff);
    confRow("on", confOn);
    confTable.print();

    bench::Table fairTable({"user", "delivered", "delivery", "Mbps", "share",
                            "degr", "upgr", "final lvl"});
    for (std::size_t u = 0; u < confOn.fairness.size(); ++u) {
        const core::UserFairnessStats& f = confOn.fairness[u];
        const core::SessionStats& s = confOn.perUser[u];
        const core::telemetry::Counters& c = s.telemetry.counters;
        fairTable.addRow({std::to_string(u),
                          std::to_string(c.framesDelivered) + "/" +
                              std::to_string(c.framesCaptured),
                          bench::fmt("%.1f%%", f.deliveryRatio * 100.0),
                          bench::fmt("%.2f", s.bandwidthMbps),
                          bench::fmt("%.2f", f.bandwidthShare),
                          std::to_string(c.degradations),
                          std::to_string(c.upgrades),
                          std::to_string(f.finalDegradationLevel)});
    }
    fairTable.print();

    bool adapted = confOn.telemetry.counters.degradations > 0 &&
                   deliveryRatio(confOn) > deliveryRatio(confOff);
    for (const core::SessionStats& s : confOn.perUser)
        adapted = adapted && s.telemetry.counters.degradations > 0;
    std::printf(
        "\nClosed loop %s: delivery %.1f%% -> %.1f%% with per-user "
        "degradation engaged for %zu/%zu users\n",
        adapted ? "engaged" : "FAILED TO ENGAGE (scheduler bug)",
        deliveryRatio(confOff) * 100.0, deliveryRatio(confOn) * 100.0,
        confOn.fairness.size(), confUsers);

    json.endArray();
    json.beginObject("congested_conference")
        .field("users", static_cast<std::uint64_t>(confUsers))
        .field("frames", static_cast<std::uint64_t>(congested.frames))
        .raw("degradation_off", core::toJsonValue(confOff))
        .raw("degradation_on", core::toJsonValue(confOn))
        .endObject();
    json.beginObject("speedup")
        .field("users", static_cast<std::uint64_t>(speedupUsers))
        .field("serial_ms", serialMs)
        .field("parallel_ms", parallelMs)
        .field("parallel_workers", static_cast<std::uint64_t>(parallelWorkers))
        .field("speedup", speedup)
        .field("sequences_identical", std::string(identical ? "yes" : "no"))
        .endObject();
    json.raw("telemetry_8user_parallel",
             core::telemetry::toJsonValue(parallelStats.telemetry));
    json.endObject();
    {
        std::FILE* f = std::fopen("BENCH_multiuser.json", "w");
        if (f != nullptr) {
            std::fputs(json.str().c_str(), f);
            std::fputs("\n", f);
            std::fclose(f);
            std::printf("wrote BENCH_multiuser.json\n");
        }
    }

    std::printf(
        "\nShape check: eight keypoint participants use ~2 Mbps aggregate and\n"
        "all meet the latency budget; two mesh participants already saturate\n"
        "the 25 Mbps uplink and latency collapses — semantic streams make\n"
        "multi-party holographic conferences feasible on today's links.\n");
    return identical && adapted ? 0 : 1;
}
