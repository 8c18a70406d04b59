// Event-driven stage-graph conference runtime: the straggler scenario
// (heterogeneous per-user encode/decode costs over synthetic channels)
// must stay byte-identical between the serial and pipelined executors at
// every worker count and pipeline depth, and the deterministic schedule
// comparison must show the stage graph strictly beating the legacy
// per-tick barrier on exactly that scenario. Also covers the pipeline
// telemetry surfaced through MultiSessionStats::pipeline.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "semholo/core/conference.hpp"
#include "semholo/core/thread_pool.hpp"
#include "stage_graph.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 24};
    return model;
}

// A straggler mix: one encode-heavy user, one decode-heavy user, two in
// between. Under the legacy barrier every tick costs max(enc) + max(dec)
// regardless of who is slow where; the stage graph de-staggers the
// per-user chains, whose worst cost is only max(enc_u + dec_u).
struct UserCost {
    double extractMs;
    double reconMs;
};
const std::vector<UserCost>& stragglerCosts() {
    static const std::vector<UserCost> costs{
        {12.0, 2.0}, {2.0, 12.0}, {6.0, 6.0}, {3.0, 3.0}};
    return costs;
}

ConferenceConfig stragglerConference(std::size_t workers, std::size_t depth) {
    ConferenceConfig conf;
    conf.session.frames = 40;
    conf.session.fps = 30.0;
    conf.session.timing = TimingModel::Simulated;
    conf.session.transfer.reliable = false;
    conf.session.workers = workers;
    conf.session.link.bandwidth = net::BandwidthTrace::constant(8e6);
    conf.session.link.propagationDelayS = 0.01;
    conf.session.link.jitterStddevS = 0.0;
    conf.session.link.queueCapacityBytes = 32 * 1024;
    conf.session.link.faults.outages.push_back({0.4, 0.3});
    conf.session.degradation.enabled = true;
    conf.session.degradation.maxLevel = 3;
    conf.session.degradation.downgradeAfter = 2;
    conf.session.degradation.upgradeAfter = 8;
    conf.arbiter.strategy = ArbiterStrategy::MaxMin;
    conf.enableDownlinks = true;
    conf.downlink.bandwidth = net::BandwidthTrace::constant(50e6);
    conf.downlink.jitterStddevS = 0.0;
    conf.downlink.queueCapacityBytes = 512 * 1024;
    conf.pipelineDepth = depth;
    for (const UserCost& c : stragglerCosts()) {
        Participant p;
        p.channel = {"synthetic",
                     {{"payloadBytes", 24 * 1024},
                      {"simulatedExtractMs", c.extractMs},
                      {"simulatedReconMs", c.reconMs}}};
        conf.participants.push_back(std::move(p));
    }
    return conf;
}

// The perfbench sfu_conference shape, shortened: synthetic participants
// with staggered encode/decode costs, a shared uplink, the MaxMin
// arbiter and per-viewer downlinks with a two-rung subscription ladder.
ConferenceConfig syntheticConference(std::size_t users, std::size_t ticks,
                                     std::size_t workers, std::size_t depth) {
    ConferenceConfig conf;
    conf.session.frames = ticks;
    conf.session.fps = 30.0;
    conf.session.timing = TimingModel::Simulated;
    conf.session.workers = workers;
    conf.session.dropWhenBusy = false;
    conf.session.link.bandwidth = net::BandwidthTrace::constant(120e6);
    conf.arbiter.strategy = ArbiterStrategy::MaxMin;
    conf.enableDownlinks = true;
    conf.downlink.bandwidth = net::BandwidthTrace::constant(50e6);
    conf.pipelineDepth = depth;
    for (std::size_t u = 0; u < users; ++u) {
        const double stagger = static_cast<double>(u % 4);
        Participant p;
        p.channel = {"synthetic",
                     {{"payloadBytes", 4096},
                      {"simulatedExtractMs", 2.0 + stagger},
                      {"simulatedReconMs", 5.0 - stagger},
                      {"rateAdaptive", 1}}};
        p.subscription.rungs = {{4, 1.0}, {12, 0.25}};
        conf.participants.push_back(std::move(p));
    }
    return conf;
}

void expectSameFrames(const MultiSessionStats& a, const MultiSessionStats& b) {
    ASSERT_EQ(a.perUser.size(), b.perUser.size());
    for (std::size_t u = 0; u < a.perUser.size(); ++u) {
        const auto& fa = a.perUser[u].frames;
        const auto& fb = b.perUser[u].frames;
        ASSERT_EQ(fa.size(), fb.size()) << "user " << u;
        for (std::size_t f = 0; f < fa.size(); ++f) {
            EXPECT_EQ(fa[f].bytes, fb[f].bytes) << "user " << u << " frame " << f;
            EXPECT_EQ(fa[f].delivered, fb[f].delivered)
                << "user " << u << " frame " << f;
            EXPECT_EQ(fa[f].droppedAtSender, fb[f].droppedAtSender)
                << "user " << u << " frame " << f;
            EXPECT_EQ(fa[f].droppedAtReceiver, fb[f].droppedAtReceiver)
                << "user " << u << " frame " << f;
            EXPECT_DOUBLE_EQ(fa[f].transferMs, fb[f].transferMs)
                << "user " << u << " frame " << f;
            EXPECT_DOUBLE_EQ(fa[f].e2eMs, fb[f].e2eMs)
                << "user " << u << " frame " << f;
        }
    }
}

// ---- Byte identity ---------------------------------------------------------

TEST(StageGraph, StragglerByteIdentityAcrossWorkersAndDepths) {
    // The reference is the serial run at depth 1 — the legacy barrier
    // schedule. Every (workers, depth) combination must reproduce it
    // exactly: pipeline depth and worker count change scheduling only.
    const auto reference = runConference(stragglerConference(1, 1),
                                         sharedModel());
    ASSERT_EQ(reference.perUser.size(), stragglerCosts().size());
    EXPECT_GT(reference.perUser[0].telemetry.counters.framesDelivered, 0u);
    for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t workers :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " depth=" + std::to_string(depth));
            const auto run = runConference(stragglerConference(workers, depth),
                                           sharedModel());
            expectSameFrames(reference, run);
            ASSERT_EQ(run.downlinks.size(), reference.downlinks.size());
            for (std::size_t v = 0; v < run.downlinks.size(); ++v) {
                EXPECT_EQ(run.downlinks[v].bytesForwarded,
                          reference.downlinks[v].bytesForwarded);
                EXPECT_EQ(run.downlinks[v].packets,
                          reference.downlinks[v].packets);
            }
            EXPECT_EQ(run.serverFanoutBytes, reference.serverFanoutBytes);
            EXPECT_DOUBLE_EQ(run.fairnessIndex, reference.fairnessIndex);
        }
    }
}

// ---- Pipeline telemetry ----------------------------------------------------

TEST(StageGraph, PipelineStatsDescribeTheGraph) {
    const auto stats =
        runConference(stragglerConference(8, 4), sharedModel());
    const PipelineStats& p = stats.pipeline;
    EXPECT_TRUE(p.workers > 1);  // event-driven over the pool
    EXPECT_EQ(p.workers, 8u);
    EXPECT_EQ(p.pipelineDepth, 4u);
    EXPECT_GT(p.nodes, 0u);
    EXPECT_GT(p.edges, p.nodes);  // every non-root node has >= 1 edge in
    EXPECT_GE(p.maxTicksInFlight, 1.0);
    EXPECT_LE(p.maxTicksInFlight, static_cast<double>(p.pipelineDepth));
    EXPECT_GT(p.wallMs, 0.0);
    // One stage row per kind in play, in stage order, each with release
    // latency samples for every node.
    std::vector<std::string> names;
    for (const PipelineStageStats& s : p.stages) {
        names.push_back(s.stage);
        EXPECT_GT(s.nodes, 0u);
        EXPECT_EQ(s.releaseLatencyMs.count(), s.nodes);
        EXPECT_GE(s.maxConcurrent, 1u);
    }
    const std::vector<std::string> expected{"arbiter", "encode", "uplink",
                                            "downlink", "decode", "retire"};
    EXPECT_EQ(names, expected);
    // 40 ticks x 4 users of encode/uplink/decode nodes.
    for (const PipelineStageStats& s : p.stages) {
        if (s.stage == "encode" || s.stage == "uplink" || s.stage == "decode") {
            EXPECT_EQ(s.nodes, 40u * 4u);
        }
    }
}

TEST(StageGraph, SerialRunReportsBarrierEquivalentSchedule) {
    // Depth 1 serial: the stage graph *is* the barrier schedule, and the
    // deterministic comparison at one worker must agree — both models
    // degenerate to the cost sum.
    const auto stats =
        runConference(stragglerConference(1, 1), sharedModel());
    const PipelineStats& p = stats.pipeline;
    EXPECT_FALSE(p.workers > 1);  // insertion order on the calling thread
    EXPECT_EQ(p.workers, 1u);
    EXPECT_EQ(p.maxTicksInFlight, 1.0);
    EXPECT_EQ(p.meanTicksInFlight, 1.0);
    EXPECT_NEAR(p.simulatedStageGraphMs, p.simulatedBarrierMs,
                1e-6 * p.simulatedBarrierMs);
    EXPECT_NEAR(p.simulatedSpeedup, 1.0, 1e-9);
}

TEST(StageGraph, ZeroTickConferenceReportsNoTicksInFlight) {
    // No encode node ran, so there is no ticks-in-flight sample: both
    // figures are NaN, written as null.
    ConferenceConfig conf = stragglerConference(4, 4);
    conf.session.frames = 0;
    const auto stats = runConference(conf, sharedModel());
    EXPECT_TRUE(std::isnan(stats.pipeline.maxTicksInFlight));
    EXPECT_TRUE(std::isnan(stats.pipeline.meanTicksInFlight));
    const std::string json = toJsonValue(stats);
    EXPECT_NE(json.find("\"max_ticks_in_flight\":null"), std::string::npos);
    EXPECT_NE(json.find("\"mean_ticks_in_flight\":null"), std::string::npos);
}

// ---- Deterministic pipelining win ------------------------------------------

TEST(StageGraph, StragglersPipelineStrictlyBetterThanBarrier) {
    // The schedule comparison is a pure function of (graph, recorded
    // simulated costs, workers) — runner-independent and exact. With the
    // straggler mix at 8 workers the barrier pays max(enc) + max(dec)
    // = 24 ms per tick while the stage graph pays at worst the heaviest
    // per-user chain (14 ms), so the speedup must clear 1.3x and idle
    // time must strictly shrink.
    const auto stats =
        runConference(stragglerConference(8, 4), sharedModel());
    const PipelineStats& p = stats.pipeline;
    EXPECT_GT(p.simulatedBarrierMs, 0.0);
    EXPECT_GT(p.simulatedStageGraphMs, 0.0);
    EXPECT_GE(p.simulatedSpeedup, 1.3);
    EXPECT_LT(p.simulatedIdleMs, p.simulatedBarrierIdleMs);

    // Depth 1 forbids cross-tick overlap: the same mix at the same
    // worker count must collapse to (near) barrier performance, so the
    // win demonstrably comes from pipeline depth, not from the executor.
    const auto depth1 =
        runConference(stragglerConference(8, 1), sharedModel());
    EXPECT_NEAR(depth1.pipeline.simulatedSpeedup, 1.0, 0.05);
    EXPECT_GT(p.simulatedSpeedup, depth1.pipeline.simulatedSpeedup + 0.25);
}

// ---- Rolling window ----------------------------------------------------------

TEST(StageGraph, ResidentNodesIndependentOfRunLength) {
    // The graph keeps depth + 2 ticks of nodes, however long the run:
    // the high-water mark is a function of the graph's shape only, so it
    // is the same at 60 and 600 ticks.
    constexpr std::size_t kUsers = 16;
    // Arbiter, retire, and per user an encode, a ticket, a downlink, a
    // decode and (at sampled ticks) a quality node.
    constexpr std::uint64_t kMaxNodesPerTick = 2 + 5 * kUsers;
    for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("depth=" + std::to_string(depth));
        std::vector<std::uint64_t> resident;
        for (const std::size_t ticks : {std::size_t{60}, std::size_t{600}}) {
            ConferenceConfig conf = syntheticConference(kUsers, ticks, 4, depth);
            conf.session.qualityEvalInterval = 10;
            const PipelineStats p = runConference(conf, sharedModel()).pipeline;
            EXPECT_GT(p.residentNodes, 0u);
            EXPECT_LE(p.residentNodes, (depth + 2) * kMaxNodesPerTick);
            EXPECT_LT(p.residentNodes, p.nodes);
            resident.push_back(p.residentNodes);
        }
        EXPECT_EQ(resident[0], resident[1]);
    }
}

TEST(StageGraph, WindowByteIdentityAcrossDepths) {
    // Retire nodes rebuild ring slots while other nodes run. Every depth
    // and worker count must still reproduce the serial run exactly, with
    // downlinks, the arbiter and quality ticks on. Every 16th participant
    // sends meshes, so the sampled ticks evaluate a real Chamfer.
    const auto conference = [](std::size_t workers, std::size_t depth) {
        ConferenceConfig conf = syntheticConference(64, 200, workers, depth);
        conf.session.qualityEvalInterval = 10;
        conf.session.qualitySamples = 500;
        for (std::size_t u = 0; u < conf.participants.size(); u += 16)
            conf.participants[u].channel = {"traditional", {{"compress", 0}}};
        return conf;
    };
    const auto reference = runConference(conference(1, 1), sharedModel());
    std::size_t evaluated = 0;
    for (const SessionStats& s : reference.perUser)
        for (const FrameStats& f : s.frames) evaluated += !std::isnan(f.chamfer);
    EXPECT_GT(evaluated, 0u);
    for (const std::size_t depth :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " depth=" + std::to_string(depth));
            const auto run = runConference(conference(workers, depth), sharedModel());
            expectSameFrames(reference, run);
            for (std::size_t u = 0; u < run.perUser.size(); ++u) {
                const auto& fa = reference.perUser[u].frames;
                const auto& fb = run.perUser[u].frames;
                for (std::size_t f = 0; f < fa.size() && f < fb.size(); ++f) {
                    EXPECT_EQ(fa[f].decoded, fb[f].decoded);
                    EXPECT_EQ(std::isnan(fa[f].chamfer), std::isnan(fb[f].chamfer));
                    if (!std::isnan(fa[f].chamfer)) {
                        EXPECT_EQ(fa[f].chamfer, fb[f].chamfer)
                            << "user " << u << " frame " << f;
                    }
                }
            }
            ASSERT_EQ(run.downlinks.size(), reference.downlinks.size());
            for (std::size_t v = 0; v < run.downlinks.size(); ++v) {
                const DownlinkStats& a = reference.downlinks[v];
                const DownlinkStats& b = run.downlinks[v];
                EXPECT_EQ(a.framesForwarded, b.framesForwarded);
                EXPECT_EQ(a.framesDelivered, b.framesDelivered);
                EXPECT_EQ(a.bytesForwarded, b.bytesForwarded);
                EXPECT_EQ(a.bytesDelivered, b.bytesDelivered);
                EXPECT_EQ(a.packets, b.packets);
                EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
                EXPECT_EQ(a.packetsUnrecovered, b.packetsUnrecovered);
            }
            EXPECT_EQ(run.serverFanoutFrames, reference.serverFanoutFrames);
            EXPECT_EQ(run.serverFanoutBytes, reference.serverFanoutBytes);
        }
    }
}

TEST(StageGraph, BuilderThrowDuringRunRethrowsAndDrains) {
    // A builder that throws inside R(f) leaves a partial tick: the run
    // must still drain it, build nothing further and rethrow the error.
    using internal::NodeId;
    using internal::StageGraph;
    using internal::StageKind;
    constexpr std::uint32_t kTicks = 50;
    constexpr std::uint32_t kThrowAt = 20;
    constexpr std::size_t kDepth = 2;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        // Per tick: E(f) <- D(f-1), R(f-depth); D(f) <- E(f);
        // R(f) <- D(f), R(f-1), as in the engine.
        std::vector<NodeId> retires(kDepth, internal::kNoNode);
        NodeId prevDecode = internal::kNoNode;
        NodeId prevRetire = internal::kNoNode;
        std::uint32_t lastBuilt = 0;
        const auto build = [&](StageGraph& graph, std::uint32_t tick) {
            lastBuilt = tick;
            const NodeId e = graph.addNode(StageKind::Encode, 0);
            if (prevDecode != internal::kNoNode) graph.addEdge(prevDecode, e);
            if (tick >= kDepth) graph.addEdge(retires[tick % kDepth], e);
            if (tick == kThrowAt) throw std::runtime_error("builder");
            const NodeId d = graph.addNode(StageKind::Decode, 0);
            graph.addEdge(e, d);
            const NodeId r = graph.addNode(StageKind::Retire, 0);
            graph.addEdge(d, r);
            if (prevRetire != internal::kNoNode) graph.addEdge(prevRetire, r);
            prevDecode = d;
            prevRetire = r;
            retires[tick % kDepth] = r;
        };
        std::atomic<int> bodiesAtThrowTick{0};
        StageGraph graph(kTicks, kDepth, build,
                         [&](StageKind, std::uint32_t tick, std::size_t) {
                             if (tick == kThrowAt) bodiesAtThrowTick.fetch_add(1);
                             return 1.0;
                         });
        ThreadPool pool(workers);
        try {
            graph.run(&pool);
            FAIL() << "run did not rethrow";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "builder");
        }
        EXPECT_EQ(lastBuilt, kThrowAt);
        // The partial tick's encode ran after the failure: body skipped.
        EXPECT_EQ(bodiesAtThrowTick.load(), 0);
        PipelineStats stats;
        graph.fillStats(stats);
        EXPECT_EQ(stats.nodes, 3u * kThrowAt + 1u);
        std::uint64_t folded = 0;
        for (const PipelineStageStats& st : stats.stages) folded += st.nodes;
        EXPECT_EQ(folded, stats.nodes);
    }
}

// ---- Pinned schedule -------------------------------------------------------

// The graph's shape and the two deterministic list schedules, pinned
// exactly: a change to how the graph is built, stored or aggregated must
// leave every value bit-for-bit equal. Stage node counts are in
// StageKind order: arbiter, encode, uplink, downlink, decode, quality,
// retire.
struct PinnedSchedule {
    const char* conference;
    std::size_t workers;
    std::size_t depth;
    std::uint64_t nodes;
    std::uint64_t edges;
    std::array<std::uint64_t, 7> stageNodes;
    double stageGraphMs;
    double barrierMs;
    double idleMs;
    double barrierIdleMs;
};

const std::array<const char*, 7> kStageOrder = {
    "arbiter", "encode", "uplink", "downlink", "decode", "quality", "retire"};

constexpr PinnedSchedule kPinnedSchedules[] = {
    {"straggler", 1, 1, 720, 1985, {40, 160, 160, 160, 160, 0, 40},
     0x1.9ap+10, 0x1.9ap+10, 0x0p+0, 0x0p+0},
    {"straggler", 1, 4, 720, 1973, {40, 160, 160, 160, 160, 0, 40},
     0x1.9ap+10, 0x1.9ap+10, 0x0p+0, 0x0p+0},
    {"straggler", 4, 1, 720, 1985, {40, 160, 160, 160, 160, 0, 40},
     0x1.aep+9, 0x1.aep+9, 0x1.c2p+10, 0x1.c2p+10},
    {"straggler", 4, 4, 720, 1973, {40, 160, 160, 160, 160, 0, 40},
     0x1.16p+9, 0x1.aep+9, 0x1.24p+9, 0x1.c2p+10},
    {"straggler", 8, 1, 720, 1985, {40, 160, 160, 160, 160, 0, 40},
     0x1.aep+9, 0x1.aep+9, 0x1.478p+12, 0x1.478p+12},
    {"straggler", 8, 4, 720, 1973, {40, 160, 160, 160, 160, 0, 40},
     0x1.16p+9, 0x1.aep+9, 0x1.5fp+11, 0x1.478p+12},
    {"synthetic100", 1, 1, 24120, 149817, {60, 6000, 6000, 6000, 6000, 0, 60},
     0x1.482p+15, 0x1.482p+15, 0x0p+0, 0x0p+0},
    {"synthetic100", 1, 4, 24120, 149517, {60, 6000, 6000, 6000, 6000, 0, 60},
     0x1.482p+15, 0x1.482p+15, 0x0p+0, 0x0p+0},
    {"synthetic100", 4, 1, 24120, 149817, {60, 6000, 6000, 6000, 6000, 0, 60},
     0x1.4ap+13, 0x1.4fap+13, 0x1.ep+7, 0x1.ep+9},
    {"synthetic100", 4, 4, 24120, 149517, {60, 6000, 6000, 6000, 6000, 0, 60},
     0x1.4828p+13, 0x1.4fap+13, 0x1p+2, 0x1.ep+9},
    {"synthetic100", 8, 1, 24120, 149817, {60, 6000, 6000, 6000, 6000, 0, 60},
     0x1.4dcp+12, 0x1.554p+12, 0x1.68p+9, 0x1.a4p+10},
    {"synthetic100", 8, 4, 24120, 149517, {60, 6000, 6000, 6000, 6000, 0, 60},
     0x1.483p+12, 0x1.554p+12, 0x1p+3, 0x1.a4p+10},
};

std::string describe(const char* conference, std::size_t workers,
                     std::size_t depth, const PipelineStats& p,
                     const std::array<std::uint64_t, 7>& stageNodes) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", %zu, %zu, %llu, %llu, {%llu, %llu, %llu, %llu, "
                  "%llu, %llu, %llu}, %a, %a, %a, %a},",
                  conference, workers, depth,
                  static_cast<unsigned long long>(p.nodes),
                  static_cast<unsigned long long>(p.edges),
                  static_cast<unsigned long long>(stageNodes[0]),
                  static_cast<unsigned long long>(stageNodes[1]),
                  static_cast<unsigned long long>(stageNodes[2]),
                  static_cast<unsigned long long>(stageNodes[3]),
                  static_cast<unsigned long long>(stageNodes[4]),
                  static_cast<unsigned long long>(stageNodes[5]),
                  static_cast<unsigned long long>(stageNodes[6]),
                  p.simulatedStageGraphMs, p.simulatedBarrierMs,
                  p.simulatedIdleMs, p.simulatedBarrierIdleMs);
    return buf;
}

TEST(StageGraph, SimulatedScheduleMatchesPinnedValues) {
    for (const std::string conference : {"straggler", "synthetic100"}) {
        for (const std::size_t workers :
             {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
            for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
                SCOPED_TRACE(conference + " workers=" + std::to_string(workers) +
                             " depth=" + std::to_string(depth));
                const ConferenceConfig conf =
                    conference == "straggler"
                        ? stragglerConference(workers, depth)
                        : syntheticConference(100, 60, workers, depth);
                const PipelineStats p = runConference(conf, sharedModel()).pipeline;
                std::array<std::uint64_t, 7> stageNodes{};
                for (const PipelineStageStats& s : p.stages)
                    for (std::size_t k = 0; k < kStageOrder.size(); ++k)
                        if (s.stage == kStageOrder[k]) stageNodes[k] = s.nodes;
                const std::string actual =
                    describe(conference.c_str(), workers, depth, p, stageNodes);
                const PinnedSchedule* pinned = nullptr;
                for (const PinnedSchedule& row : kPinnedSchedules)
                    if (row.conference == conference && row.workers == workers &&
                        row.depth == depth)
                        pinned = &row;
                if (pinned == nullptr) {
                    ADD_FAILURE() << "no pinned row; actual:\n" << actual;
                    continue;
                }
                EXPECT_EQ(p.nodes, pinned->nodes) << actual;
                EXPECT_EQ(p.edges, pinned->edges) << actual;
                EXPECT_EQ(stageNodes, pinned->stageNodes) << actual;
                // Exact: the pinned values are hex-float literals.
                EXPECT_EQ(p.simulatedStageGraphMs, pinned->stageGraphMs) << actual;
                EXPECT_EQ(p.simulatedBarrierMs, pinned->barrierMs) << actual;
                EXPECT_EQ(p.simulatedIdleMs, pinned->idleMs) << actual;
                EXPECT_EQ(p.simulatedBarrierIdleMs, pinned->barrierIdleMs) << actual;
            }
        }
    }
}

}  // namespace
}  // namespace semholo::core
