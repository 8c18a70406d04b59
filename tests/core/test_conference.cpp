// SFU conference engine: the ConferenceConfig entry API, the downlink
// fan-out accounting (per-viewer bytes sum to the server totals, packet
// conservation on every uplink and downlink), the serial/parallel
// byte-identity contract with downlinks and arbitration enabled, the
// subscription ladder, the BandwidthArbiter allocation properties, and
// the equivalence of factory-built and spec-built participants.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "semholo/core/conference.hpp"
#include "shared_uplink.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 24};
    return model;
}

// A congested conference: a shared uplink too narrow for every
// adaptive-mesh participant's top rung, faults included, degradation on.
ConferenceConfig congestedConference(std::size_t users,
                                     ArbiterStrategy strategy,
                                     bool downlinks) {
    ConferenceConfig conf;
    conf.session.frames = 40;
    conf.session.fps = 30.0;
    conf.session.timing = TimingModel::Simulated;
    conf.session.transfer.reliable = false;
    conf.session.link.bandwidth = net::BandwidthTrace::constant(8e6);
    conf.session.link.propagationDelayS = 0.01;
    conf.session.link.jitterStddevS = 0.0;
    conf.session.link.queueCapacityBytes = 16 * 1024;
    conf.session.link.faults.outages.push_back({0.4, 0.3});
    conf.session.degradation.enabled = true;
    conf.session.degradation.maxLevel = 3;
    conf.session.degradation.downgradeAfter = 2;
    conf.session.degradation.upgradeAfter = 8;
    conf.arbiter.strategy = strategy;
    conf.enableDownlinks = downlinks;
    conf.downlink.bandwidth = net::BandwidthTrace::constant(50e6);
    conf.downlink.jitterStddevS = 0.0;
    conf.downlink.queueCapacityBytes = 512 * 1024;
    conf.participants.resize(users);
    for (auto& p : conf.participants)
        p.channel = {"adaptive-mesh", {}};
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
        }
    }
}

// ---- Entry API -------------------------------------------------------------

TEST(Conference, EmptyConferenceYieldsEmptyStats) {
    ConferenceConfig conf;
    const auto stats = runConference(conf, sharedModel());
    EXPECT_TRUE(stats.perUser.empty());
    EXPECT_TRUE(stats.downlinks.empty());
    EXPECT_DOUBLE_EQ(stats.fairnessIndex, 1.0);
}

TEST(Conference, ParticipantWithoutChannelThrows) {
    ConferenceConfig conf;
    conf.participants.resize(1);  // neither spec kind nor factory
    EXPECT_THROW(runConference(conf, sharedModel()), std::invalid_argument);
}

TEST(Conference, ChannelFactoryOverridesSpec) {
    ConferenceConfig conf;
    conf.session.frames = 4;
    conf.session.timing = TimingModel::Simulated;
    conf.session.link.bandwidth = net::BandwidthTrace::constant(25e6);
    conf.session.link.jitterStddevS = 0.0;
    conf.enableDownlinks = false;
    conf.participants.resize(1);
    conf.participants[0].channel = {"does-not-exist", {}};  // would throw
    bool factoryUsed = false;
    conf.participants[0].channelFactory =
        [&factoryUsed](const body::BodyModel&) {
            factoryUsed = true;
            return makeKeypointChannel({});
        };
    const auto stats = runConference(conf, sharedModel());
    EXPECT_TRUE(factoryUsed);
    EXPECT_EQ(stats.perUser.size(), 1u);
    EXPECT_GT(stats.perUser[0].telemetry.counters.framesDelivered, 0u);
}

TEST(Conference, FactoryParticipantsMatchSpecParticipants) {
    // Channels a Participant::channelFactory builds must run exactly
    // like the same channels built from a ChannelSpec, on the pre-SFU
    // topology (shared uplink, no downlinks, no arbiter) — byte-identical
    // frames, not just similar aggregates.
    SessionConfig base;
    base.frames = 12;
    base.timing = TimingModel::Simulated;
    base.link.bandwidth = net::BandwidthTrace::constant(25e6);
    base.link.jitterStddevS = 0.0;
    base.degradation.enabled = true;

    const auto factory = runConference(
        sharedUplinkConference(base, 3, [] { return makeKeypointChannel({}); }),
        sharedModel());

    ConferenceConfig conf;
    conf.session = base;
    conf.sharedUplink = true;
    conf.enableDownlinks = false;
    conf.participants.resize(3);
    for (auto& p : conf.participants) p.channel = {"keypoint", {}};
    const auto spec = runConference(conf, sharedModel());

    expectSameFrames(factory, spec);
    EXPECT_TRUE(factory.downlinks.empty());
    EXPECT_TRUE(spec.downlinks.empty());
    EXPECT_DOUBLE_EQ(factory.fairnessIndex, spec.fairnessIndex);
}

// ---- Downlink fan-out accounting -------------------------------------------

TEST(Conference, DownlinkBytesSumToServerFanoutTotals) {
    const auto stats = runConference(
        congestedConference(3, ArbiterStrategy::MaxMin, true), sharedModel());
    ASSERT_EQ(stats.downlinks.size(), 3u);

    std::uint64_t bytes = 0, frames = 0;
    for (const DownlinkStats& d : stats.downlinks) {
        // Each viewer subscribes to the other N-1 streams by default.
        ASSERT_EQ(d.streams.size(), 2u);
        std::uint64_t streamBytes = 0, streamFrames = 0;
        for (const DownlinkStreamStats& s : d.streams) {
            EXPECT_NE(s.source, d.viewer);
            streamBytes += s.bytesForwarded;
            streamFrames += s.framesForwarded;
        }
        // Per-viewer totals are the sums of their per-stream entries.
        EXPECT_EQ(streamBytes, d.bytesForwarded);
        EXPECT_EQ(streamFrames, d.framesForwarded);
        bytes += d.bytesForwarded;
        frames += d.framesForwarded;
    }
    EXPECT_EQ(bytes, stats.serverFanoutBytes);
    EXPECT_EQ(frames, stats.serverFanoutFrames);
    EXPECT_GT(stats.serverFanoutFrames, 0u);

    // Every delivered uplink frame is forwarded to the other 2 viewers.
    std::uint64_t delivered = 0;
    for (const auto& u : stats.perUser) delivered += u.telemetry.counters.framesDelivered;
    EXPECT_EQ(stats.serverFanoutFrames, delivered * 2);

    // fanoutShare partitions the fan-out bytes.
    double share = 0.0;
    for (const DownlinkStats& d : stats.downlinks) share += d.fanoutShare;
    EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(Conference, UnsubscribedViewersReportNoDataNotZero) {
    // Every viewer subscribes to nothing: the server forwards no frame,
    // so per-viewer transfer means and fan-out shares have no samples,
    // and adaptive-mesh decodes sample no field nodes.
    auto conf = congestedConference(3, ArbiterStrategy::None, true);
    for (auto& p : conf.participants) p.subscription.rungs = {{0, 1.0}};
    const auto stats = runConference(conf, sharedModel());
    EXPECT_EQ(stats.serverFanoutBytes, 0u);
    ASSERT_EQ(stats.downlinks.size(), 3u);
    for (const DownlinkStats& d : stats.downlinks) {
        EXPECT_EQ(d.framesForwarded, 0u);
        EXPECT_TRUE(std::isnan(d.meanTransferMs)) << "viewer " << d.viewer;
        EXPECT_TRUE(std::isnan(d.fanoutShare)) << "viewer " << d.viewer;
    }
    for (const auto& u : stats.perUser)
        EXPECT_TRUE(std::isnan(u.telemetry.counters.recon.evalFraction()));
    const std::string json = toJsonValue(stats);
    EXPECT_NE(json.find("\"fanout_share\":null"), std::string::npos);
    EXPECT_NE(json.find("\"mean_transfer_ms\":null"), std::string::npos);
}

TEST(Conference, PacketConservationOnEveryUplinkAndDownlink) {
    const auto stats = runConference(
        congestedConference(3, ArbiterStrategy::None, true), sharedModel());
    for (const SessionStats& u : stats.perUser) {
        const auto& c = u.telemetry.counters;
        EXPECT_GT(c.packets, 0u);
        EXPECT_EQ(c.packets, c.packetsDelivered + c.packetsUnrecovered);
    }
    for (const DownlinkStats& d : stats.downlinks) {
        EXPECT_GT(d.packets, 0u);
        EXPECT_EQ(d.packets, d.packetsDelivered + d.packetsUnrecovered);
        for (const DownlinkStreamStats& s : d.streams)
            EXPECT_EQ(s.packets, s.packetsDelivered + s.packetsUnrecovered);
    }
}

TEST(Conference, SharedUplinkFalseIsRejected) {
    // The engine models one topology: every participant's stream enters
    // the server through the shared ingest bottleneck.
    auto conf = congestedConference(3, ArbiterStrategy::MaxMin, true);
    conf.sharedUplink = false;
    EXPECT_THROW(runConference(conf, sharedModel()), std::invalid_argument);
}

// ---- Engine byte-identity with the full SFU topology -----------------------

TEST(Conference, SerialAndParallelIdenticalWithDownlinksAndArbiter) {
    std::vector<MultiSessionStats> results;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        auto conf = congestedConference(4, ArbiterStrategy::MaxMin, true);
        conf.session.workers = workers;
        results.push_back(runConference(conf, sharedModel()));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        expectSameFrames(results[0], results[i]);
        ASSERT_EQ(results[0].downlinks.size(), results[i].downlinks.size());
        for (std::size_t v = 0; v < results[0].downlinks.size(); ++v) {
            const DownlinkStats& a = results[0].downlinks[v];
            const DownlinkStats& b = results[i].downlinks[v];
            EXPECT_EQ(a.bytesForwarded, b.bytesForwarded) << "viewer " << v;
            EXPECT_EQ(a.bytesDelivered, b.bytesDelivered) << "viewer " << v;
            EXPECT_EQ(a.packets, b.packets) << "viewer " << v;
        }
        EXPECT_EQ(results[0].serverFanoutBytes, results[i].serverFanoutBytes);
    }
}

TEST(Conference, QualityNodesDeterministicAcrossWorkersAndDepths) {
    // Sampled Chamfer runs in its own Q(f,u) node, off the decode chain;
    // its results must not depend on when the pool gets to it.
    constexpr std::size_t kUsers = 3, kFrames = 12, kInterval = 2;
    const auto run = [](std::size_t workers, std::size_t depth) {
        ConferenceConfig conf;
        conf.session.frames = kFrames;
        conf.session.timing = TimingModel::Simulated;
        conf.session.qualityEvalInterval = kInterval;
        conf.session.qualitySamples = 500;
        conf.session.workers = workers;
        conf.pipelineDepth = depth;
        conf.arbiter.strategy = ArbiterStrategy::MaxMin;
        conf.enableDownlinks = true;
        conf.participants.resize(kUsers);
        for (auto& p : conf.participants)
            p.channel = {"keypoint", {{"reconResolution", 12}}};
        return runConference(conf, sharedModel());
    };
    const auto chamferBits = [](const MultiSessionStats& stats) {
        std::vector<std::uint64_t> bits;
        for (const SessionStats& s : stats.perUser)
            for (const FrameStats& f : s.frames) {
                std::uint64_t b = 0;
                std::memcpy(&b, &f.chamfer, sizeof b);
                bits.push_back(b);
            }
        return bits;
    };
    const auto evaluated = [](const MultiSessionStats& stats) {
        std::size_t n = 0;
        for (const SessionStats& s : stats.perUser)
            for (const FrameStats& f : s.frames) n += !std::isnan(f.chamfer);
        return n;
    };
    const auto qualityNodes = [](const MultiSessionStats& stats) {
        for (const PipelineStageStats& st : stats.pipeline.stages)
            if (st.stage == "quality") return st.nodes;
        return std::uint64_t{0};
    };

    const auto reference = run(1, 1);
    ASSERT_GT(evaluated(reference), 0u);
    EXPECT_EQ(qualityNodes(reference), kUsers * (kFrames / kInterval));
    for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t workers :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " depth=" + std::to_string(depth));
            const auto stats = run(workers, depth);
            expectSameFrames(reference, stats);
            EXPECT_EQ(chamferBits(stats), chamferBits(reference));
            EXPECT_EQ(evaluated(stats), evaluated(reference));
            EXPECT_EQ(qualityNodes(stats), kUsers * (kFrames / kInterval));
        }
    }
}

// ---- Pinned conference outputs ---------------------------------------------

struct Fnv1a {
    std::uint64_t h{0xcbf29ce484222325ull};
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0x7ff8000000000000ull;  // one bit pattern for NaN
        if (!std::isnan(v)) std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

// Every deterministic output of a conference: the per-frame results
// (wall-clock extractMs/reconMs/qualityMs left out), every per-user
// counter except the reconstruction's work counters (reconWork below),
// the queue-depth samples, the fairness accounting and the downlink
// fan-out.
std::uint64_t conferenceDigest(const MultiSessionStats& stats) {
    Fnv1a d;
    for (const SessionStats& s : stats.perUser) {
        for (const FrameStats& f : s.frames) {
            d.add(std::uint64_t{f.bytes});
            d.add(std::uint64_t{f.delivered} | std::uint64_t{f.decoded} << 1 |
                  std::uint64_t{f.droppedAtSender} << 2 |
                  std::uint64_t{f.droppedAtReceiver} << 3);
            d.add(f.transferMs);
            d.add(f.e2eMs);
            d.add(f.chamfer);
        }
        const telemetry::Counters& c = s.telemetry.counters;
        for (const std::uint64_t v :
             {c.framesCaptured, c.framesDelivered, c.framesDecoded,
              c.dropsAtSender, c.dropsAtReceiver, c.packets, c.packetsLost,
              c.packetsDelivered, c.packetsUnrecovered, c.retransmissions,
              c.queueDrops, c.bytesSent, c.faultEvents, c.degradations,
              c.upgrades, c.recon.blocksTotal, c.recon.nodesTotal,
              c.recon.blocksExtracted, c.recon.activeCells, c.recon.vertices,
              c.recon.triangles})
            d.add(v);
        d.add(std::uint64_t{s.telemetry.queueDepthBytes.count()});
        d.add(s.telemetry.queueDepthBytes.sum());
    }
    for (const UserFairnessStats& f : stats.fairness) {
        d.add(f.deliveryRatio);
        d.add(f.bandwidthShare);
        d.add(std::uint64_t{f.finalDegradationLevel});
        d.add(f.targetRateMbps);
    }
    d.add(stats.fairnessIndex);
    for (const DownlinkStats& v : stats.downlinks)
        for (const DownlinkStreamStats& s : v.streams)
            for (const std::uint64_t x :
                 {std::uint64_t{s.source}, std::uint64_t{s.framesForwarded},
                  std::uint64_t{s.framesDelivered}, s.bytesForwarded,
                  s.bytesDelivered, s.packets, s.packetsDelivered,
                  s.packetsUnrecovered})
                d.add(x);
    d.add(stats.serverFanoutBytes);
    return d.h;
}

// How much work each user's reconstruction did: blocksSampled,
// blocksSkipped, blocksCoarseFilled, nodesEvaluated, certTests,
// bonesPruned. A tighter skip certificate lowers them and leaves every
// output above unchanged.
using ReconWork = std::array<std::uint64_t, 6>;
std::vector<ReconWork> reconWork(const MultiSessionStats& stats) {
    std::vector<ReconWork> work;
    for (const SessionStats& s : stats.perUser) {
        const mesh::ReconCounters& r = s.telemetry.counters.recon;
        work.push_back({r.blocksSampled, r.blocksSkipped, r.blocksCoarseFilled,
                        r.nodesEvaluated, r.certTests, r.bonesPruned});
    }
    return work;
}

TEST(Conference, OutputMatchesPinnedDigest) {
    // Three rate-adaptive synthetic users with staggered costs and one
    // keypoint user on a lossy 3 Mbps shared uplink with an outage and a
    // bandwidth collapse; degradation, the MaxMin arbiter, downlinks with
    // a two-rung ladder and quality on every third tick. The outputs
    // digest leaves the reconstruction's work counters out, so a change
    // that only saves work keeps it; the work is pinned on its own.
    constexpr std::uint64_t kPinnedDigest = 0x92b78414057e1738ull;
    const std::vector<ReconWork> kPinnedWork = {
        {0, 0, 0, 0, 0, 0},
        {0, 0, 0, 0, 0, 0},
        {0, 0, 0, 0, 0, 0},
        {750, 1106, 0, 44882, 2117, 2090763},
    };
    const auto run = [](std::size_t workers, std::size_t depth) {
        ConferenceConfig conf;
        conf.session.frames = 30;
        conf.session.timing = TimingModel::Simulated;
        conf.session.workers = workers;
        conf.session.link.bandwidth = net::BandwidthTrace::constant(3e6);
        conf.session.link.propagationDelayS = 0.01;
        conf.session.link.lossRate = 0.02;
        conf.session.link.queueCapacityBytes = 64 * 1024;
        conf.session.link.faults.outages.push_back({0.1, 0.08});
        conf.session.link.faults.collapses.push_back({0.25, 0.1, 0.1});
        conf.session.degradation.enabled = true;
        conf.session.degradation.maxLevel = 3;
        conf.session.degradation.downgradeAfter = 2;
        conf.session.degradation.upgradeAfter = 4;
        conf.session.qualityEvalInterval = 3;
        conf.session.qualitySamples = 500;
        conf.arbiter.strategy = ArbiterStrategy::MaxMin;
        conf.enableDownlinks = true;
        conf.downlink.bandwidth = net::BandwidthTrace::constant(20e6);
        conf.downlink.lossRate = 0.01;
        conf.pipelineDepth = depth;
        for (std::size_t u = 0; u < 3; ++u) {
            const double stagger = static_cast<double>(u);
            Participant p;
            p.channel = {"synthetic",
                         {{"payloadBytes", 6144},
                          {"simulatedExtractMs", 4.0 + 3.0 * stagger},
                          {"simulatedReconMs", 10.0 - 3.0 * stagger},
                          {"rateAdaptive", 1}}};
            conf.participants.push_back(std::move(p));
        }
        Participant keypoint;
        keypoint.channel = {"keypoint", {{"reconResolution", 12}}};
        conf.participants.push_back(std::move(keypoint));
        for (Participant& p : conf.participants)
            p.subscription.rungs = {{1, 1.0}, {1, 0.5}};
        return runConference(conf, sharedModel());
    };
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " depth=" + std::to_string(depth));
            const auto stats = run(workers, depth);
            EXPECT_EQ(conferenceDigest(stats), kPinnedDigest)
                << std::hex << conferenceDigest(stats);
            EXPECT_EQ(reconWork(stats), kPinnedWork);
        }
    }
}

// ---- Subscription ladder ---------------------------------------------------

TEST(Conference, SubscriptionLadderDefaultsToEverythingFullQuality) {
    SubscriptionLadder ladder;
    EXPECT_EQ(ladder.scaleForPosition(0), 1.0);
    EXPECT_EQ(ladder.scaleForPosition(41), 1.0);
}

TEST(Conference, SubscriptionLadderRungsAndUnsubscribedTail) {
    SubscriptionLadder ladder;
    ladder.rungs = {{2, 1.0}, {1, 0.25}};  // 2 full, 1 thinned, rest dropped
    EXPECT_EQ(ladder.scaleForPosition(0), 1.0);
    EXPECT_EQ(ladder.scaleForPosition(1), 1.0);
    EXPECT_EQ(ladder.scaleForPosition(2), 0.25);
    EXPECT_FALSE(ladder.scaleForPosition(3).has_value());
}

TEST(Conference, SubscriptionLadderThinsDownlinkBytes) {
    auto conf = congestedConference(3, ArbiterStrategy::None, true);
    // Viewer 0 takes one full stream and one at a quarter of the bytes;
    // viewer 1 unsubscribes from everything past the first stream.
    conf.participants[0].subscription.rungs = {{1, 1.0}, {1, 0.25}};
    conf.participants[1].subscription.rungs = {{1, 1.0}};
    const auto stats = runConference(conf, sharedModel());

    const DownlinkStats& v0 = stats.downlinks[0];
    ASSERT_EQ(v0.streams.size(), 2u);
    // Same source frames were forwarded to both subscriptions, so the
    // thinned stream carries ~25% of the full stream's per-frame bytes.
    const DownlinkStats& v2 = stats.downlinks[2];  // default: both full
    ASSERT_EQ(v2.streams.size(), 2u);

    const DownlinkStats& v1 = stats.downlinks[1];
    ASSERT_EQ(v1.streams.size(), 1u);  // unsubscribed tail dropped
    EXPECT_EQ(v1.streams[0].source, 0u);

    // The quarter-scale subscription forwards fewer bytes than the same
    // source at full quality on viewer 2's downlink.
    const DownlinkStreamStats* v0thin = nullptr;
    for (const auto& s : v0.streams)
        if (s.source == 2) v0thin = &s;
    ASSERT_NE(v0thin, nullptr);
    const DownlinkStreamStats* v2full = nullptr;
    for (const auto& s : v2.streams)
        if (s.source == 1) v2full = &s;
    ASSERT_NE(v2full, nullptr);
    EXPECT_LT(v0thin->bytesForwarded,
              v0.streams[0].bytesForwarded);  // thinner than its full peer
}

// ---- Arbiter fairness ------------------------------------------------------

TEST(Conference, MaxMinArbiterEqualizesCongestedDelivery) {
    const auto off = runConference(
        congestedConference(3, ArbiterStrategy::None, false), sharedModel());
    const auto on = runConference(
        congestedConference(3, ArbiterStrategy::MaxMin, false), sharedModel());
    // Arbitration must not reduce aggregate delivery and must report the
    // targets it handed out.
    std::size_t offDelivered = 0, onDelivered = 0;
    for (const auto& u : off.perUser) offDelivered += u.telemetry.counters.framesDelivered;
    for (const auto& u : on.perUser) onDelivered += u.telemetry.counters.framesDelivered;
    EXPECT_GE(onDelivered, offDelivered);
    EXPECT_GE(on.fairnessIndex, off.fairnessIndex);
    for (const UserFairnessStats& f : on.fairness)
        EXPECT_GT(f.targetRateMbps, 0.0);
    for (const UserFairnessStats& f : off.fairness)
        EXPECT_DOUBLE_EQ(f.targetRateMbps, 0.0);
}

// ---- BandwidthArbiter::allocate unit tests ---------------------------------

TEST(ConferenceArbiter, MaxMinSplitsEquallyAmongGreedyUsers) {
    BandwidthArbiter arbiter({ArbiterStrategy::MaxMin, 0.9, 0.0});
    const auto t = arbiter.allocate(9e6, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0});
    ASSERT_EQ(t.size(), 3u);
    for (double x : t) EXPECT_NEAR(x, 2.7e6, 1.0);
}

TEST(ConferenceArbiter, MaxMinRedistributesUnusedShare) {
    BandwidthArbiter arbiter({ArbiterStrategy::MaxMin, 1.0, 0.0});
    // User 0 only wants 1 Mbps of the 9; the rest split the remainder.
    const auto t = arbiter.allocate(9e6, {1e6, 0.0, 0.0}, {0.0, 0.0, 0.0});
    EXPECT_NEAR(t[0], 1e6, 1.0);
    EXPECT_NEAR(t[1], 4e6, 1.0);
    EXPECT_NEAR(t[2], 4e6, 1.0);
}

TEST(ConferenceArbiter, AllocationsRespectTheFloor) {
    BandwidthArbiter arbiter({ArbiterStrategy::MaxMin, 0.9, 64e3});
    // Outage: zero capacity still yields the probe floor.
    const auto t = arbiter.allocate(0.0, {1e6, 1e6}, {0.0, 0.0});
    for (double x : t) EXPECT_DOUBLE_EQ(x, 64e3);
}

TEST(ConferenceArbiter, ProportionalFairFavorsStarvedUsers) {
    BandwidthArbiter arbiter({ArbiterStrategy::ProportionalFair, 1.0, 0.0});
    // User 0 has been getting 8 Mbps, user 1 only 1 Mbps: the starved
    // user receives the larger grant.
    const auto t = arbiter.allocate(9e6, {0.0, 0.0}, {8e6, 1e6});
    EXPECT_GT(t[1], t[0]);
    EXPECT_NEAR(t[0] + t[1], 9e6, 1.0);
}

TEST(ConferenceArbiter, NoneHandsEveryoneTheWholeBudget) {
    BandwidthArbiter arbiter({ArbiterStrategy::None, 0.5, 0.0});
    const auto t = arbiter.allocate(10e6, {0.0, 0.0}, {0.0, 0.0});
    for (double x : t) EXPECT_DOUBLE_EQ(x, 5e6);
}

}  // namespace
}  // namespace semholo::core
