// Pinned LinkSimulator outputs. Each scenario drives one link through a
// fixed message schedule and folds every TransferResult field (times as
// IEEE-754 bit patterns), the observer's queue depth and the link's
// busy-until clock into one FNV-1a digest. The expected values were
// recorded from the simulator before its per-message RNG became the
// lazily seeded engine, so any drift in draw order, draw values or
// distribution use fails here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "semholo/net/simulator.hpp"

namespace semholo::net {
namespace {

struct Fnv1a {
    std::uint64_t h{0xcbf29ce484222325ull};
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

enum class Reliability { Reliable, Unreliable, Alternate };

struct Scenario {
    LinkConfig link;
    std::size_t messages{200};
    std::size_t minBytes{200};
    std::size_t maxBytes{20000};
    double intervalS{1.0 / 30.0};
    Reliability reliability{Reliability::Reliable};
    int maxRetransmissions{8};
    bool observe{true};  // fold the observer's queue depth into the digest
};

LinkConfig baseLink(double bps, std::uint64_t seed) {
    LinkConfig cfg;
    cfg.bandwidth = BandwidthTrace::constant(bps);
    cfg.propagationDelayS = 0.02;
    cfg.jitterStddevS = 0.0;
    cfg.lossRate = 0.0;
    cfg.queueCapacityBytes = 256 * 1024;
    cfg.seed = seed;
    return cfg;
}

std::uint64_t runDigest(const Scenario& s) {
    LinkSimulator link(s.link);
    Fnv1a d;
    if (s.observe)
        link.setObserver([&d](const TransferResult&, std::size_t queued) {
            d.add(static_cast<std::uint64_t>(queued));
        });
    // Message sizes from a fixed LCG, independent of any std engine.
    std::uint64_t lcg = 0x2545f4914f6cdd1dull;
    const std::size_t span = s.maxBytes - s.minBytes + 1;
    for (std::size_t i = 0; i < s.messages; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t bytes = s.minBytes + (lcg >> 33) % span;
        TransferOptions opt;
        opt.maxRetransmissions = s.maxRetransmissions;
        opt.reliable = s.reliability == Reliability::Reliable ||
                       (s.reliability == Reliability::Alternate && i % 2 == 0);
        const TransferResult r = link.sendMessage(
            bytes, static_cast<double>(i) * s.intervalS, opt, i % 7, i % 5);
        d.add(static_cast<std::uint64_t>(r.delivered));
        d.add(r.startTime);
        d.add(r.completionTime);
        d.add(static_cast<std::uint64_t>(r.bytes));
        d.add(static_cast<std::uint64_t>(r.packets));
        d.add(static_cast<std::uint64_t>(r.deliveredPackets));
        d.add(static_cast<std::uint64_t>(r.unrecoveredPackets));
        d.add(static_cast<std::uint64_t>(r.lostPackets));
        d.add(static_cast<std::uint64_t>(r.retransmissions));
        d.add(static_cast<std::uint64_t>(r.droppedAtQueue));
        d.add(static_cast<std::uint64_t>(r.faultEvents));
        d.add(r.senderTag);
        d.add(r.receiverTag);
        d.add(link.queueBusyUntil());
    }
    return d.h;
}

void expectDigest(const Scenario& s, std::uint64_t expected) {
    const std::uint64_t got = runDigest(s);
    EXPECT_EQ(got, expected) << "digest 0x" << std::hex << got;
}

TEST(LinkSimulatorPinned, Jitter) {
    Scenario s;
    s.link = baseLink(20e6, 11);
    s.link.jitterStddevS = 0.005;
    expectDigest(s, 0x794310faeb425a03ull);
}

// Jitter-free links still draw one normal per packet; the draws must
// stay in step with the loss tests.
TEST(LinkSimulatorPinned, NoJitterIidLoss) {
    Scenario s;
    s.link = baseLink(20e6, 18);
    s.link.lossRate = 0.05;
    s.reliability = Reliability::Alternate;
    expectDigest(s, 0xe6328245931fd0d9ull);
}

TEST(LinkSimulatorPinned, IidLossReliable) {
    Scenario s;
    s.link = baseLink(20e6, 12);
    s.link.jitterStddevS = 0.002;
    s.link.lossRate = 0.05;
    expectDigest(s, 0x7365fe002f068ef2ull);
}

TEST(LinkSimulatorPinned, IidLossUnreliable) {
    Scenario s;
    s.link = baseLink(20e6, 13);
    s.link.jitterStddevS = 0.002;
    s.link.lossRate = 0.08;
    s.reliability = Reliability::Unreliable;
    expectDigest(s, 0x9e3c4330432a7a10ull);
}

TEST(LinkSimulatorPinned, GilbertElliottMixedReliability) {
    Scenario s;
    s.link = baseLink(15e6, 14);
    s.link.jitterStddevS = 0.003;
    s.link.lossRate = 0.01;
    s.link.faults.burstLoss.enabled = true;
    s.link.faults.burstLoss.pGoodToBad = 0.05;
    s.link.faults.burstLoss.pBadToGood = 0.3;
    s.link.faults.burstLoss.lossGood = 0.01;
    s.link.faults.burstLoss.lossBad = 0.5;
    s.reliability = Reliability::Alternate;
    s.maxRetransmissions = 3;
    expectDigest(s, 0x9daaa57600f1514bull);
}

TEST(LinkSimulatorPinned, OutageAndCollapseOverSquareTrace) {
    Scenario s;
    s.link = baseLink(0.0, 15);
    s.link.bandwidth = BandwidthTrace::square(12e6, 3e6, 0.7);
    s.link.jitterStddevS = 0.002;
    s.link.lossRate = 0.02;
    s.link.faults.outages.push_back({1.5, 0.4});
    s.link.faults.outages.push_back({4.0, 0.25});
    s.link.faults.collapses.push_back({2.5, 1.0, 0.1});
    s.reliability = Reliability::Alternate;
    expectDigest(s, 0x25b65c4288bd5632ull);
}

// Bursts far above the 4 Mbps drain into a 24 KB queue.
Scenario tailDrop() {
    Scenario s;
    s.link = baseLink(4e6, 16);
    s.link.jitterStddevS = 0.001;
    s.link.lossRate = 0.01;
    s.link.queueCapacityBytes = 24 * 1024;
    s.minBytes = 5000;
    s.maxBytes = 60000;
    s.intervalS = 0.01;
    s.reliability = Reliability::Alternate;
    s.maxRetransmissions = 4;
    return s;
}

TEST(LinkSimulatorPinned, TailDropReliableAndUnreliable) {
    expectDigest(tailDrop(), 0x3bdb226a2ca3c69eull);
}

// The same schedule on a link without an observer (the SFU downlink
// case): results must not depend on whether anyone watches the queue.
TEST(LinkSimulatorPinned, TailDropWithoutObserver) {
    Scenario s = tailDrop();
    s.observe = false;
    expectDigest(s, 0x887b5a91541df6a3ull);
}

// Each ~400 KB message spans ~290 packets, two or more draws per packet,
// so a single message's engine crosses its 312-word generation.
TEST(LinkSimulatorPinned, LargeMessagesCrossTheTwistGeneration) {
    Scenario s;
    s.link = baseLink(200e6, 17);
    s.link.jitterStddevS = 0.004;
    s.link.lossRate = 0.03;
    s.link.queueCapacityBytes = 8 * 1024 * 1024;
    s.messages = 12;
    s.minBytes = 400 * 1024;
    s.maxBytes = 480 * 1024;
    s.intervalS = 0.05;
    expectDigest(s, 0x65dab34a47dbb30dull);
}

}  // namespace
}  // namespace semholo::net
