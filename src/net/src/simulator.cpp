#include "semholo/net/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "lazy_mt19937_64.hpp"

namespace semholo::net {

namespace {

// Pathological configurations (all-zero trace, unbounded outage lists)
// must not spin the segment walk forever; a transfer pushed past this
// horizon is treated as stalled at it.
constexpr double kMaxHorizonS = 1e7;

}  // namespace

LinkSimulator::LinkSimulator(const LinkConfig& config)
    : config_(config),
      outageSeen_(config.faults.outages.size(), false),
      collapseSeen_(config.faults.collapses.size(), false) {}

double LinkSimulator::effectiveRateAt(double time) const {
    return config_.bandwidth.rateAt(time) * config_.faults.rateMultiplier(time);
}

double LinkSimulator::nextBoundaryAfter(double t) const {
    const double iv = config_.bandwidth.interval();
    double next = (std::floor(t / iv + 1e-9) + 1.0) * iv;
    const auto consider = [&](double edge) {
        if (edge > t + 1e-12 && edge < next) next = edge;
    };
    for (const OutageWindow& o : config_.faults.outages) {
        consider(o.startS);
        consider(o.startS + o.durationS);
    }
    for (const BandwidthCollapse& c : config_.faults.collapses) {
        consider(c.startS);
        consider(c.startS + c.durationS);
    }
    return next;
}

double LinkSimulator::integrateBits(double t0, double t1) const {
    t0 = std::max(t0, 0.0);
    if (t1 <= t0) return 0.0;
    double bits = 0.0;
    double t = t0;
    while (t < t1 - 1e-12) {
        const double end = std::min(t1, nextBoundaryAfter(t));
        if (end <= t) break;  // FP guard
        bits += effectiveRateAt(0.5 * (t + end)) * (end - t);
        t = end;
    }
    return bits;
}

double LinkSimulator::drainDeadline(double from, double bits) const {
    double t = std::max(from, 0.0);
    double remaining = bits;
    while (remaining > 1e-9 && t < kMaxHorizonS) {
        const double end = nextBoundaryAfter(t);
        // FP guard (as in integrateBits): at large t the +1 interval step
        // underflows and the "next" boundary lands at or before t, which
        // would spin this walk forever without advancing.
        if (end <= t) break;
        const double rate = effectiveRateAt(0.5 * (t + end));
        const double segBits = rate * (end - t);
        if (segBits >= remaining) return t + remaining / rate;
        remaining -= segBits;
        t = end;
    }
    return t;
}

std::size_t LinkSimulator::backlogBytes(double at, double until) const {
    if (until <= at) return 0;
    return static_cast<std::size_t>(integrateBits(at, until) / 8.0);
}

std::size_t LinkSimulator::queuedBytesAt(double time) const {
    return backlogBytes(time, busyUntil_);
}

void LinkSimulator::noteFaultWindows(double start, double end,
                                     TransferResult& result) {
    // Half-open interval overlap on both sides: the transfer [start, end)
    // against the window [s, s + d). A transfer completing exactly at a
    // window's start never entered it (the old 'end >= s' mixed a closed
    // end into an otherwise half-open test and counted such transfers).
    const auto overlaps = [&](double s, double d) {
        return start < s + d && end > s;
    };
    for (std::size_t i = 0; i < config_.faults.outages.size(); ++i) {
        const OutageWindow& o = config_.faults.outages[i];
        if (!outageSeen_[i] && overlaps(o.startS, o.durationS)) {
            outageSeen_[i] = true;
            ++result.faultEvents;
        }
    }
    for (std::size_t i = 0; i < config_.faults.collapses.size(); ++i) {
        const BandwidthCollapse& c = config_.faults.collapses[i];
        if (!collapseSeen_[i] && overlaps(c.startS, c.durationS)) {
            collapseSeen_[i] = true;
            ++result.faultEvents;
        }
    }
}

TransferResult LinkSimulator::sendMessage(std::size_t bytes, double sendTime,
                                          const TransferOptions& options,
                                          std::uint64_t senderTag,
                                          std::uint64_t receiverTag) {
    // The backlog walk is for the observer only; unobserved links (the
    // SFU downlinks) skip it.
    const std::size_t queuedAtSend = observer_ ? queuedBytesAt(sendTime) : 0;
    TransferResult result = sendMessageImpl(bytes, sendTime, options);
    result.senderTag = senderTag;
    result.receiverTag = receiverTag;
    if (observer_) observer_(result, queuedAtSend);
    return result;
}

TransferResult LinkSimulator::sendMessageImpl(std::size_t bytes, double sendTime,
                                              const TransferOptions& options) {
    TransferResult result;
    result.startTime = sendTime;
    result.bytes = bytes;
    if (bytes == 0) {
        result.delivered = true;
        result.completionTime = sendTime + config_.propagationDelayS;
        return result;
    }

    // A fresh engine per message; lazily seeded, since a message usually
    // draws a few numbers and a full std::mt19937_64 seed + twist would
    // dominate the send (same outputs, see lazy_mt19937_64.hpp).
    internal::LazyMt19937_64 rng(config_.seed ^
                                 (packetCounter_ * 0x9E3779B97F4A7C15ull) ^
                                 static_cast<std::uint64_t>(sendTime * 1e6));
    // A unit normal scaled by hand: normal_distribution requires
    // stddev > 0, and jitter-free links (stddev 0) still take the draw.
    // normal_distribution(0, stddev) returns z * stddev + 0.0, which
    // adds to the delay exactly as z * stddev does.
    std::normal_distribution<double> unitNormal(0.0, 1.0);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    const GilbertElliott& burst = config_.faults.burstLoss;

    // Per-attempt loss probability: i.i.d. floor, or the Gilbert-Elliott
    // chain state when burst loss is enabled (one transition draw per
    // attempt, so bursts span packets deterministically under the seed).
    const auto lossProbability = [&]() {
        double p = config_.lossRate;
        if (burst.enabled) {
            if (burstStateBad_) {
                if (uni(rng) < burst.pBadToGood) burstStateBad_ = false;
            } else if (uni(rng) < burst.pGoodToBad) {
                burstStateBad_ = true;
                ++result.faultEvents;
            }
            p = std::max(p, burstStateBad_ ? burst.lossBad : burst.lossGood);
        }
        return p;
    };

    const std::size_t packetCount = (bytes + kMtuBytes - 1) / kMtuBytes;
    result.packets = packetCount;
    const double rtt = 2.0 * config_.propagationDelayS;

    // 'queueTime' is when the last accepted byte finishes serialising —
    // the tail of the work-conserving FIFO backlog.
    double queueTime = std::max(sendTime, busyUntil_);
    double lastArrival = sendTime;

    for (std::size_t p = 0; p < packetCount; ++p) {
        ++packetCounter_;
        const std::size_t packetBytes =
            p + 1 == packetCount ? bytes - p * kMtuBytes : kMtuBytes;

        bool deliveredPacket = false;
        double enqueueTime = sendTime;
        int attempts = 0;
        while (attempts <= options.maxRetransmissions) {
            // Tail drop against the exact occupancy at this packet's
            // enqueue instant: earlier packets of this same message are
            // part of the backlog, so an oversized burst overflows
            // mid-message.
            if (backlogBytes(enqueueTime, queueTime) + packetBytes >
                config_.queueCapacityBytes) {
                ++result.droppedAtQueue;
                if (!options.reliable) break;  // gone: no link time consumed
                // A reliable sender detects the drop one RTT after the
                // attempt and re-enqueues — the drop costs real delay.
                ++result.retransmissions;
                ++attempts;
                enqueueTime += rtt;
                continue;
            }
            const double startDrain = std::max(enqueueTime, queueTime);
            const double departure =
                drainDeadline(startDrain, static_cast<double>(packetBytes) * 8.0);
            const double p_loss = lossProbability();
            const bool lost = uni(rng) < p_loss;
            // One-way delay: mean-preserving jitter around the
            // propagation delay, clamped so delay never goes negative
            // (E[delay] == propagationDelayS whenever the jitter tail
            // does not cross zero, instead of the old max(0, jitter)
            // truncation that biased the mean upward).
            const double delay =
                std::max(0.0, config_.propagationDelayS +
                                  unitNormal(rng) * config_.jitterStddevS);
            if (lost) {
                if (attempts == 0) ++result.lostPackets;
                // The packet crossed the bottleneck before being lost,
                // so it consumed queue capacity and link time.
                queueTime = departure;
                if (!options.reliable) break;
                ++result.retransmissions;
                ++attempts;
                enqueueTime = departure + rtt;
                continue;
            }
            deliveredPacket = true;
            queueTime = departure;
            lastArrival = std::max(lastArrival, departure + delay);
            break;
        }

        if (deliveredPacket) {
            ++result.deliveredPackets;
        } else {
            ++result.unrecoveredPackets;
            if (options.reliable) {
                // Retransmission budget exhausted: the message aborts;
                // its unsent remainder never reaches the receiver.
                result.unrecoveredPackets += packetCount - p - 1;
                break;
            }
        }
    }

    busyUntil_ = queueTime;
    result.delivered = result.unrecoveredPackets == 0;
    result.completionTime = lastArrival;
    noteFaultWindows(result.startTime, result.completionTime, result);
    return result;
}

}  // namespace semholo::net
