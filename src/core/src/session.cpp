#include "semholo/core/session.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "session_internal.hpp"

namespace semholo::core {

namespace internal {

namespace {

// Wire bytes over the session's capture span, in Mbps; 0 for a
// zero-span session (frames == 0 or fps <= 0), never a division by zero.
double sessionMbps(double bytes, const SessionConfig& config) {
    const double spanS =
        config.fps > 0.0 ? static_cast<double>(config.frames) / config.fps : 0.0;
    return spanS > 0.0 ? bytes * 8.0 / spanS / 1e6 : 0.0;
}

}  // namespace

void finalizeSessionStats(SessionStats& stats, const SessionConfig& config) {
    // Each stage's histogram holds the frames that actually ran that
    // stage: frames dropped at the sender never ran encode, frames
    // dropped at the receiver never ran decode.
    double sumStage = 0.0, sumChamfer = 0.0;
    std::size_t evaluated = 0;
    telemetry::SessionTelemetry& t = stats.telemetry;
    t.counters.framesCaptured += stats.frames.size();
    for (const FrameStats& frame : stats.frames) {
        if (frame.droppedAtSender) {
            ++t.counters.dropsAtSender;
            continue;
        }
        t.encodeMs.record(frame.extractMs);
        t.transferMs.record(frame.transferMs);
        t.bytesPerFrame.record(static_cast<double>(frame.bytes));
        if (frame.droppedAtReceiver) {
            ++t.counters.dropsAtReceiver;
            continue;
        }
        if (frame.delivered) {
            ++t.counters.framesDelivered;
            t.e2eMs.record(frame.e2eMs);
        }
        if (frame.decoded) {
            ++t.counters.framesDecoded;
            t.decodeMs.record(frame.reconMs);
            sumStage += std::max(frame.extractMs, frame.reconMs);
        }
        if (!std::isnan(frame.chamfer)) {
            sumChamfer += frame.chamfer;
            t.qualityMs.record(frame.qualityMs);
            ++evaluated;
        }
    }
    stats.bandwidthMbps = sessionMbps(t.bytesPerFrame.sum(), config);
    if (t.counters.framesDecoded > 0) {
        const double meanStage =
            sumStage / static_cast<double>(t.counters.framesDecoded);
        stats.achievableFps = meanStage > 0.0 ? 1000.0 / meanStage : config.fps;
    }
    if (evaluated > 0) stats.meanChamfer = sumChamfer / static_cast<double>(evaluated);
}

void finalizeMultiSessionStats(MultiSessionStats& out, const SessionConfig& config) {
    for (SessionStats& s : out.perUser) {
        finalizeSessionStats(s, config);
        out.telemetry.merge(s.telemetry);
    }
    out.aggregateMbps = sessionMbps(out.telemetry.bytesPerFrame.sum(), config);
}

}  // namespace internal

std::size_t MultiSessionStats::usersWithinLatency(double budgetMs) const {
    std::size_t n = 0;
    // A user with no delivered frame has a NaN mean and never qualifies.
    for (const SessionStats& s : perUser)
        if (s.telemetry.e2eMs.mean() <= budgetMs) ++n;
    return n;
}

SessionStats runSession(SemanticChannel& channel, const body::BodyModel& model,
                        const SessionConfig& config) {
    // A one-participant conference: no downlink fan-out, no arbiter.
    ConferenceConfig conf;
    conf.session = config;
    conf.participants.resize(1);
    conf.enableDownlinks = false;
    return std::move(
        internal::runEngine(conf, {&channel}, model).perUser[0]);
}

}  // namespace semholo::core
