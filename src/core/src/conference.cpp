// Conference entry points and the bandwidth arbiter. The engine itself
// (the event-driven stage-graph scheduler) lives in multiuser_session.cpp;
// this file owns the descriptor -> channel construction, the per-tick
// allocation math, and the JSON export of session / conference stats.
#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "semholo/core/conference.hpp"
#include "session_internal.hpp"

namespace semholo::core {

// ---- SubscriptionLadder ----------------------------------------------------

std::optional<double> SubscriptionLadder::scaleForPosition(
    std::size_t position) const {
    if (rungs.empty()) return 1.0;  // implicit everything-at-full-quality rung
    std::size_t covered = 0;
    for (const SubscriptionRung& rung : rungs) {
        // Saturating add: the default rung spans "all remaining".
        if (rung.streams >= std::numeric_limits<std::size_t>::max() - covered)
            return position >= covered ? std::optional<double>(rung.byteScale)
                                       : std::nullopt;
        covered += rung.streams;
        if (position < covered) return rung.byteScale;
    }
    return std::nullopt;  // past the last rung: unsubscribed
}

// ---- BandwidthArbiter ------------------------------------------------------

std::vector<double> BandwidthArbiter::allocate(
    double capacityBps, const std::vector<double>& demandBps,
    const std::vector<double>& meanThroughputBps) const {
    const std::size_t users = demandBps.size();
    std::vector<double> targets(users, 0.0);
    if (users == 0) return targets;
    const double budget =
        std::max(0.0, capacityBps) * std::clamp(config_.safety, 0.0, 1.0);
    const double floor = std::max(0.0, config_.minRateBps);

    switch (config_.strategy) {
        case ArbiterStrategy::None: {
            // No coordination: everyone may chase the whole pipe.
            std::fill(targets.begin(), targets.end(),
                      std::max(budget, floor));
            return targets;
        }
        case ArbiterStrategy::MaxMin: {
            // Water-filling: repeatedly hand every unsatisfied user an
            // equal share of what is left; users whose demand is below
            // the share are capped at their demand and their surplus is
            // redistributed. Demand <= 0 means unknown -> greedy (never
            // satisfied early).
            std::vector<bool> fixed(users, false);
            double remaining = budget;
            std::size_t active = users;
            while (active > 0) {
                const double share = remaining / static_cast<double>(active);
                bool capped = false;
                for (std::size_t u = 0; u < users; ++u) {
                    if (fixed[u]) continue;
                    if (demandBps[u] > 0.0 && demandBps[u] <= share) {
                        targets[u] = demandBps[u];
                        remaining -= demandBps[u];
                        fixed[u] = true;
                        --active;
                        capped = true;
                    }
                }
                if (!capped) {
                    for (std::size_t u = 0; u < users; ++u)
                        if (!fixed[u]) targets[u] = share;
                    break;
                }
            }
            break;
        }
        case ArbiterStrategy::ProportionalFair: {
            // Shares weighted by inverse historical throughput: users the
            // link has been starving carry the larger weight. A user with
            // no estimate yet gets the heaviest weight in play (they have
            // received nothing so far). Demand still caps the grant and
            // surplus is redistributed, so a satisfied light user cannot
            // hoard share.
            double minTp = std::numeric_limits<double>::max();
            for (double tp : meanThroughputBps)
                if (tp > 0.0) minTp = std::min(minTp, tp);
            if (minTp == std::numeric_limits<double>::max()) minTp = 1.0;
            std::vector<double> weight(users);
            for (std::size_t u = 0; u < users; ++u)
                weight[u] = 1.0 / std::max(meanThroughputBps[u], minTp);
            std::vector<bool> fixed(users, false);
            double remaining = budget;
            std::size_t active = users;
            while (active > 0) {
                double weightSum = 0.0;
                for (std::size_t u = 0; u < users; ++u)
                    if (!fixed[u]) weightSum += weight[u];
                if (weightSum <= 0.0) break;
                bool capped = false;
                for (std::size_t u = 0; u < users; ++u) {
                    if (fixed[u]) continue;
                    const double share = remaining * weight[u] / weightSum;
                    if (demandBps[u] > 0.0 && demandBps[u] <= share) {
                        targets[u] = demandBps[u];
                        remaining -= demandBps[u];
                        fixed[u] = true;
                        --active;
                        capped = true;
                    }
                }
                if (!capped) {
                    for (std::size_t u = 0; u < users; ++u)
                        if (!fixed[u])
                            targets[u] = remaining * weight[u] / weightSum;
                    break;
                }
            }
            break;
        }
    }
    for (double& t : targets) t = std::max(t, floor);
    return targets;
}

// ---- Entry points ----------------------------------------------------------

MultiSessionStats runConference(const ConferenceConfig& config,
                                const body::BodyModel& model) {
    if (!config.sharedUplink)
        throw std::invalid_argument(
            "ConferenceConfig::sharedUplink must be true: the engine models "
            "one shared uplink");
    std::vector<std::unique_ptr<SemanticChannel>> owned;
    owned.reserve(config.participants.size());
    for (const Participant& p : config.participants) {
        if (p.channelFactory) {
            owned.push_back(p.channelFactory(model));
            if (!owned.back())
                throw std::invalid_argument(
                    "Participant::channelFactory returned null");
        } else if (!p.channel.kind.empty()) {
            owned.push_back(makeChannel(p.channel, &model));
        } else {
            throw std::invalid_argument(
                "Participant needs a ChannelSpec kind or a channelFactory");
        }
    }
    std::vector<SemanticChannel*> channels;
    channels.reserve(owned.size());
    for (const auto& c : owned) channels.push_back(c.get());
    return internal::runEngine(config, channels, model);
}

// ---- JSON export -----------------------------------------------------------

std::string toJsonValue(const SessionStats& stats) {
    telemetry::JsonWriter w;
    w.beginObject();
    w.field("frames", static_cast<std::uint64_t>(stats.frames.size()));
    w.field("bandwidth_mbps", stats.bandwidthMbps);
    w.field("achievable_fps", stats.achievableFps);
    w.field("mean_chamfer", stats.meanChamfer);
    w.raw("telemetry", telemetry::toJsonValue(stats.telemetry));
    w.endObject();
    return w.str();
}

std::string toJsonValue(const MultiSessionStats& stats) {
    telemetry::JsonWriter w;
    w.beginObject();
    w.field("users", static_cast<std::uint64_t>(stats.perUser.size()));
    w.field("aggregate_mbps", stats.aggregateMbps);
    w.field("fairness_index", stats.fairnessIndex);
    w.beginArray("fairness");
    for (std::size_t u = 0; u < stats.fairness.size(); ++u) {
        const UserFairnessStats& f = stats.fairness[u];
        w.beginObject()
            .field("user", static_cast<std::uint64_t>(u))
            .field("delivery_ratio", f.deliveryRatio)
            .field("bandwidth_share", f.bandwidthShare)
            .field("target_rate_mbps", f.targetRateMbps)
            .field("final_degradation_level",
                   static_cast<std::uint64_t>(f.finalDegradationLevel))
            .endObject();
    }
    w.endArray();
    if (!stats.downlinks.empty()) {
        w.field("server_fanout_frames", stats.serverFanoutFrames);
        w.field("server_fanout_bytes", stats.serverFanoutBytes);
        w.beginArray("downlinks");
        for (const DownlinkStats& d : stats.downlinks) {
            w.beginObject()
                .field("viewer", static_cast<std::uint64_t>(d.viewer))
                .field("frames_forwarded",
                       static_cast<std::uint64_t>(d.framesForwarded))
                .field("frames_delivered",
                       static_cast<std::uint64_t>(d.framesDelivered))
                .field("bytes_forwarded", d.bytesForwarded)
                .field("bytes_delivered", d.bytesDelivered)
                .field("packets", d.packets)
                .field("packets_delivered", d.packetsDelivered)
                .field("packets_unrecovered", d.packetsUnrecovered)
                .field("fanout_share", d.fanoutShare)
                .field("mean_transfer_ms", d.meanTransferMs);
            w.beginArray("streams");
            for (const DownlinkStreamStats& s : d.streams) {
                w.beginObject()
                    .field("source", static_cast<std::uint64_t>(s.source))
                    .field("frames_forwarded",
                           static_cast<std::uint64_t>(s.framesForwarded))
                    .field("frames_delivered",
                           static_cast<std::uint64_t>(s.framesDelivered))
                    .field("bytes_forwarded", s.bytesForwarded)
                    .field("bytes_delivered", s.bytesDelivered)
                    .field("packets", s.packets)
                    .field("packets_delivered", s.packetsDelivered)
                    .field("packets_unrecovered", s.packetsUnrecovered)
                    .endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
    }
    const PipelineStats& p = stats.pipeline;
    w.beginObject("pipeline");
    w.field("workers", static_cast<std::uint64_t>(p.workers));
    w.field("pipeline_depth", static_cast<std::uint64_t>(p.pipelineDepth));
    w.field("nodes", p.nodes);
    w.field("edges", static_cast<std::uint64_t>(p.edges));
    w.field("resident_nodes", p.residentNodes);
    w.field("max_ticks_in_flight", p.maxTicksInFlight);
    w.field("mean_ticks_in_flight", p.meanTicksInFlight);
    w.field("wall_ms", p.wallMs);
    w.field("simulated_stage_graph_ms", p.simulatedStageGraphMs);
    w.field("simulated_barrier_ms", p.simulatedBarrierMs);
    w.field("simulated_speedup", p.simulatedSpeedup);
    w.field("simulated_idle_ms", p.simulatedIdleMs);
    w.field("simulated_barrier_idle_ms", p.simulatedBarrierIdleMs);
    w.beginArray("stages");
    for (const PipelineStageStats& s : p.stages) {
        w.beginObject()
            .field("stage", s.stage)
            .field("nodes", s.nodes)
            .field("busy_ms", s.busyMs)
            .field("max_concurrent", static_cast<std::uint64_t>(s.maxConcurrent))
            .field("release_latency_count",
                   static_cast<std::uint64_t>(s.releaseLatencyMs.count()))
            .field("release_latency_mean_ms", s.releaseLatencyMs.mean())
            .field("release_latency_p95_ms", s.releaseLatencyMs.p95())
            .field("release_latency_max_ms", s.releaseLatencyMs.max())
            .endObject();
    }
    w.endArray();
    w.endObject();
    w.raw("telemetry", telemetry::toJsonValue(stats.telemetry));
    w.endObject();
    return w.str();
}

}  // namespace semholo::core
