// SFU conference sessions: the server-mediated topology of the paper's
// semantic coordinator (and of multi-client live-telepresence systems in
// the Van Holland et al. mould). Every participant uploads through one
// shared server-ingest bottleneck; the server fans the other N-1 streams
// back out over one downlink per viewer, thinned by that viewer's
// subscription ladder; and a BandwidthArbiter computes per-user target
// rates each tick (max-min or proportional-fair over the shared ingest
// bottleneck) that feed every participant's DegradationPolicy — replacing
// the uncoordinated first-to-recover-wins dynamics of N independent
// closed loops fighting over one queue.
//
// This is the conference entry API: a ConferenceConfig of owning
// Participant descriptors.
#pragma once

#include <functional>
#include <optional>

#include "semholo/core/session.hpp"

namespace semholo::core {

// ---- Bandwidth arbiter ---------------------------------------------------

enum class ArbiterStrategy {
    // No cross-user coordination: every user chases its own throughput
    // estimate (the legacy dynamics).
    None,
    // Max-min fair water-filling over per-user demands: unused share of
    // underloaded users is redistributed until everyone is either
    // satisfied or at the common fair share.
    MaxMin,
    // Proportional-fair: shares weighted by the inverse of each user's
    // historical delivered throughput, so participants the link has been
    // starving get priority while satisfied demands still free up share.
    ProportionalFair,
};

struct ArbiterConfig {
    ArbiterStrategy strategy{ArbiterStrategy::None};
    // Fraction of the instantaneous bottleneck rate handed out as
    // targets (headroom for packet overhead and estimate error).
    double safety{0.9};
    // Per-user floor: no target falls below this, so a user in a fault
    // window still probes at a minimal rate instead of starving forever.
    double minRateBps{64e3};
};

// Per-tick target-rate computation. Pure function of its inputs (no
// internal state), exposed so the allocation properties are unit-testable
// without running a conference.
class BandwidthArbiter {
public:
    explicit BandwidthArbiter(const ArbiterConfig& config) : config_(config) {}

    // Allocate 'capacityBps * safety' across users. demandBps[u] is the
    // user's offered rate at current quality (<= 0 means unknown: treated
    // as greedy). meanThroughputBps[u] is the user's historical delivered
    // throughput (<= 0 when no estimate yet; only ProportionalFair
    // consults it). Returns one target per user, each floored at
    // minRateBps; for MaxMin/ProportionalFair the targets sum to at most
    // capacity * safety (up to that floor).
    std::vector<double> allocate(double capacityBps,
                                 const std::vector<double>& demandBps,
                                 const std::vector<double>& meanThroughputBps) const;

    const ArbiterConfig& config() const { return config_; }

private:
    ArbiterConfig config_;
};

// ---- Per-viewer subscription ladder --------------------------------------

// One rung subscribes the next 'streams' remote streams (in ascending
// source order, self excluded) at 'byteScale' of their wire size — the
// server forwards a thinned representation for rungs below full quality.
struct SubscriptionRung {
    std::size_t streams{std::numeric_limits<std::size_t>::max()};
    double byteScale{1.0};
};

struct SubscriptionLadder {
    // Empty = one implicit rung: every remote stream at full quality.
    std::vector<SubscriptionRung> rungs;

    // Byte scale for the remote stream at 'position' (0-based index into
    // this viewer's candidate list), or nullopt when the ladder does not
    // subscribe to it (positions past the last rung are unsubscribed).
    std::optional<double> scaleForPosition(std::size_t position) const;
};

// ---- Conference configuration --------------------------------------------

// One participant: which channel they publish (built on ChannelSpec, so
// conferences are data) and their downlink subscription ladder. The rest
// is conference-wide: participant u's motion uses seed
// session.motionSeed + u, every participant runs session.degradation and
// sends over session.link, and every viewer receives over
// ConferenceConfig::downlink.
struct Participant {
    ChannelSpec channel;
    // Escape hatch for channels whose options a ChannelSpec cannot
    // express (vector-valued params like LOD ladders): when set, used
    // instead of 'channel'.
    std::function<std::unique_ptr<SemanticChannel>(const body::BodyModel&)>
        channelFactory;
    SubscriptionLadder subscription;
};

struct ConferenceConfig {
    std::vector<Participant> participants;
    // Conference-wide settings: fps, frames, timing model, transfer
    // options, the shared uplink (session.link), the motion seed base,
    // the degradation ladder, and the worker count.
    SessionConfig session;
    ArbiterConfig arbiter;
    // Every participant's uplink traverses one bottleneck LinkSimulator
    // built from session.link (the server-ingest model, where
    // participants congest each other). That is the only topology:
    // runConference throws std::invalid_argument when this is false.
    bool sharedUplink{true};
    // Model the downlink fan-out: one LinkSimulator per viewer carrying
    // the other N-1 streams, with per-(viewer, source) accounting in
    // MultiSessionStats::downlinks.
    bool enableDownlinks{true};
    // Every viewer's downlink from the server (one LinkSimulator each).
    net::LinkConfig downlink{};
    // Maximum capture ticks in flight in the event-driven stage graph: a
    // user's tick f encode is released once its own tick f-1 feedback
    // (and decode) landed AND tick f-depth fully retired, so fast users
    // pipeline ahead of stragglers by up to this many ticks. 1 reproduces
    // the legacy per-tick barrier schedule. The value changes scheduling
    // only, never results: serial and pipelined runs are byte-identical
    // at any depth and any worker count.
    std::size_t pipelineDepth{4};
};

// Run an SFU conference: constructs each participant's channel from its
// descriptor (makeChannel, or the factory when set), then runs the
// frame-tick scheduler — serial or parallel by session.workers, with the
// same byte-identity contract as runSession. Per-downlink stream
// accounting lands in MultiSessionStats::downlinks; arbiter targets in
// MultiSessionStats::fairness.
MultiSessionStats runConference(const ConferenceConfig& config,
                                const body::BodyModel& model);

}  // namespace semholo::core
