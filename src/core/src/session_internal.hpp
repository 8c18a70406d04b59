// Internals of the session engine: stat aggregation and the engine's one
// entry point. Not installed.
#pragma once

#include "semholo/core/conference.hpp"
#include "semholo/core/session.hpp"

namespace semholo::core::internal {

// Record stats.frames into the per-stage telemetry histograms and frame
// counters, then derive the figures telemetry cannot express
// (bandwidth, achievable FPS, Chamfer mean). Link-level counters
// (packets, retransmissions, queue depth) are recorded separately by the
// engine's uplink node.
void finalizeSessionStats(SessionStats& stats, const SessionConfig& config);

// Per-user finalize, merged telemetry and aggregate bandwidth.
void finalizeMultiSessionStats(MultiSessionStats& out, const SessionConfig& config);

// The one session engine (multiuser_session.cpp): an event-driven stage
// graph of per-(tick, user) nodes for arbiter targets, encode, sequenced
// uplink entry (one ticket chain preserving the (frame, user) order on
// the shared uplink), downlink fan-out, decode, sampled quality evaluation and tick
// retirement, with explicit dependency edges, held as a rolling window
// of pipelineDepth + 2 ticks that one tick builder extends as ticks
// retire. A node is its (kind, tick, user); one engine-wide body runs
// it, and the encode, uplink, decode and quality nodes write the tick's
// FrameStats in place. The engine
// resolves conf.session.workers (0 = hardware concurrency) and owns its
// ThreadPool: at one worker the graph runs in insertion order (the
// per-tick phase schedule) on the calling thread; otherwise nodes run
// the moment their dependencies complete, pipelining up to
// ConferenceConfig::pipelineDepth ticks. Both schedules touch every
// mutable resource in the same per-resource order, so runs are
// byte-identical under TimingModel::Simulated at any worker count.
// 'channels' are externally owned, one per conf.participants entry
// (built by runConference from the descriptors, or supplied verbatim by
// runSession).
MultiSessionStats runEngine(const ConferenceConfig& conf,
                            const std::vector<SemanticChannel*>& channels,
                            const body::BodyModel& model);

}  // namespace semholo::core::internal
