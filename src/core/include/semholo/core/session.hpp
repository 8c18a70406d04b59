// End-to-end telepresence session: sender pipeline -> simulated Internet
// path -> receiver pipeline, per-frame accounting of every Figure 1
// stage, and (optionally sampled) reconstruction quality against the
// ground-truth capture mesh.
//
// There is one session engine: a completion-event-driven stage graph
// (encode -> sequenced uplink ticket -> downlink fan-out -> decode ->
// quality per user and tick, with explicit dependency edges). The graph
// is a rolling window of ConferenceConfig::pipelineDepth + 2 ticks: each
// tick's retire node builds the tick pipelineDepth + 1 ahead, so the
// engine's scheduling state does not grow with the run (the per-frame
// results in SessionStats::frames still do). A one-way session is its
// one-participant case. Every participant's
// throughput estimator and DegradationPolicy observe their own link
// outcomes before their next tick encodes (the closed loop of the
// paper's semantic coordinator), while users whose feedback already
// landed may pipeline ahead of stragglers up to
// ConferenceConfig::pipelineDepth ticks. The sampled Chamfer evaluation
// runs in its own node, off the encode -> decode chain.
//
// workers == 1 runs the graph in insertion order on the calling thread;
// any other value runs it event-driven over a worker pool. With
// TimingModel::Simulated the pipeline clock is fully deterministic, so
// `workers=1` and `workers=N` produce byte-identical per-frame
// bytes/delivered/dropped sequences (see tests/core/test_parallel_session).
#pragma once

#include <limits>

#include "semholo/body/animation.hpp"
#include "semholo/core/channel.hpp"
#include "semholo/core/degradation.hpp"
#include "semholo/core/telemetry.hpp"
#include "semholo/net/simulator.hpp"

namespace semholo::core {

// What advances the pipeline availability clocks (extractor/recon busy
// times, link send times). Either way the engine times every encode and
// decode call and reports wall + simulated cost in
// FrameStats::extractMs / reconMs; the model only decides what the
// clocks charge.
enum class TimingModel {
    // Wall time of the channel call + its simulated DL inference time
    // (legacy). Wall time varies run to run, so drop decisions and link
    // timings are only statistically reproducible.
    Measured,
    // Only the simulated (deterministic) stage costs drive the clocks;
    // the wall time is still *reported* in FrameStats/telemetry but never
    // influences scheduling. Use for determinism tests and for comparing
    // engines bit-for-bit.
    Simulated,
};

// One session's settings. In a conference (ConferenceConfig::session)
// they are the settings every participant shares: 'link' is the one
// shared uplink, and participant u's motion uses seed motionSeed + u.
// Gaze-aware channels see a fixed viewer head facing the captured body.
struct SessionConfig {
    double fps{30.0};
    std::size_t frames{60};
    net::LinkConfig link{};
    net::TransferOptions transfer{};
    body::MotionKind motion{body::MotionKind::Talk};
    std::uint32_t motionSeed{1};
    // Evaluate decoded-mesh quality vs ground truth every N frames
    // (0 = never; quality evaluation costs mesh sampling time).
    std::size_t qualityEvalInterval{0};
    std::size_t qualitySamples{6000};
    // Sender extraction and receiver reconstruction are single pipeline
    // stages: when true, a frame that arrives while its stage is still
    // busy with an earlier frame is dropped (live-streaming behaviour);
    // when false, frames queue and latency grows without bound for
    // stages slower than the frame interval.
    bool dropWhenBusy{true};
    // Worker threads running the stage graph: 0 = hardware_concurrency,
    // 1 = insertion order on the calling thread.
    std::size_t workers{0};
    TimingModel timing{TimingModel::Measured};
    // Closed-loop graceful degradation: when enabled, the engine runs one
    // DegradationPolicy (and one throughput estimator) per participant
    // over that participant's link outcomes and scales the bandwidth
    // estimate fed to rate-adaptive channels, stepping quality down
    // under sustained congestion or injected faults and back up on
    // recovery. Each outcome is observed before that participant's next
    // encode, so adaptation stays per-user even over a shared bottleneck.
    // Transitions land in that user's telemetry (counters.degradations /
    // upgrades); the final ladder level in MultiSessionStats::fairness.
    DegradationConfig degradation{};
};

struct FrameStats {
    std::uint32_t frameId{};
    std::size_t bytes{};
    double extractMs{};    // encode-call wall time + simulated sender inference
    double transferMs{};   // network (queue + serialisation + propagation)
    double reconMs{};      // decode-call wall time + simulated receiver inference
    double e2eMs{};        // capture-to-render
    double qualityMs{};    // Chamfer-eval wall time (0 when not evaluated)
    bool delivered{false};
    bool decoded{false};
    bool droppedAtSender{false};    // extractor still busy at capture time
    bool droppedAtReceiver{false};  // reconstructor still busy at arrival
    // Chamfer distance vs ground truth when evaluated, NaN otherwise.
    double chamfer{std::numeric_limits<double>::quiet_NaN()};
};

// Per-session results. 'telemetry' is the one store of counts and
// per-stage samples: frame counts and drops live in telemetry.counters,
// and per-frame means and percentiles come from its histograms (e.g.
// telemetry.e2eMs.mean() / .p95()). The remaining fields are figures
// telemetry cannot express.
struct SessionStats {
    std::vector<FrameStats> frames;

    // Wire bytes sent over the session span, in Mbps.
    double bandwidthMbps{};
    // Pipeline-limited frame rate: 1000 / mean(max(extract, recon)) over
    // the decoded frames — stages pipeline across frames, so the slower
    // stage bounds FPS. NaN when no frame was reconstructed.
    double achievableFps{std::numeric_limits<double>::quiet_NaN()};
    // Mean Chamfer over evaluated frames (NaN when never evaluated).
    double meanChamfer{std::numeric_limits<double>::quiet_NaN()};
    // Per-stage wall-time histograms (p50/p95/p99), frame and drop
    // counters, link counters, and bottleneck queue-depth samples.
    telemetry::SessionTelemetry telemetry;
};

// Run a one-way session (site A captures, site B renders): the
// one-participant conference over config.link as a shared uplink, with
// no downlink fan-out and no arbiter. Calls channel.reset() before the
// first frame.
SessionStats runSession(SemanticChannel& channel, const body::BodyModel& model,
                        const SessionConfig& config);

// ---- Multi-user sessions -------------------------------------------------
//
// N participants upload through one shared bottleneck (the conference-
// server model of the multi-user volumetric delivery literature the
// paper builds on). Every user runs their own channel instance and
// motion seed; their frames interleave on the shared link in capture
// order, so heavy channels congest each other. Each channel is reset()
// before its first frame.
//
// The sequenced link stage carries each tick's messages in user order,
// and each user's throughput estimator and DegradationPolicy observe
// their own link outcomes before that user's next tick encodes, so
// conference participants get the same closed-loop feedback as a
// one-way session. Under TimingModel::Simulated runs are byte-identical
// at any worker count.

// Per-participant fairness accounting for one multi-user session: how
// delivery, bandwidth and the degradation ladder were shared.
// Counts, bandwidth and degradation transitions are in the user's
// SessionStats (perUser[u].telemetry).
struct UserFairnessStats {
    // Delivered / captured frames (0 when no frames captured).
    double deliveryRatio{};
    // This user's fraction of all wire bytes across the conference
    // (0 when nothing was sent).
    double bandwidthShare{};
    // Ladder level in effect when the session ended (0 = full quality).
    std::size_t finalDegradationLevel{};
    // Mean BandwidthArbiter target over the session (0 when no arbiter
    // ran): the uplink rate the conference server asked this user to
    // hold.
    double targetRateMbps{};
};

// ---- SFU downlink accounting ---------------------------------------------
//
// When a conference runs with downlinks enabled (runConference,
// semholo/core/conference.hpp), the server fans each delivered uplink
// frame back out to every subscribed viewer. One DownlinkStats per
// viewer, one DownlinkStreamStats per (viewer, source) subscription.

struct DownlinkStreamStats {
    std::size_t source{};              // publishing participant
    std::size_t framesForwarded{};     // frames the server put on this downlink
    std::size_t framesDelivered{};     // forwarded frames that arrived
    std::uint64_t bytesForwarded{};    // wire bytes the server forwarded
    std::uint64_t bytesDelivered{};    // wire bytes that arrived
    std::uint64_t packets{};
    std::uint64_t packetsDelivered{};
    std::uint64_t packetsUnrecovered{};
};

struct DownlinkStats {
    std::size_t viewer{};
    // Totals across this viewer's subscribed streams (sums of 'streams').
    std::size_t framesForwarded{};
    std::size_t framesDelivered{};
    std::uint64_t bytesForwarded{};
    std::uint64_t bytesDelivered{};
    std::uint64_t packets{};
    std::uint64_t packetsDelivered{};
    std::uint64_t packetsUnrecovered{};
    // This viewer's fraction of all bytes the server fanned out; NaN
    // when the server fanned out nothing.
    double fanoutShare{std::numeric_limits<double>::quiet_NaN()};
    // Mean downlink transfer time per forwarded frame; NaN when nothing
    // was forwarded to this viewer.
    double meanTransferMs{std::numeric_limits<double>::quiet_NaN()};
    std::vector<DownlinkStreamStats> streams;
};

// ---- Stage-graph pipeline telemetry ----------------------------------------
//
// The conference engine executes as a completion-event-driven stage graph
// (see DESIGN.md "Event-driven conference stage graph"): every per-user
// frame is a chain of nodes (encode -> uplink ticket -> downlink fan-out
// -> decode, plus a quality node at sampled ticks) with explicit
// dependency edges, and a retire node per tick bounds how many ticks may
// be in flight (ConferenceConfig::pipelineDepth) and builds the tick
// that enters the graph's rolling window.
// These stats describe how deep the pipeline actually ran and what the
// event-driven schedule bought over the legacy per-tick barrier.

struct PipelineStageStats {
    std::string stage;  // "arbiter" | "encode" | "uplink" | "downlink" |
                        // "decode" | "quality" | "retire"
    std::uint64_t nodes{};
    // Sum of node-body wall time (ms) spent in this stage.
    double busyMs{};
    // Peak number of this stage's nodes executing concurrently (1 for
    // workers = 1 and for sequenced stages such as the uplink tickets).
    std::size_t maxConcurrent{};
    // Wall latency (ms) from a node's last dependency completing to the
    // node starting — queueing delay in the worker pool (0 when a node
    // starts the instant it is released).
    telemetry::Histogram releaseLatencyMs;
};

struct PipelineStats {
    // 1: nodes ran in insertion order on the calling thread. More: nodes
    // ran event-driven over a pool of that many workers.
    std::size_t workers{1};
    std::size_t pipelineDepth{1};
    std::uint64_t nodes{};
    std::uint64_t edges{};
    // Most nodes held at once. The graph is a rolling window of
    // pipelineDepth + 2 ticks, so this does not grow with the run.
    std::uint64_t residentNodes{};
    // Capture ticks in flight, sampled at each encode-node start: the
    // most (bounded by pipelineDepth) and the mean. Two numbers, not the
    // samples, so they do not grow with the run; NaN when no encode node
    // ran.
    double maxTicksInFlight{std::numeric_limits<double>::quiet_NaN()};
    double meanTicksInFlight{std::numeric_limits<double>::quiet_NaN()};
    double wallMs{};  // wall time of the graph run itself
    // Deterministic list-schedule makespans over the recorded per-node
    // simulated stage costs at 'workers' workers: the event-driven DAG
    // schedule vs the legacy three-phase tick barrier on the *same*
    // workload. Pure functions of (graph, costs, workers), so the
    // speedup is runner-independent and CI-gateable.
    double simulatedStageGraphMs{};
    double simulatedBarrierMs{};
    double simulatedSpeedup{1.0};   // barrier / stage-graph
    double simulatedIdleMs{};        // workers*makespan - total cost (DAG)
    double simulatedBarrierIdleMs{}; // same, for the barrier schedule
    std::vector<PipelineStageStats> stages;
};

struct MultiSessionStats {
    std::vector<SessionStats> perUser;
    double aggregateMbps{};
    // Per-user fairness accounting (delivery ratio, bandwidth share,
    // arbiter target, final ladder level), one entry per participant.
    std::vector<UserFairnessStats> fairness;
    // Jain's fairness index over per-user delivery ratios: 1 when every
    // participant gets the same delivery ratio, -> 1/N under starvation.
    double fairnessIndex{1.0};
    // Per-viewer downlink fan-out accounting; empty when the conference
    // ran without downlinks. sum(downlinks[v].bytesForwarded) ==
    // serverFanoutBytes.
    std::vector<DownlinkStats> downlinks;
    std::uint64_t serverFanoutFrames{};
    std::uint64_t serverFanoutBytes{};
    // Merged per-user telemetry plus the shared link's packet/queue
    // counters and queue-depth histogram. The uplink node adds each
    // message's link counters to its sender's telemetry
    // (perUser[u].telemetry), merged here, so the totals equal the
    // shared link's totals.
    telemetry::SessionTelemetry telemetry;
    // Stage-graph execution telemetry: node/edge counts, per-stage
    // occupancy and release latency, pipeline depth actually used, and
    // the deterministic stage-graph vs tick-barrier schedule comparison.
    PipelineStats pipeline;
    // Users with delivered frames whose mean end-to-end latency meets
    // 'budgetMs'.
    std::size_t usersWithinLatency(double budgetMs) const;
};

// ---- JSON export ---------------------------------------------------------
//
// Every stats exporter follows one convention: a free toJsonValue(T)
// returning one JSON value as std::string, composable into larger bench
// documents via telemetry::JsonWriter::raw.

// Aggregate figures plus the embedded telemetry for one session / one
// conference participant.
std::string toJsonValue(const SessionStats& stats);

// Aggregate figures, the per-user fairness array, the per-viewer
// downlink fan-out (when present), and the merged telemetry.
std::string toJsonValue(const MultiSessionStats& stats);

}  // namespace semholo::core
