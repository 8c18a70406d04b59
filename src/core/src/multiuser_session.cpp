// The session engine: a completion-event-driven stage graph. A one-way
// session (runSession) is its one-participant case; an SFU conference
// adds participants, downlinks and the arbiter. Rather than running each
// capture tick as three barriered phases (encode fan-out, sequenced
// uplink, decode fan-out), the engine describes one explicit dependency
// DAG over typed per-(tick, user) nodes, tick by tick, and lets an
// event-driven executor run every node the instant its dependencies
// complete — no phase barriers, no tick barriers. The graph never holds
// the whole run: it keeps a rolling window of pipelineDepth + 2 ticks,
// and R(f) builds tick f+depth+1 through the engine's tick builder
// (stage_graph.hpp).
//
// Node kinds per tick f (inserted in per-tick phase order, so the
// one-worker run, which walks nodes in insertion order, runs the phases
// one after another):
//
//   A(f)           arbiter: per-user target rates on the uplink from the
//                  bottleneck's instantaneous capacity, offered demands
//                  (last wire frame x fps) and delivered-throughput
//                  history. One conference-wide node per tick.
//   E(f,u)         encode: the user's channel encodes frame f against
//                  their extractor clock and bandwidth feedback.
//   T(f,u)         uplink ticket: the frame traverses the shared
//                  server-ingest bottleneck. Tickets form one chain
//                  across users and ticks, so the (frame, user)
//                  link-entry order, FIFO interleaving and loss RNG
//                  draws are identical for serial and pipelined runs.
//                  The outcome feeds the sender's estimator and
//                  DegradationPolicy.
//   L(f,v)         downlink fan-out: the server forwards the tick's
//                  delivered frames to viewer v over v's own downlink,
//                  thinned by v's subscription ladder.
//   D(f,u)         decode: the user decodes their delivered frame and
//                  advances their recon clock; at sampled ticks it keeps
//                  the decoded mesh in the ring slot for Q.
//   Q(f,u)         quality (sampled ticks only): Chamfer of the kept
//                  mesh vs the LBS ground truth. Off the encode -> decode
//                  chain.
//   R(f)           retire: join of every D/Q(f,*) and L(f,*); frees the
//                  tick's ring slot (payloads, poses, meshes) for reuse,
//                  and builds tick f+depth+1 into the graph's window.
//
// A node is its (kind, tick, user): the graph holds no per-node
// closure, and one engine-wide body dispatches on the kind. E, T, D and
// Q write the user's FrameStats for tick f in place, each field with
// exactly one writer on that E -> T -> D -> Q chain.
//
// Edges (the full byte-identity argument is in DESIGN.md):
//
//   A(f)   <- T(f-1,*)          targets read last-tick demand/throughput
//   E(f,u) <- A(f), D(f-1,u), R(f-depth)
//   T(f,u) <- E(f,u), the previous ticket in the chain
//   L(f,v) <- T(f,u) per subscribed source, L(f-1,v)
//   D(f,u) <- T(f,u)            (D(f-1,u) order holds transitively)
//   Q(f,u) <- D(f,u)
//   R(f)   <- Q(f,*) or D(f,*), L(f,*), R(f-1)
//
// The payoff: a user's tick f+1 encode is released the moment its own
// tick f feedback lands (plus slot retirement), so enc-heavy and
// dec-heavy users de-stagger instead of all waiting for the slowest
// phase member — up to ConferenceConfig::pipelineDepth ticks in flight.
// Every mutable resource (a user's channel/clock/estimator/policy, a
// link's FIFO + RNG, a viewer's downlink, the arbiter inputs) is
// confined to a single dependency chain, so the in-order (one worker)
// and event-driven runs are byte-identical under TimingModel::Simulated
// at any worker count and any depth (tests/core/test_conference.cpp and
// test_stage_graph.cpp stress this with downlinks + arbiter).
//
// Each link node accounts its own sends from their TransferResults: the
// uplink node adds a message's packet counters and the backlog it met to
// the sender's telemetry, and the downlink node adds each forwarded
// message to its (viewer, source) entry in MultiSessionStats::downlinks.
// Stage occupancy, release latency and ticks-in-flight land in
// MultiSessionStats::pipeline.
#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "semholo/core/conference.hpp"
#include "semholo/core/session.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/metrics.hpp"
#include "semholo/net/abr.hpp"
#include "session_internal.hpp"
#include "stage_graph.hpp"

namespace semholo::core::internal {

namespace {

// "None": the user of conference-wide nodes (arbiter, retire) and the
// unsubscribed entry of a viewer's stream index.
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Where every participant's viewer sits, for gaze-aware channels.
const geom::RigidTransform kViewerHead{geom::Quat::identity(),
                                       {0.0f, 0.2f, -2.5f}};

// One user's frame in flight during a tick. Lives in a ring of
// pipelineDepth tick-slots; E(f,u) fills it, T(f,u) fills the transfer,
// L/D read it, D hands Q the decoded mesh, and R(f) clears the slot for
// tick f+depth. The frame's FrameStats are not staged here: E, T, D and
// Q write them in place.
struct TickFrame {
    EncodedFrame encoded;
    body::Pose pose;  // retained for receiver-side quality evaluation
    double sendTime{};  // valid when the frame was not dropped at the sender
    net::TransferResult transfer;
    mesh::TriMesh decodedMesh;  // written by D, read by Q (sampled ticks)
};

double msSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

// One frame's Chamfer evaluation vs the LBS ground truth. Deterministic
// given its inputs, so every schedule produces identical quality numbers.
void evaluateQuality(FrameStats& frame, const body::BodyModel& model,
                     const body::Pose& pose, const mesh::TriMesh& decodedMesh,
                     std::size_t samples) {
    const auto t0 = std::chrono::steady_clock::now();
    const mesh::TriMesh gt = model.deform(pose);
    frame.chamfer = mesh::compareMeshes(gt, decodedMesh, samples).chamfer;
    frame.qualityMs = msSince(t0);
}

// Per-user state that persists across ticks: the motion source, the
// pipeline availability clocks, the closed-loop feedback (throughput
// estimator + degradation policy), and the arbiter's demand estimate and
// target-rate accounting.
struct UserState {
    body::MotionGenerator motion;
    double extractorFreeAt{0.0};
    double reconFreeAt{0.0};
    net::HarmonicEstimator throughput{5};
    DegradationPolicy degrade;
    std::size_t lastSentBytes{0};  // arbiter demand: offered wire bytes
    double targetRateBps{0.0};     // arbiter target this tick (0 = none)
    double targetSumBps{0.0};
    std::size_t targetTicks{0};

    UserState(const body::MotionGenerator& motion,
              const DegradationConfig& config, double fps,
              std::size_t queueCapacityBytes)
        : motion(motion), degrade(config, fps, queueCapacityBytes) {}

    // This tick's arbiter target, fed to the policy and the accounting.
    void setTarget(double bps) {
        targetRateBps = bps;
        degrade.setTargetRateBps(bps);
        targetSumBps += bps;
        ++targetTicks;
    }
};

// Per-viewer downlink state: the viewer's own LinkSimulator, a monotonic
// send clock (per-packet jitter can complete a later sender's uplink
// frame first), the resolved subscription list and the per-stream
// accounting.
struct DownlinkState {
    net::LinkSimulator link;
    double clock{0.0};
    // (source, byteScale) in ascending source order.
    std::vector<std::pair<std::size_t, double>> subs;
    // source -> index into stats.streams (SIZE_MAX when unsubscribed).
    std::vector<std::size_t> streamIndex;
    DownlinkStats stats;
    double transferMsSum{0.0};

    explicit DownlinkState(const net::LinkConfig& config) : link(config) {}
};

void fillFairness(MultiSessionStats& out, const std::vector<UserState>& state) {
    const std::size_t users = out.perUser.size();
    const double totalBytes = out.telemetry.bytesPerFrame.sum();
    out.fairness.resize(users);
    double ratioSum = 0.0, ratioSqSum = 0.0;
    for (std::size_t u = 0; u < users; ++u) {
        const telemetry::SessionTelemetry& t = out.perUser[u].telemetry;
        UserFairnessStats& f = out.fairness[u];
        f.deliveryRatio = t.counters.framesCaptured > 0
                              ? static_cast<double>(t.counters.framesDelivered) /
                                    static_cast<double>(t.counters.framesCaptured)
                              : 0.0;
        f.bandwidthShare =
            totalBytes > 0.0 ? t.bytesPerFrame.sum() / totalBytes : 0.0;
        f.finalDegradationLevel = state[u].degrade.level();
        f.targetRateMbps = state[u].targetTicks > 0
                               ? state[u].targetSumBps /
                                     static_cast<double>(state[u].targetTicks) /
                                     1e6
                               : 0.0;
        ratioSum += f.deliveryRatio;
        ratioSqSum += f.deliveryRatio * f.deliveryRatio;
    }
    // Jain's index over delivery ratios; all-equal (including all-zero)
    // counts as perfectly fair.
    const double denom = static_cast<double>(users) * ratioSqSum;
    out.fairnessIndex = denom > 0.0 ? ratioSum * ratioSum / denom : 1.0;
}

}  // namespace

MultiSessionStats runEngine(const ConferenceConfig& conf,
                            const std::vector<SemanticChannel*>& channels,
                            const body::BodyModel& model) {
    const SessionConfig& base = conf.session;
    MultiSessionStats out;
    const std::size_t users = channels.size();
    out.perUser.resize(users);
    if (users == 0) return out;

    // The server-ingest bottleneck every participant's messages traverse.
    net::LinkSimulator uplink(base.link);

    // ---- Per-user session state -------------------------------------------
    std::vector<UserState> state;
    state.reserve(users);
    for (std::size_t u = 0; u < users; ++u) {
        channels[u]->reset();
        const std::uint32_t seed =
            base.motionSeed + static_cast<std::uint32_t>(u);
        state.emplace_back(
            body::MotionGenerator(base.motion, model.shape(), seed),
            base.degradation, base.fps, base.link.queueCapacityBytes);
        // E, T, D and Q write frames[f] in place, so the vector never
        // reallocates under a running node.
        out.perUser[u].frames.resize(base.frames);
    }

    // ---- Downlink fan-out state -------------------------------------------
    std::vector<DownlinkState> downs;
    if (conf.enableDownlinks) {
        downs.reserve(users);
        for (std::size_t v = 0; v < users; ++v) {
            const Participant& p = conf.participants[v];
            DownlinkState& d = downs.emplace_back(conf.downlink);
            d.stats.viewer = v;
            d.streamIndex.assign(users, kNone);
            std::size_t position = 0;
            for (std::size_t u = 0; u < users; ++u) {
                if (u == v) continue;
                const auto scale = p.subscription.scaleForPosition(position++);
                if (!scale) continue;
                d.streamIndex[u] = d.subs.size();
                d.subs.emplace_back(u, *scale);
                DownlinkStreamStats ss;
                ss.source = u;
                d.stats.streams.push_back(ss);
            }
        }
    }

    // ---- Arbiter ----------------------------------------------------------
    const bool arbiterOn = conf.arbiter.strategy != ArbiterStrategy::None;
    const BandwidthArbiter arbiter(conf.arbiter);
    std::vector<double> demands(users, 0.0), meanTp(users, 0.0);

    // ---- Stage bodies ------------------------------------------------------
    // Every body reaches the engine's resources by reference; the graph
    // edges built below are what make that shared state race-free.
    //
    // The encode and decode bodies time the whole channel call: a frame's
    // extractMs / reconMs is that wall time plus the channel's simulated
    // cost. The stage clocks charge both under TimingModel::Measured and
    // the simulated cost alone under Simulated, so wall time never moves
    // a deterministic schedule.
    const bool measured = base.timing == TimingModel::Measured;
    const std::size_t depth = std::max<std::size_t>(1, conf.pipelineDepth);
    std::vector<std::vector<TickFrame>> ring(depth,
                                             std::vector<TickFrame>(users));

    const auto arbiterBody = [&](double captureTime) {
        const double capacity = uplink.effectiveRateAt(captureTime);
        for (std::size_t u = 0; u < users; ++u) {
            demands[u] = state[u].lastSentBytes > 0
                             ? static_cast<double>(state[u].lastSentBytes) *
                                   8.0 * base.fps
                             : 0.0;
            meanTp[u] = state[u].throughput.hasEstimate()
                            ? state[u].throughput.estimate()
                            : 0.0;
        }
        const std::vector<double> targets =
            arbiter.allocate(capacity, demands, meanTp);
        for (std::size_t u = 0; u < users; ++u) state[u].setTarget(targets[u]);
        return 0.0;
    };

    // Encode: touches only this user's channel, motion generator, clocks
    // and feedback state, plus the (cleared) ring slot it fills.
    const auto encodeBody = [&](std::size_t f, std::size_t slot, std::size_t u,
                                double captureTime) {
        TickFrame& p = ring[slot][u];
        FrameStats& frame = out.perUser[u].frames[f];
        frame.frameId = static_cast<std::uint32_t>(f);
        UserState& us = state[u];
        if (base.dropWhenBusy && us.extractorFreeAt > captureTime) {
            frame.droppedAtSender = true;
            return 0.0;
        }
        FrameContext ctx;
        ctx.pose = us.motion.poseAt(captureTime);
        ctx.pose.frameId = frame.frameId;
        ctx.model = &model;
        ctx.timestamp = captureTime;
        ctx.viewerHead = kViewerHead;
        // Bandwidth feedback: the throughput estimate, capped at the
        // arbiter's target when one is set (the target alone seeds the
        // loop before the first sample — rate-adaptive channels start at
        // their share instead of blasting the top rung).
        double est =
            us.throughput.hasEstimate() ? us.throughput.estimate() : 0.0;
        if (us.targetRateBps > 0.0)
            est = est > 0.0 ? std::min(est, us.targetRateBps)
                            : us.targetRateBps;
        if (est > 0.0)
            ctx.estimatedBandwidthBps = est * us.degrade.bandwidthScale();
        const auto t0 = std::chrono::steady_clock::now();
        p.encoded = channels[u]->encode(ctx);
        frame.extractMs = msSince(t0) + p.encoded.simulatedExtractMs;
        p.pose = std::move(ctx.pose);
        frame.bytes = p.encoded.bytes();
        const double stageMs = measured ? frame.extractMs
                                        : p.encoded.simulatedExtractMs;
        p.sendTime = std::max(captureTime, us.extractorFreeAt) + stageMs / 1000.0;
        us.extractorFreeAt = p.sendTime;
        return stageMs;
    };

    // Uplink ticket: the sequenced link stage. Runs inside the ticket
    // chain, so FIFO queueing, loss RNG draws and congestion see the same
    // (frame, user) entry order at any worker count, and the writes to
    // this user's link counters are sequenced; the outcome feeds this
    // user's estimator and degradation policy before their next encode
    // is released.
    const auto uplinkBody = [&](std::size_t f, std::size_t slot,
                                std::size_t u) {
        FrameStats& frame = out.perUser[u].frames[f];
        if (frame.droppedAtSender) return 0.0;
        TickFrame& p = ring[slot][u];
        UserState& us = state[u];
        const std::size_t bytes = p.encoded.bytes();
        const std::size_t queuedAtSend = uplink.queuedBytesAt(p.sendTime);
        p.transfer = uplink.sendMessage(bytes, p.sendTime, base.transfer, u);
        const net::TransferResult& r = p.transfer;
        telemetry::SessionTelemetry& t = out.perUser[u].telemetry;
        t.counters.packets += r.packets;
        t.counters.packetsLost += r.lostPackets;
        t.counters.packetsDelivered += r.deliveredPackets;
        t.counters.packetsUnrecovered += r.unrecoveredPackets;
        t.counters.retransmissions += r.retransmissions;
        t.counters.queueDrops += r.droppedAtQueue;
        t.counters.bytesSent += r.bytes;
        t.counters.faultEvents += r.faultEvents;
        t.queueDepthBytes.record(static_cast<double>(queuedAtSend));
        frame.delivered = p.transfer.delivered;
        frame.transferMs = p.transfer.durationS() * 1000.0;
        us.lastSentBytes = bytes;
        if (p.transfer.delivered && bytes > 0) {
            // Serialization-dominated throughput sample (propagation
            // subtracted).
            const double serialS =
                std::max(1e-5, p.transfer.durationS() -
                                   base.link.propagationDelayS);
            us.throughput.addSample(static_cast<double>(bytes) * 8.0 / serialS);
        }
        const DegradationAction action = us.degrade.observe(
            {p.transfer.delivered, p.transfer.durationS(),
             p.transfer.unrecoveredPackets, p.transfer.droppedAtQueue,
             p.transfer.faultEvents, queuedAtSend, bytes});
        if (action == DegradationAction::StepDown)
            ++t.counters.degradations;
        else if (action == DegradationAction::StepUp)
            ++t.counters.upgrades;
        return 0.0;
    };

    // Downlink fan-out for one viewer: reads the tick's uplink results
    // (read-only — decode also reads them, concurrently), writes only
    // viewer-local state. A frame dropped at the sender keeps the
    // default, undelivered transfer.
    const auto downlinkBody = [&](std::size_t slot, std::size_t v) {
        DownlinkState& d = downs[v];
        for (const auto& [u, scale] : d.subs) {
            const TickFrame& p = ring[slot][u];
            if (!p.transfer.delivered) continue;
            const auto bytes = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       static_cast<double>(p.encoded.bytes()) * scale));
            // Forward when the server received the frame; the clock
            // keeps per-viewer send times monotonic (per-packet jitter
            // can complete a later sender's frame first on the uplink).
            const double at = std::max(p.transfer.completionTime, d.clock);
            const net::TransferResult r =
                d.link.sendMessage(bytes, at, base.transfer, u, v);
            d.clock = at;
            DownlinkStreamStats& ss = d.stats.streams[d.streamIndex[u]];
            ++ss.framesForwarded;
            ss.bytesForwarded += bytes;
            ss.packets += r.packets;
            ss.packetsDelivered += r.deliveredPackets;
            ss.packetsUnrecovered += r.unrecoveredPackets;
            if (r.delivered) {
                ++ss.framesDelivered;
                ss.bytesDelivered += bytes;
            }
            d.transferMsSum += r.durationS() * 1000.0;
        }
        return 0.0;
    };

    // Ticks whose decoded meshes get a quality node.
    const auto sampled = [&](std::size_t f) {
        return base.qualityEvalInterval > 0 && f % base.qualityEvalInterval == 0;
    };

    // Decode: reads the ring slot (the downlink nodes of the same tick
    // may still be reading it; only decodedMesh, which they never touch,
    // is written), advances this user's recon clock and writes frame f.
    // A decoded frame's recon counters go straight into the user's
    // telemetry: D nodes of one user run in order.
    const auto decodeBody = [&](std::size_t f, std::size_t slot, std::size_t u,
                                double captureTime) {
        FrameStats& frame = out.perUser[u].frames[f];
        if (frame.droppedAtSender) return 0.0;
        TickFrame& p = ring[slot][u];
        UserState& us = state[u];
        double stageMs = 0.0;
        if (p.transfer.delivered) {
            const double arrival = p.transfer.completionTime;
            if (base.dropWhenBusy && us.reconFreeAt > arrival) {
                frame.droppedAtReceiver = true;
            } else {
                const auto t0 = std::chrono::steady_clock::now();
                DecodedFrame decoded = channels[u]->decode(p.encoded);
                frame.reconMs = msSince(t0) + decoded.simulatedReconMs;
                frame.decoded = decoded.valid;
                if (decoded.valid)
                    out.perUser[u].telemetry.counters.recon += decoded.recon;
                stageMs = measured ? frame.reconMs : decoded.simulatedReconMs;
                const double renderTime =
                    std::max(arrival, us.reconFreeAt) + stageMs / 1000.0;
                us.reconFreeAt = renderTime;
                frame.e2eMs = (renderTime - captureTime) * 1000.0;
                if (decoded.valid && sampled(f))
                    p.decodedMesh = std::move(decoded.mesh);
            }
        } else {
            frame.e2eMs = (p.transfer.completionTime - captureTime) * 1000.0;
        }
        return stageMs;
    };

    // Quality: the sampled Chamfer eval of the mesh D kept. Writes only
    // frame f's chamfer/qualityMs, so the user's next encode and decode
    // need not wait for it; simulated cost 0 (it is not on the
    // capture-to-render path).
    const auto qualityBody = [&](std::size_t f, std::size_t slot,
                                 std::size_t u) {
        const TickFrame& p = ring[slot][u];
        if (!p.decodedMesh.empty())
            evaluateQuality(out.perUser[u].frames[f], model, p.pose,
                            p.decodedMesh, base.qualitySamples);
        return 0.0;
    };

    // Retire: every node of the tick is done; drop its payloads, poses
    // and meshes now instead of when E(f+depth) reuses the slot.
    const auto retireBody = [&](std::size_t slot) {
        for (TickFrame& p : ring[slot]) p = TickFrame{};
        return 0.0;
    };

    // The graph's one body: a node is its (kind, tick, user), and the
    // tick's ring slot and capture time are derived here, once.
    const auto body = [&](StageKind kind, std::uint32_t tick, std::size_t u) {
        const std::size_t f = tick;
        const std::size_t slot = f % depth;
        const double captureTime = static_cast<double>(f) / base.fps;
        switch (kind) {
            case StageKind::Arbiter: return arbiterBody(captureTime);
            case StageKind::Encode: return encodeBody(f, slot, u, captureTime);
            case StageKind::Uplink: return uplinkBody(f, slot, u);
            case StageKind::Downlink: return downlinkBody(slot, u);
            case StageKind::Decode: return decodeBody(f, slot, u, captureTime);
            case StageKind::Quality: return qualityBody(f, slot, u);
            case StageKind::Retire: return retireBody(slot);
        }
        return 0.0;
    };

    // ---- Tick builder -------------------------------------------------------
    // The graph holds a rolling window of ticks and calls this once per
    // tick, in tick order: ticks 0..depth before the run, tick f+depth+1
    // inside R(f). Nodes are inserted in per-tick phase order (arbiter,
    // encodes, tickets, downlinks, decodes, quality, retire), so the
    // pool-less walk runs the phases in turn; the edges are everything
    // the pool needs. The state below carries the previous tick's nodes
    // to the next call.
    std::vector<NodeId> prevDecode(users, kNoNode);
    std::vector<NodeId> prevDown(users, kNoNode);
    std::vector<NodeId> retires(depth, kNoNode);  // R(f) at f % depth
    NodeId prevTicket = kNoNode;
    NodeId prevRetire = kNoNode;
    std::vector<NodeId> enc(users), tix(users), dec(users), downNodes;
    std::vector<NodeId> last(users);  // per user: Q(f,u), else D(f,u)

    const auto buildTick = [&](StageGraph& graph, std::uint32_t tick) {
        const std::size_t f = tick;

        // Arbiter: needs every user's previous-tick ticket outcome; the
        // ticket chain makes one edge from the last ticket suffice.
        NodeId arb = kNoNode;
        if (arbiterOn) {
            arb = graph.addNode(StageKind::Arbiter, kNone);
            if (prevTicket != kNoNode) graph.addEdge(prevTicket, arb);
        }

        // Encode: released by this user's own previous decode (channel
        // state + feedback), the tick's arbiter targets, and the retire
        // of the ring slot it reuses. That is the pipelining win — no
        // edge to any *other* user's tick f-1 work.
        for (std::size_t u = 0; u < users; ++u) {
            enc[u] = graph.addNode(StageKind::Encode, u);
            if (prevDecode[u] != kNoNode) graph.addEdge(prevDecode[u], enc[u]);
            if (arb != kNoNode) graph.addEdge(arb, enc[u]);
            if (f >= depth) graph.addEdge(retires[f % depth], enc[u]);
        }

        // Uplink tickets: the link's entry-order chain.
        for (std::size_t u = 0; u < users; ++u) {
            tix[u] = graph.addNode(StageKind::Uplink, u);
            graph.addEdge(enc[u], tix[u]);
            if (prevTicket != kNoNode) graph.addEdge(prevTicket, tix[u]);
            prevTicket = tix[u];
        }

        // Downlink fan-out: one node per viewer with subscriptions.
        downNodes.clear();
        for (std::size_t v = 0; v < downs.size(); ++v) {
            if (downs[v].subs.empty()) continue;
            const NodeId node = graph.addNode(StageKind::Downlink, v);
            for (const auto& [u, scale] : downs[v].subs) {
                (void)scale;
                graph.addEdge(tix[u], node);
            }
            if (prevDown[v] != kNoNode) graph.addEdge(prevDown[v], node);
            prevDown[v] = node;
            downNodes.push_back(node);
        }

        // Decode. (The D(f-1,u) order needed by the user's recon clock
        // holds transitively: D(f,u) <- T(f,u) <- E(f,u) <- D(f-1,u).)
        for (std::size_t u = 0; u < users; ++u) {
            dec[u] = graph.addNode(StageKind::Decode, u);
            graph.addEdge(tix[u], dec[u]);
            prevDecode[u] = dec[u];
            last[u] = dec[u];
        }

        // Quality, at sampled ticks only.
        if (sampled(f)) {
            for (std::size_t u = 0; u < users; ++u) {
                last[u] = graph.addNode(StageKind::Quality, u);
                graph.addEdge(dec[u], last[u]);
            }
        }

        // Retire: the tick's completion join; frees its ring slot for
        // tick f + depth and advances the graph's window.
        const NodeId retire = graph.addNode(StageKind::Retire, kNone);
        for (std::size_t u = 0; u < users; ++u) graph.addEdge(last[u], retire);
        for (const NodeId node : downNodes) graph.addEdge(node, retire);
        if (prevRetire != kNoNode) graph.addEdge(prevRetire, retire);
        prevRetire = retire;
        retires[f % depth] = retire;
    };

    // ---- Run ----------------------------------------------------------------
    // workers == 0 means hardware concurrency; at one worker the graph
    // runs in insertion order on this thread.
    const std::size_t workers =
        base.workers == 0 ? ThreadPool::defaultWorkers() : base.workers;
    ThreadPool pool(workers);
    StageGraph graph(static_cast<std::uint32_t>(base.frames), depth, buildTick,
                     body);
    graph.run(&pool);
    graph.fillStats(out.pipeline);

    // Downlink rollup: per-viewer totals, the conference-wide fan-out
    // totals, and each viewer's share of the fanned-out bytes.
    if (conf.enableDownlinks) {
        out.downlinks.reserve(users);
        for (DownlinkState& d : downs) {
            for (const DownlinkStreamStats& ss : d.stats.streams) {
                d.stats.framesForwarded += ss.framesForwarded;
                d.stats.framesDelivered += ss.framesDelivered;
                d.stats.bytesForwarded += ss.bytesForwarded;
                d.stats.bytesDelivered += ss.bytesDelivered;
                d.stats.packets += ss.packets;
                d.stats.packetsDelivered += ss.packetsDelivered;
                d.stats.packetsUnrecovered += ss.packetsUnrecovered;
            }
            d.stats.meanTransferMs =
                d.stats.framesForwarded > 0
                    ? d.transferMsSum /
                          static_cast<double>(d.stats.framesForwarded)
                    : std::numeric_limits<double>::quiet_NaN();
            out.serverFanoutFrames += d.stats.framesForwarded;
            out.serverFanoutBytes += d.stats.bytesForwarded;
            out.downlinks.push_back(std::move(d.stats));
        }
        for (DownlinkStats& d : out.downlinks)
            d.fanoutShare = out.serverFanoutBytes > 0
                                ? static_cast<double>(d.bytesForwarded) /
                                      static_cast<double>(out.serverFanoutBytes)
                                : std::numeric_limits<double>::quiet_NaN();
    }

    finalizeMultiSessionStats(out, base);
    fillFairness(out, state);
    return out;
}

}  // namespace semholo::core::internal
