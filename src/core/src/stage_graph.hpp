// Completion-event-driven stage graph: the execution substrate of the
// session engine (multiuser_session.cpp).
//
// A StageGraph is a DAG of typed nodes — arbiter / encode / uplink
// ticket / downlink fan-out / decode / quality / retire — grouped by
// capture tick and added in the canonical serial order (the per-tick
// phase order) with explicit dependency edges. A node is plain data:
// its (kind, tick, user) plus its edges and telemetry. The graph holds
// one body for the whole run, given at construction; executing a node
// calls it with the node's (kind, tick, user).
//
// The graph is a rolling window, not a whole-run DAG. A tick builder,
// also given at construction, adds one tick's nodes and every edge into
// them. run() builds ticks 0..depth, and the completion of tick f's
// retire node R(f) builds tick f+depth+1 before R(f) releases any
// successor. Node and successor storage live in a ring of depth + 2 tick
// slots: tick f+depth+1 reuses the slot of tick f-1, whose nodes have
// all completed (R(f) joins R(f-1), which joins tick f-1). The window
// invariant, asserted by addEdge: every predecessor of a node in a tick
// built during the run is still pending when it is built, so no edge is
// ever added to a node that already finished. (In the engine, E(f+depth)
// waits on R(f), and R(f+1) on R(f).) Resident nodes therefore depend
// on the depth and the nodes per tick, not on the run length.
//
// One executor, run(pool), runs every node through the same runNode(),
// which does the node's bookkeeping and releases its successors:
//
//  - Without a pool (or with a one-worker pool) run() walks the nodes
//    in insertion order on the calling thread and posts nothing.
//    Because every edge points from an earlier node to a later one
//    (addEdge enforces it), insertion order is a valid topological
//    order: the phases of each tick run one after another.
//
//  - With a pool it is event-driven: each node carries an atomic
//    pending-dependency count; completing a node decrements its
//    successors, and whichever worker drops a count to zero releases
//    that node. It runs the lowest-id node it released itself, as a
//    continuation on the same thread, and posts the rest to the pool
//    (fire-and-forget, no future per node). No phase barriers anywhere
//    — a node runs the instant its dependencies are done. Byte-identity
//    with the insertion-order walk follows from the edge set alone:
//    every mutable resource (a user's channel/clock/estimator/policy, a
//    link's FIFO and RNG, a viewer's downlink, the arbiter inputs) is
//    confined to one dependency chain, so every schedule touches each
//    resource in the same per-resource order with the same inputs.
//
// Either way, after a node body (or the tick builder) throws, the
// remaining bodies are skipped, no further tick is built, the graph
// still drains, and run() rethrows the first error.
//
// The body returns a node's *simulated* stage cost (ms). As each tick
// leaves the window its nodes' telemetry folds into the run's
// PipelineStats: per-stage occupancy and release latency, and two
// deterministic list schedules of the recorded costs — one streamed
// over the real DAG, one under the legacy three-phase tick barrier —
// giving a runner-independent pipelining speedup (the BENCH_conference
// CI gate).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "semholo/core/session.hpp"

namespace semholo::core {
class ThreadPool;
}

namespace semholo::core::internal {

enum class StageKind : int {
    Arbiter = 0,
    Encode = 1,
    Uplink = 2,    // sequenced link-entry ticket
    Downlink = 3,  // per-viewer fan-out
    Decode = 4,
    Quality = 5,   // sampled Chamfer evaluation, off the decode chain
    Retire = 6,    // tick-completion join; advances the window
};
inline constexpr std::size_t kStageKindCount = 7;
const char* stageName(StageKind kind);

// A node's id: its tick in the high 32 bits, its position within the
// tick in the low 32. Ids order as the nodes were added.
using NodeId = std::uint64_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
inline constexpr std::uint32_t tickOf(NodeId id) {
    return static_cast<std::uint32_t>(id >> 32);
}
inline constexpr std::uint32_t positionOf(NodeId id) {
    return static_cast<std::uint32_t>(id);
}

struct StageNode {
    NodeId id{kNoNode};
    StageKind kind{StageKind::Encode};
    // Participant (or viewer) index; SIZE_MAX for conference-wide nodes
    // (the shared arbiter, retire joins).
    std::size_t user{std::numeric_limits<std::size_t>::max()};
    // Nodes of the same or later ticks, all resident while this one is.
    std::vector<StageNode*> successors;
    int initialPending{0};
    std::atomic<int> pending{0};
    // Telemetry. Each field has exactly one writer with a
    // happens-before edge to every reader: readyMs is written by the
    // thread that released the node (before it posts or continues into
    // it), startMs / endMs / simCostMs by the executing thread, and the
    // fold reads only after the tick's retire node completed.
    double simCostMs{0.0};
    double readyMs{0.0};
    double startMs{0.0};
    double endMs{0.0};

    StageNode() = default;
    StageNode(const StageNode&) = delete;
    StageNode& operator=(const StageNode&) = delete;
};

// The run's one node body: executes the node (kind, tick, user) and
// returns its simulated stage cost in ms (0 for bookkeeping stages).
// Exceptions propagate out of the run.
using StageBody =
    std::function<double(StageKind kind, std::uint32_t tick, std::size_t user)>;

class StageGraph;
// Adds tick 'tick''s nodes (StageGraph::addNode) and every edge into
// them (StageGraph::addEdge). Called once per tick, in tick order, each
// call ordered after the previous one: ticks 0..depth from run(), every
// later tick from inside the completion of the retire node depth + 1
// ticks back. A tick that is followed by ticks built during the run has
// exactly one Retire node, which joins every other node of its tick and
// the previous tick's Retire node; run() throws if the window stalls.
using TickBuilder = std::function<void(StageGraph& graph, std::uint32_t tick)>;

class StageGraph {
public:
    // A run of 'ticks' ticks with up to 'depth' ticks in flight.
    StageGraph(std::uint32_t ticks, std::size_t depth, TickBuilder build,
               StageBody body);

    // Only inside the tick builder: add a node to the tick being built.
    NodeId addNode(StageKind kind, std::size_t user);
    // Only inside the tick builder: 'to' (in the tick being built) may
    // not start before 'from' completed. 'from' was added earlier and,
    // during the run, has not completed yet.
    void addEdge(NodeId from, NodeId to);

    // Execute every tick: in insertion order on the calling thread when
    // 'pool' is null or has one worker, else event-driven over the pool.
    // Blocks until every node completed. The first node-body or builder
    // exception is rethrown (remaining node bodies are skipped, but the
    // graph still drains). Call once.
    void run(ThreadPool* pool);

    // The run's telemetry and the deterministic stage-graph vs
    // tick-barrier schedule comparison, both list-scheduled at the run's
    // worker count. Call after run().
    void fillStats(PipelineStats& stats) const;

private:
    // A ring slot: one tick's nodes. Storage is kept when the slot is
    // reused, so a warm ring allocates nothing per tick.
    struct TickSlot {
        std::uint32_t tick{0};
        std::size_t size{0};
        std::deque<StageNode> nodes;  // [0, size) belong to 'tick'
    };

    // The DAG list schedule, streamed: ticks are created once built and
    // fed their recorded costs when they leave the window; the schedule
    // advances as far as known costs allow. Pops the lowest ready id, so
    // it places every node exactly where a whole-graph list schedule
    // would.
    struct ScheduleTick {
        std::vector<int> indegree;
        std::vector<double> cost;               // once fed
        std::vector<std::uint32_t> succBegin;   // once fed; CSR offsets
        std::vector<NodeId> succ;
        std::size_t unfinished{0};
        bool fed{false};
    };

    TickSlot& slotOf(std::uint32_t tick) { return ring_[tick % ringSize_]; }
    StageNode& node(NodeId id) {
        return slotOf(tickOf(id)).nodes[positionOf(id)];
    }
    // Build 'tick' into its slot, folding out the tick it replaces.
    void buildTick(std::uint32_t tick);
    // After R(tick): build the tick depth + 1 ahead, if any.
    void advanceWindow(std::uint32_t tick);
    // Run 'node', then each continuation runNode() returns, until none.
    void execute(StageNode* node);
    // Run one node and release its successors: returns the lowest-id
    // successor it released (the caller's continuation) after posting
    // the others, or null when it released none (always, without a
    // pool: the insertion-order walk runs every node).
    StageNode* runNode(StageNode* node);
    void post(StageNode* node);
    void recordError();
    double msSinceStart() const;

    // Statistics of ticks leaving the window, in tick order.
    void foldTick(const TickSlot& slot);
    void createScheduleTicks();
    ScheduleTick& scheduleTick(std::uint32_t tick) {
        return scheduleTicks_[tick - scheduleFirst_];
    }
    void advanceSchedule();

    const std::uint32_t ticks_;
    const std::size_t depth_;
    const std::uint32_t ringSize_;  // at most ticks_, so 32-bit slot math
    TickBuilder build_;
    StageBody body_;

    std::vector<TickSlot> ring_;
    TickSlot* building_{nullptr};  // the slot the builder is filling
    std::uint32_t built_{0};       // ticks built so far
    std::uint32_t folded_{0};      // ticks folded so far
    std::size_t resident_{0};
    // Most nodes materialized at once (PipelineStats::residentNodes): at
    // most depth + 2 ticks' worth, independent of the run length.
    std::size_t residentHighWater_{0};
    std::uint64_t nodes_{0};
    std::uint64_t edges_{0};
    bool running_{false};

    std::chrono::steady_clock::time_point runStart_{};
    double wallMs_{0.0};

    ThreadPool* pool_{nullptr};  // set by run(); null for the in-order walk
    std::size_t workers_{1};     // list-schedule workers
    // Nodes built and not yet finished; R(f) adds the tick it builds
    // before it counts itself out, so this reaches 0 only at the end.
    std::atomic<std::size_t> remaining_{0};
    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    // Completion flag guarded by doneMutex_ (not an atomic predicate on
    // remaining_): the last worker sets it and notifies while holding
    // the lock, so the waiter cannot observe completion, return and
    // destroy the cv while that worker is still inside notify_all.
    bool done_{false};
    std::atomic<bool> failed_{false};
    std::mutex errorMutex_;
    std::exception_ptr firstError_;

    // Occupancy tracking (the in-order walk has concurrency 1).
    std::atomic<int> active_[kStageKindCount]{};
    std::atomic<int> maxActive_[kStageKindCount]{};
    std::atomic<std::uint32_t> retiredTicks_{0};
    // Capture ticks in flight at each encode-node start: their max and
    // sum (PipelineStats::maxTicksInFlight / meanTicksInFlight).
    std::atomic<int> maxTicksInFlight_{0};
    std::atomic<std::uint64_t> ticksInFlightSum_{0};

    // Folded statistics. Written only by the fold, which runs inside the
    // retire chain (or after the run), so one thread at a time.
    std::vector<PipelineStageStats> byKind_;
    double totalCostMs_{0.0};
    double barrierMs_{0.0};
    std::vector<double> encodeCosts_, downlinkCosts_, decodeCosts_;
    std::deque<ScheduleTick> scheduleTicks_;  // ticks [scheduleFirst_, ...)
    std::uint32_t scheduleFirst_{0};
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>>
        ready_;
    using Event = std::pair<double, NodeId>;  // (finish, node)
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
    std::size_t freeWorkers_{1};
    double scheduleTime_{0.0};
    double makespanMs_{0.0};
};

}  // namespace semholo::core::internal
