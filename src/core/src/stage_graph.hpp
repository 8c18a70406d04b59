// Completion-event-driven stage graph: the execution substrate of the
// session engine (multiuser_session.cpp).
//
// A StageGraph is a DAG of typed nodes — arbiter / encode / uplink
// ticket / downlink fan-out / decode / quality / retire — added in the
// canonical serial order (the per-tick phase order) with explicit
// dependency edges. A node is plain data: its (kind, tick, user) plus
// its edges and telemetry. The graph holds one body for the whole run,
// given at construction; executing a node calls it with the node's
// (kind, tick, user). One executor, run(pool), runs every node through
// the same runNode(), which does the node's bookkeeping and releases
// its successors:
//
//  - Without a pool (or with a one-worker pool) run() walks the nodes
//    in insertion order on the calling thread and posts nothing.
//    Because every edge points from a lower to a higher index (addEdge
//    enforces it), insertion order is a valid topological order: the
//    phases of each tick run one after another.
//
//  - With a pool it is event-driven: each node carries an atomic
//    pending-dependency count; completing a node decrements its
//    successors, and whichever worker drops a count to zero releases
//    that node. It runs the lowest-index node it released itself, as a
//    continuation on the same thread, and posts the rest to the pool
//    (fire-and-forget, no future per node). No phase barriers anywhere
//    — a node runs the instant its dependencies are done. Byte-identity
//    with the insertion-order walk follows from the edge set alone:
//    every mutable resource (a user's channel/clock/estimator/policy, a
//    link's FIFO and RNG, a viewer's downlink, the arbiter inputs) is
//    confined to one dependency chain, so every schedule touches each
//    resource in the same per-resource order with the same inputs.
//
// Either way, after a node body throws the remaining bodies are
// skipped, the graph still drains, and run() rethrows the first error.
//
// The body returns a node's *simulated* stage cost (ms). After a run,
// fillStats() aggregates per-stage occupancy/latency telemetry and
// list-schedules the recorded costs twice — once over the real DAG,
// once under the legacy three-phase tick barrier — producing a
// deterministic, runner-independent pipelining speedup (the
// BENCH_conference CI gate).
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
    Retire = 6,    // tick-completion join; releases the ring slot
};
inline constexpr std::size_t kStageKindCount = 7;
const char* stageName(StageKind kind);

struct StageNode {
    StageKind kind{StageKind::Encode};
    std::uint32_t tick{0};
    // Participant (or viewer) index; SIZE_MAX for conference-wide nodes
    // (the shared arbiter, retire joins).
    std::size_t user{std::numeric_limits<std::size_t>::max()};
    std::vector<std::size_t> successors;
    int initialPending{0};
    std::atomic<int> pending{0};
    // Telemetry. Each field has exactly one writer with a
    // happens-before edge to every reader: readyMs is written by the
    // thread that released the node (before it posts or continues into
    // it), startMs / endMs / simCostMs by the executing thread, and
    // fillStats() reads only after the run completed.
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

class StageGraph {
public:
    explicit StageGraph(StageBody body) : body_(std::move(body)) {}

    std::size_t addNode(StageKind kind, std::uint32_t tick, std::size_t user);
    // Dependency: 'to' may not start before 'from' completed. Edges must
    // point forward (from < to) so insertion order stays topological.
    void addEdge(std::size_t from, std::size_t to);

    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t edgeCount() const { return edges_; }

    // Execute every node: in insertion order on the calling thread when
    // 'pool' is null or has one worker, else event-driven over the pool.
    // Blocks until every node completed. The first node-body exception
    // is rethrown (remaining node bodies are skipped, but the graph
    // still drains).
    void run(ThreadPool* pool);

    // Aggregate the last run into 'stats' and compute the deterministic
    // stage-graph vs tick-barrier schedule comparison at
    // 'scheduleWorkers' workers. Call after run().
    void fillStats(PipelineStats& stats, std::size_t scheduleWorkers) const;

private:
    // Run 'index', then each continuation runNode() returns, until none.
    void execute(std::size_t index);
    // Run one node and release its successors: returns the lowest-index
    // successor it released (the caller's continuation) after posting
    // the others, or SIZE_MAX when it released none (always, without a
    // pool: the insertion-order walk runs every node).
    std::size_t runNode(std::size_t index);
    void post(std::size_t index);
    double msSinceStart() const;
    void simulateSchedules(PipelineStats& stats,
                           std::size_t scheduleWorkers) const;

    StageBody body_;
    // deque: stable addresses, in-place construction (StageNode holds an
    // atomic and is neither copyable nor movable).
    std::deque<StageNode> nodes_;
    std::size_t edges_{0};

    std::chrono::steady_clock::time_point runStart_{};
    double wallMs_{0.0};

    ThreadPool* pool_{nullptr};  // set by run(); null for the in-order walk
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
    telemetry::Histogram ticksInFlight_;  // internally thread-safe
};

}  // namespace semholo::core::internal
