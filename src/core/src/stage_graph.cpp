#include "stage_graph.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

#include "semholo/core/thread_pool.hpp"

namespace semholo::core::internal {

namespace {

constexpr std::size_t kNoNode = std::numeric_limits<std::size_t>::max();

void storeMax(std::atomic<int>& target, int value) {
    int cur = target.load(std::memory_order_relaxed);
    while (cur < value &&
           !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
}

// Greedy in-order assignment of independent task costs to the earliest
// free of 'workers' workers; returns the phase span: how a barriered
// phase spreads its tasks across the pool.
double listSpan(const std::vector<double>& costs, std::size_t workers) {
    if (costs.empty()) return 0.0;
    std::priority_queue<double, std::vector<double>, std::greater<double>> free;
    for (std::size_t w = 0; w < workers; ++w) free.push(0.0);
    double span = 0.0;
    for (double c : costs) {
        const double start = free.top();
        free.pop();
        const double finish = start + c;
        free.push(finish);
        span = std::max(span, finish);
    }
    return span;
}

}  // namespace

const char* stageName(StageKind kind) {
    switch (kind) {
        case StageKind::Arbiter: return "arbiter";
        case StageKind::Encode: return "encode";
        case StageKind::Uplink: return "uplink";
        case StageKind::Downlink: return "downlink";
        case StageKind::Decode: return "decode";
        case StageKind::Quality: return "quality";
        case StageKind::Retire: return "retire";
    }
    return "unknown";
}

std::size_t StageGraph::addNode(StageKind kind, std::uint32_t tick,
                                std::size_t user) {
    StageNode& node = nodes_.emplace_back();
    node.kind = kind;
    node.tick = tick;
    node.user = user;
    return nodes_.size() - 1;
}

void StageGraph::addEdge(std::size_t from, std::size_t to) {
    assert(from < to && to < nodes_.size() &&
           "stage-graph edges must point forward so insertion order stays "
           "topological");
    nodes_[from].successors.push_back(to);
    ++nodes_[to].initialPending;
    ++edges_;
}

double StageGraph::msSinceStart() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - runStart_)
        .count();
}

void StageGraph::run(ThreadPool* pool) {
    runStart_ = std::chrono::steady_clock::now();
    pool_ = pool != nullptr && pool->size() > 1 ? pool : nullptr;
    retiredTicks_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    remaining_.store(nodes_.size(), std::memory_order_relaxed);
    done_ = nodes_.empty();  // no workers are running yet; no lock needed
    for (StageNode& node : nodes_) {
        node.pending.store(node.initialPending, std::memory_order_relaxed);
        node.readyMs = 0.0;
    }
    for (std::size_t i = 0; i < kStageKindCount; ++i) {
        active_[i].store(0, std::memory_order_relaxed);
        maxActive_[i].store(0, std::memory_order_relaxed);
    }
    if (pool_ == nullptr) {
        // Insertion order is topological (addEdge enforces it): every
        // node's dependencies have run by the time the walk reaches it.
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            assert(nodes_[i].pending.load(std::memory_order_relaxed) == 0 &&
                   "insertion order must be topological");
            runNode(i);
        }
    } else {
        for (std::size_t i = 0; i < nodes_.size(); ++i)
            if (nodes_[i].initialPending == 0) post(i);
        std::unique_lock<std::mutex> lock(doneMutex_);
        doneCv_.wait(lock, [this] { return done_; });
    }
    wallMs_ = msSinceStart();
    if (failed_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (firstError_) std::rethrow_exception(firstError_);
    }
}

void StageGraph::post(std::size_t index) {
    // [this, index] fits std::function's small buffer: no allocation.
    pool_->post([this, index] { execute(index); });
}

void StageGraph::execute(std::size_t index) {
    // Continuation: a chain (the shared uplink's ticket chain above all)
    // runs on one thread, with no pool round trip per hop.
    while (index != kNoNode) index = runNode(index);
}

std::size_t StageGraph::runNode(std::size_t index) {
    StageNode& node = nodes_[index];
    const int kind = static_cast<int>(node.kind);
    node.startMs = msSinceStart();
    const int nowActive =
        active_[kind].fetch_add(1, std::memory_order_relaxed) + 1;
    storeMax(maxActive_[kind], nowActive);
    if (node.kind == StageKind::Encode) {
        // A relaxed (possibly stale) retired count can only undercount,
        // so in-flight is a safe overestimate; it can never underflow
        // because R(f) depends transitively on E(f).
        const std::size_t inFlight =
            static_cast<std::size_t>(node.tick) + 1 -
            retiredTicks_.load(std::memory_order_relaxed);
        ticksInFlight_.record(static_cast<double>(inFlight));
    }
    if (!failed_.load(std::memory_order_acquire)) {
        try {
            node.simCostMs = body_(node.kind, node.tick, node.user);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex_);
            if (!firstError_) firstError_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
        }
    }
    node.endMs = msSinceStart();
    active_[kind].fetch_sub(1, std::memory_order_relaxed);
    if (node.kind == StageKind::Retire)
        retiredTicks_.fetch_add(1, std::memory_order_relaxed);
    std::size_t next = kNoNode;
    for (const std::size_t s : node.successors) {
        StageNode& succ = nodes_[s];
        if (succ.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Last dependency: this thread releases the successor. The
            // pool's queue mutex (or, for the continuation, program
            // order) orders this write before the successor's run.
            succ.readyMs = msSinceStart();
            // Without a pool the insertion-order walk runs it.
            if (pool_ == nullptr) continue;
            if (next == kNoNode) {
                next = s;
            } else if (s < next) {
                post(next);
                next = s;
            } else {
                post(s);
            }
        }
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Set the flag and notify under the lock: the waiter re-checks
        // done_ only while holding doneMutex_, so it cannot return (and
        // destroy this graph) until this thread has released the lock —
        // after its last touch of doneCv_. The last node released
        // nothing, so there is no continuation.
        std::lock_guard<std::mutex> lock(doneMutex_);
        done_ = true;
        doneCv_.notify_all();
    }
    return next;
}

void StageGraph::fillStats(PipelineStats& stats,
                           std::size_t scheduleWorkers) const {
    stats.workers = std::max<std::size_t>(1, scheduleWorkers);
    stats.nodes = nodes_.size();
    stats.edges = edges_;
    stats.wallMs = wallMs_;
    stats.ticksInFlight = ticksInFlight_;
    // One pass over the nodes; each stage still sees its nodes in index
    // order, so busy sums and latency samples match a per-stage scan.
    std::vector<PipelineStageStats> byKind(kStageKindCount);
    for (const StageNode& node : nodes_) {
        PipelineStageStats& stage = byKind[static_cast<std::size_t>(node.kind)];
        ++stage.nodes;
        stage.busyMs += node.endMs - node.startMs;
        stage.releaseLatencyMs.record(std::max(0.0, node.startMs - node.readyMs));
    }
    stats.stages.clear();
    for (std::size_t k = 0; k < kStageKindCount; ++k) {
        PipelineStageStats& stage = byKind[k];
        if (stage.nodes == 0) continue;
        stage.stage = stageName(static_cast<StageKind>(k));
        stage.maxConcurrent = static_cast<std::size_t>(
            std::max(0, maxActive_[k].load(std::memory_order_relaxed)));
        stats.stages.push_back(std::move(stage));
    }
    simulateSchedules(stats, stats.workers);
}

// Deterministic list scheduling of the recorded per-node simulated costs:
// (a) over the real dependency DAG (the event-driven schedule), and
// (b) under the legacy engine's per-tick structure — encode phase fanned
// across the pool, sequenced arbiter/uplink stage, downlink phase, decode
// phase, with a barrier between phases and between ticks. Both are pure
// functions of (graph, costs, workers); ties release in node-index order,
// so results are bit-stable across runs and hosts.
void StageGraph::simulateSchedules(PipelineStats& stats,
                                   std::size_t workers) const {
    stats.simulatedStageGraphMs = 0.0;
    stats.simulatedBarrierMs = 0.0;
    stats.simulatedSpeedup = 1.0;
    stats.simulatedIdleMs = 0.0;
    stats.simulatedBarrierIdleMs = 0.0;
    if (nodes_.empty() || workers == 0) return;
    const std::size_t n = nodes_.size();
    double totalCost = 0.0;
    for (const StageNode& node : nodes_) totalCost += node.simCostMs;

    // ---- (a) DAG schedule --------------------------------------------------
    std::vector<int> indegree(n);
    for (std::size_t i = 0; i < n; ++i) indegree[i] = nodes_[i].initialPending;
    // Lowest index first. Each node enters once, so a min-heap pops in
    // exactly the order an ordered set would.
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<std::size_t>>
        ready;
    for (std::size_t i = 0; i < n; ++i)
        if (indegree[i] == 0) ready.push(i);
    using Event = std::pair<double, std::size_t>;  // (finish, node)
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
    std::size_t freeWorkers = workers;
    std::size_t scheduled = 0;
    double t = 0.0;
    double makespan = 0.0;
    while (scheduled < n || !events.empty()) {
        if (freeWorkers > 0 && !ready.empty()) {
            const std::size_t idx = ready.top();
            ready.pop();
            const double finish = t + nodes_[idx].simCostMs;
            events.push({finish, idx});
            --freeWorkers;
            ++scheduled;
            makespan = std::max(makespan, finish);
            continue;
        }
        if (events.empty()) break;  // defensive: would mean a cycle
        t = events.top().first;
        while (!events.empty() && events.top().first == t) {
            const std::size_t done = events.top().second;
            events.pop();
            ++freeWorkers;
            for (const std::size_t s : nodes_[done].successors)
                if (--indegree[s] == 0) ready.push(s);
        }
    }
    stats.simulatedStageGraphMs = makespan;
    stats.simulatedIdleMs =
        static_cast<double>(workers) * makespan - totalCost;

    // ---- (b) tick-barrier schedule -----------------------------------------
    std::uint32_t maxTick = 0;
    for (const StageNode& node : nodes_) maxTick = std::max(maxTick, node.tick);
    std::vector<std::vector<double>> encodeCosts(maxTick + 1),
        downlinkCosts(maxTick + 1), decodeCosts(maxTick + 1);
    std::vector<double> sequencedCost(maxTick + 1, 0.0);
    for (const StageNode& node : nodes_) {
        switch (node.kind) {
            case StageKind::Encode:
                encodeCosts[node.tick].push_back(node.simCostMs);
                break;
            case StageKind::Downlink:
                downlinkCosts[node.tick].push_back(node.simCostMs);
                break;
            case StageKind::Decode:
                decodeCosts[node.tick].push_back(node.simCostMs);
                break;
            case StageKind::Arbiter:
            case StageKind::Uplink:
                sequencedCost[node.tick] += node.simCostMs;
                break;
            case StageKind::Quality:
            case StageKind::Retire:
                break;
        }
    }
    double barrier = 0.0;
    for (std::uint32_t f = 0; f <= maxTick; ++f) {
        barrier += listSpan(encodeCosts[f], workers) + sequencedCost[f] +
                   listSpan(downlinkCosts[f], workers) +
                   listSpan(decodeCosts[f], workers);
    }
    stats.simulatedBarrierMs = barrier;
    stats.simulatedBarrierIdleMs =
        static_cast<double>(workers) * barrier - totalCost;
    stats.simulatedSpeedup =
        makespan > 0.0 ? barrier / makespan : 1.0;
}

}  // namespace semholo::core::internal
