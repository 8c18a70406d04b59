#include "stage_graph.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "semholo/core/thread_pool.hpp"

namespace semholo::core::internal {

namespace {

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

StageGraph::StageGraph(std::uint32_t ticks, std::size_t depth,
                       TickBuilder build, StageBody body)
    : ticks_(ticks),
      depth_(std::max<std::size_t>(1, depth)),
      // Ticks f-1..f+depth+1 are resident while R(f) builds; a shorter
      // run needs a slot per tick.
      ringSize_(static_cast<std::uint32_t>(
          std::min<std::size_t>(depth_ + 2, std::max<std::uint32_t>(1, ticks)))),
      build_(std::move(build)),
      body_(std::move(body)),
      ring_(ringSize_),
      byKind_(kStageKindCount) {}

NodeId StageGraph::addNode(StageKind kind, std::size_t user) {
    assert(building_ != nullptr && "addNode outside the tick builder");
    TickSlot& slot = *building_;
    if (slot.size == slot.nodes.size()) slot.nodes.emplace_back();
    StageNode& n = slot.nodes[slot.size];
    n.id = (static_cast<NodeId>(slot.tick) << 32) | slot.size;
    n.kind = kind;
    n.user = user;
    n.successors.clear();  // keeps its capacity from earlier ticks
    n.initialPending = 0;
    n.simCostMs = n.readyMs = n.startMs = n.endMs = 0.0;
    ++slot.size;
    return n.id;
}

void StageGraph::addEdge(NodeId from, NodeId to) {
    assert(building_ != nullptr && tickOf(to) == building_->tick &&
           positionOf(to) < building_->size && "edges lead into the tick being built");
    assert(from < to && "edges must point forward so insertion order stays "
                        "topological");
    StageNode& target = building_->nodes[positionOf(to)];
    StageNode& source = tickOf(from) == building_->tick
                            ? building_->nodes[positionOf(from)]
                            : node(from);
    assert((!running_ || tickOf(from) == tickOf(to) ||
            source.pending.load(std::memory_order_relaxed) > 0) &&
           "window invariant: an edge's source must still be pending");
    source.successors.push_back(&target);
    ++target.initialPending;
    ++edges_;
}

void StageGraph::buildTick(std::uint32_t tick) {
    TickSlot& slot = slotOf(tick);
    if (tick >= ringSize_) {
        // The slot's previous tick completed (the window invariant):
        // fold it out before its nodes are overwritten.
        assert(slot.tick == folded_ && "ticks leave the window in order");
        foldTick(slot);
        resident_ -= slot.size;
    }
    slot.tick = tick;
    slot.size = 0;
    building_ = &slot;
    ++built_;
    std::exception_ptr error;
    try {
        build_(*this, tick);
    } catch (...) {
        error = std::current_exception();
    }
    building_ = nullptr;
    // Account every node added, even by a builder that threw, so a
    // partial tick still drains.
    for (std::size_t i = 0; i < slot.size; ++i)
        slot.nodes[i].pending.store(slot.nodes[i].initialPending,
                                    std::memory_order_relaxed);
    nodes_ += slot.size;
    resident_ += slot.size;
    residentHighWater_ = std::max(residentHighWater_, resident_);
    remaining_.fetch_add(slot.size, std::memory_order_relaxed);
    if (error) std::rethrow_exception(error);
}

double StageGraph::msSinceStart() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - runStart_)
        .count();
}

void StageGraph::run(ThreadPool* pool) {
    runStart_ = std::chrono::steady_clock::now();
    pool_ = pool != nullptr && pool->size() > 1 ? pool : nullptr;
    workers_ = pool_ != nullptr ? pool_->size() : 1;
    freeWorkers_ = workers_;
    const std::uint32_t initial =
        static_cast<std::uint32_t>(std::min<std::size_t>(ticks_, depth_ + 1));
    for (std::uint32_t t = 0; t < initial; ++t) buildTick(t);
    running_ = true;
    done_ = remaining_.load(std::memory_order_relaxed) == 0;
    if (pool_ == nullptr) {
        // Insertion order is topological (addEdge enforces it): every
        // node's dependencies have run by the time the walk reaches it.
        // R(f) builds tick f+depth+1 long before the walk gets there.
        for (std::uint32_t t = 0; t < built_; ++t) {
            TickSlot& slot = slotOf(t);
            for (std::size_t i = 0; i < slot.size; ++i) {
                assert(slot.nodes[i].pending.load(std::memory_order_relaxed) == 0 &&
                       "insertion order must be topological");
                runNode(&slot.nodes[i]);
            }
        }
    } else {
        // Collect the roots before posting any: once nodes run, the
        // window may advance and rebuild these slots.
        std::vector<StageNode*> roots;
        for (std::uint32_t t = 0; t < initial; ++t) {
            TickSlot& slot = slotOf(t);
            for (std::size_t i = 0; i < slot.size; ++i)
                if (slot.nodes[i].initialPending == 0) roots.push_back(&slot.nodes[i]);
        }
        for (StageNode* root : roots) post(root);
        std::unique_lock<std::mutex> lock(doneMutex_);
        doneCv_.wait(lock, [this] { return done_; });
    }
    running_ = false;
    wallMs_ = msSinceStart();
    // The ticks still resident leave the window now.
    for (std::uint32_t t = folded_; t < built_; ++t) foldTick(slotOf(t));
    if (failed_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (firstError_) std::rethrow_exception(firstError_);
    }
    if (built_ != ticks_)
        throw std::logic_error("stage graph: built " + std::to_string(built_) +
                               " of " + std::to_string(ticks_) +
                               " ticks; a tick beyond the first window lacks "
                               "a retire node");
}

void StageGraph::post(StageNode* node) {
    // [this, node] fits std::function's small buffer: no allocation.
    pool_->post([this, node] { execute(node); });
}

void StageGraph::execute(StageNode* node) {
    // Continuation: a chain (the shared uplink's ticket chain above all)
    // runs on one thread, with no pool round trip per hop.
    while (node != nullptr) node = runNode(node);
}

void StageGraph::recordError() {
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (!firstError_) firstError_ = std::current_exception();
    failed_.store(true, std::memory_order_release);
}

void StageGraph::advanceWindow(std::uint32_t tick) {
    const std::size_t next = static_cast<std::size_t>(tick) + depth_ + 1;
    if (next >= ticks_ || next != built_ || failed_.load(std::memory_order_acquire))
        return;
    try {
        buildTick(static_cast<std::uint32_t>(next));
    } catch (...) {
        recordError();
    }
    // A tick built during the run has no roots (its nodes wait on
    // pending ones), except a partial tick left by a failed builder:
    // post those so the graph drains.
    TickSlot& slot = slotOf(static_cast<std::uint32_t>(next));
    if (pool_ == nullptr) return;
    for (std::size_t i = 0; i < slot.size; ++i) {
        assert((slot.nodes[i].initialPending > 0 ||
                failed_.load(std::memory_order_relaxed)) &&
               "a tick built during the run may not contain a root");
        if (slot.nodes[i].initialPending == 0) post(&slot.nodes[i]);
    }
}

StageNode* StageGraph::runNode(StageNode* node) {
    const int kind = static_cast<int>(node->kind);
    const std::uint32_t tick = tickOf(node->id);
    node->startMs = msSinceStart();
    const int nowActive =
        active_[kind].fetch_add(1, std::memory_order_relaxed) + 1;
    storeMax(maxActive_[kind], nowActive);
    if (node->kind == StageKind::Encode) {
        // A relaxed (possibly stale) retired count can only undercount,
        // so in-flight is a safe overestimate; it can never underflow
        // because R(f) depends transitively on E(f).
        const int inFlight = static_cast<int>(
            tick + 1 - retiredTicks_.load(std::memory_order_relaxed));
        storeMax(maxTicksInFlight_, inFlight);
        ticksInFlightSum_.fetch_add(static_cast<std::uint64_t>(inFlight),
                                    std::memory_order_relaxed);
    }
    if (!failed_.load(std::memory_order_acquire)) {
        try {
            node->simCostMs = body_(node->kind, tick, node->user);
        } catch (...) {
            recordError();
        }
    }
    node->endMs = msSinceStart();
    active_[kind].fetch_sub(1, std::memory_order_relaxed);
    if (node->kind == StageKind::Retire) {
        retiredTicks_.fetch_add(1, std::memory_order_relaxed);
        advanceWindow(tick);
    }
    // Copy the successor list before releasing anyone: once the last
    // successor is released, this node's tick may retire and its slot
    // be rebuilt while this thread is still in the loop. (The
    // decrements of the pending successors are what keeps theirs alive.)
    thread_local std::vector<StageNode*> successors;
    successors.assign(node->successors.begin(), node->successors.end());
    StageNode* next = nullptr;
    for (StageNode* succ : successors) {
        if (succ->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Last dependency: this thread releases the successor. The
            // pool's queue mutex (or, for the continuation, program
            // order) orders this write before the successor's run.
            succ->readyMs = msSinceStart();
            // Without a pool the insertion-order walk runs it.
            if (pool_ == nullptr) continue;
            if (next == nullptr) {
                next = succ;
            } else if (succ->id < next->id) {
                post(next);
                next = succ;
            } else {
                post(succ);
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

// ---- Statistics -------------------------------------------------------------

// One tick leaves the window: per-stage telemetry, the tick-barrier
// schedule and the streamed DAG schedule. Ticks fold in order and each
// tick's nodes in insertion order, so every sum and sample sequence is
// the one a whole-graph pass in node order produces.
void StageGraph::foldTick(const TickSlot& slot) {
    encodeCosts_.clear();
    downlinkCosts_.clear();
    decodeCosts_.clear();
    double sequencedCost = 0.0;
    for (std::size_t i = 0; i < slot.size; ++i) {
        const StageNode& n = slot.nodes[i];
        PipelineStageStats& stage = byKind_[static_cast<std::size_t>(n.kind)];
        ++stage.nodes;
        stage.busyMs += n.endMs - n.startMs;
        stage.releaseLatencyMs.record(std::max(0.0, n.startMs - n.readyMs));
        totalCostMs_ += n.simCostMs;
        switch (n.kind) {
            case StageKind::Encode: encodeCosts_.push_back(n.simCostMs); break;
            case StageKind::Downlink: downlinkCosts_.push_back(n.simCostMs); break;
            case StageKind::Decode: decodeCosts_.push_back(n.simCostMs); break;
            case StageKind::Arbiter:
            case StageKind::Uplink: sequencedCost += n.simCostMs; break;
            case StageKind::Quality:
            case StageKind::Retire: break;
        }
    }
    // (b) The legacy engine's per-tick structure: encode phase fanned
    // across the pool, sequenced arbiter/uplink stage, downlink phase,
    // decode phase, with a barrier between phases and between ticks.
    barrierMs_ += listSpan(encodeCosts_, workers_) + sequencedCost +
                  listSpan(downlinkCosts_, workers_) +
                  listSpan(decodeCosts_, workers_);

    // (a) The DAG schedule: record this tick's costs and successors.
    createScheduleTicks();
    ScheduleTick& st = scheduleTick(slot.tick);
    st.cost.resize(slot.size);
    st.succBegin.resize(slot.size + 1);
    st.succ.clear();
    for (std::size_t i = 0; i < slot.size; ++i) {
        const StageNode& n = slot.nodes[i];
        st.cost[i] = n.simCostMs;
        st.succBegin[i] = static_cast<std::uint32_t>(st.succ.size());
        for (const StageNode* s : n.successors) st.succ.push_back(s->id);
    }
    st.succBegin[slot.size] = static_cast<std::uint32_t>(st.succ.size());
    st.fed = true;
    ++folded_;
    advanceSchedule();
}

// Every built tick gets a schedule entry with its in-degrees, and its
// roots enter the ready set. A tick not yet built cannot hold a ready
// node: its nodes wait on nodes of ticks not yet fed.
void StageGraph::createScheduleTicks() {
    while (scheduleFirst_ + scheduleTicks_.size() < built_) {
        const std::uint32_t tick =
            scheduleFirst_ + static_cast<std::uint32_t>(scheduleTicks_.size());
        const TickSlot& slot = slotOf(tick);
        ScheduleTick& st = scheduleTicks_.emplace_back();
        st.indegree.resize(slot.size);
        st.unfinished = slot.size;
        for (std::size_t i = 0; i < slot.size; ++i) {
            st.indegree[i] = slot.nodes[i].initialPending;
            if (st.indegree[i] == 0) ready_.push(slot.nodes[i].id);
        }
    }
}

// List scheduling of the recorded per-node simulated costs over the
// real dependency DAG (the event-driven schedule) at workers_ workers:
// a free worker takes the lowest-id ready node. It stops where the next
// node to place belongs to a tick whose costs are not recorded yet;
// because ids grow with ticks, every lower-id choice is already known,
// so each decision is the one a whole-graph schedule makes. Pure
// function of (graph, costs, workers): bit-stable across runs and hosts.
void StageGraph::advanceSchedule() {
    for (;;) {
        if (freeWorkers_ > 0 && !ready_.empty()) {
            const NodeId id = ready_.top();
            const ScheduleTick& st = scheduleTick(tickOf(id));
            if (!st.fed) return;
            ready_.pop();
            const double finish = scheduleTime_ + st.cost[positionOf(id)];
            events_.push({finish, id});
            --freeWorkers_;
            makespanMs_ = std::max(makespanMs_, finish);
            continue;
        }
        if (events_.empty()) return;
        scheduleTime_ = events_.top().first;
        while (!events_.empty() && events_.top().first == scheduleTime_) {
            const NodeId done = events_.top().second;
            events_.pop();
            ++freeWorkers_;
            ScheduleTick& st = scheduleTick(tickOf(done));
            const std::uint32_t p = positionOf(done);
            for (std::uint32_t e = st.succBegin[p]; e < st.succBegin[p + 1]; ++e) {
                const NodeId s = st.succ[e];
                if (--scheduleTick(tickOf(s)).indegree[positionOf(s)] == 0)
                    ready_.push(s);
            }
            --st.unfinished;
        }
        while (!scheduleTicks_.empty() && scheduleTicks_.front().fed &&
               scheduleTicks_.front().unfinished == 0) {
            scheduleTicks_.pop_front();
            ++scheduleFirst_;
        }
    }
}

void StageGraph::fillStats(PipelineStats& stats) const {
    stats.workers = workers_;
    stats.pipelineDepth = depth_;
    stats.nodes = nodes_;
    stats.edges = edges_;
    stats.residentNodes = residentHighWater_;
    stats.wallMs = wallMs_;
    // The samples are integers, so the mean is exact.
    const std::uint64_t encodes =
        byKind_[static_cast<std::size_t>(StageKind::Encode)].nodes;
    stats.maxTicksInFlight =
        encodes > 0 ? maxTicksInFlight_.load(std::memory_order_relaxed)
                    : std::numeric_limits<double>::quiet_NaN();
    stats.meanTicksInFlight =
        encodes > 0
            ? static_cast<double>(
                  ticksInFlightSum_.load(std::memory_order_relaxed)) /
                  static_cast<double>(encodes)
            : std::numeric_limits<double>::quiet_NaN();
    stats.stages.clear();
    for (std::size_t k = 0; k < kStageKindCount; ++k) {
        if (byKind_[k].nodes == 0) continue;
        PipelineStageStats stage = byKind_[k];
        stage.stage = stageName(static_cast<StageKind>(k));
        stage.maxConcurrent = static_cast<std::size_t>(
            std::max(0, maxActive_[k].load(std::memory_order_relaxed)));
        stats.stages.push_back(std::move(stage));
    }
    const double workers = static_cast<double>(workers_);
    stats.simulatedStageGraphMs = makespanMs_;
    stats.simulatedBarrierMs = barrierMs_;
    stats.simulatedIdleMs = workers * makespanMs_ - totalCostMs_;
    stats.simulatedBarrierIdleMs = workers * barrierMs_ - totalCostMs_;
    stats.simulatedSpeedup = makespanMs_ > 0.0 ? barrierMs_ / makespanMs_ : 1.0;
}

}  // namespace semholo::core::internal
