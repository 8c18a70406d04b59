// The StageGraph executor on hand-built graphs, with no pool (the
// insertion-order walk) and event-driven over pools. A worker runs the
// lowest-index successor it releases as a continuation and posts the
// rest to the pool; these tests pin what that must preserve: dependency
// order on long chains (without growing the stack), exactly one run per
// node under fan-out, and the failure contract — the first body
// exception is rethrown, later bodies are skipped, and the run still
// drains instead of hanging.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "semholo/core/thread_pool.hpp"
#include "stage_graph.hpp"

namespace semholo::core::internal {
namespace {

// workers == 0: no pool, the graph runs in insertion order.
std::unique_ptr<ThreadPool> poolOf(std::size_t workers) {
    return workers > 0 ? std::make_unique<ThreadPool>(workers) : nullptr;
}

TEST(StageGraphExecutor, LongChainRunsInChainOrder) {
    constexpr std::size_t kNodes = 10000;
    for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::vector<std::size_t> order;
        order.reserve(kNodes);
        // The chain edges order every append after the previous one.
        // One node per tick, in a window as deep as the run.
        NodeId prev = kNoNode;
        const auto build = [&prev](StageGraph& graph, std::uint32_t) {
            const NodeId node = graph.addNode(StageKind::Uplink, 0);
            if (prev != kNoNode) graph.addEdge(prev, node);
            prev = node;
        };
        StageGraph graph(kNodes, kNodes, build,
                         [&order](StageKind, std::uint32_t tick, std::size_t) {
            order.push_back(tick);
            return 0.0;
        });
        const auto pool = poolOf(workers);
        graph.run(pool.get());
        ASSERT_EQ(order.size(), kNodes);
        for (std::size_t i = 0; i < kNodes; ++i) ASSERT_EQ(order[i], i);

        PipelineStats stats;
        graph.fillStats(stats);
        ASSERT_EQ(stats.stages.size(), 1u);
        EXPECT_EQ(stats.stages[0].nodes, kNodes);
        EXPECT_EQ(stats.stages[0].maxConcurrent, 1u);
        // A chain has no parallelism to find: the schedule is the cost sum.
        EXPECT_EQ(stats.simulatedStageGraphMs, 0.0);
    }
}

// A chain whose every link also releases a leaf and a wide fan-out in
// the middle: each node runs exactly once and the join runs last.
TEST(StageGraphExecutor, FanOutRunsEveryNodeOnce) {
    constexpr std::size_t kChain = 500;
    constexpr std::size_t kFan = 300;
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::vector<NodeId> nodes;
        auto runs = std::make_unique<std::atomic<int>[]>(2 * kChain + kFan + 1);
        std::atomic<int> finished{0};
        std::atomic<int> finishedBeforeJoin{-1};
        // Every node but the join carries its body id as its user.
        // The whole graph is one tick.
        std::size_t total = 0;
        const auto build = [&nodes, &total](StageGraph& graph, std::uint32_t) {
            NodeId prev = kNoNode;
            std::size_t id = 0;
            for (std::size_t i = 0; i < kChain; ++i) {
                const NodeId link = graph.addNode(StageKind::Uplink, id++);
                if (i > 0) graph.addEdge(prev, link);
                const NodeId leaf = graph.addNode(StageKind::Decode, id++);
                graph.addEdge(link, leaf);
                nodes.push_back(leaf);
                prev = link;
            }
            for (std::size_t k = 0; k < kFan; ++k) {
                const NodeId fan = graph.addNode(StageKind::Downlink, id++);
                graph.addEdge(prev, fan);
                nodes.push_back(fan);
            }
            total = id;
            const NodeId join = graph.addNode(StageKind::Retire, 0);
            for (const NodeId n : nodes) graph.addEdge(n, join);
            graph.addEdge(prev, join);
        };
        StageGraph graph(1, 1, build,
                         [&runs, &finished, &finishedBeforeJoin](
                             StageKind kind, std::uint32_t, std::size_t id) {
            if (kind == StageKind::Retire) {
                finishedBeforeJoin.store(finished.load());
            } else {
                runs[id].fetch_add(1);
                finished.fetch_add(1);
            }
            return 0.0;
        });

        const auto pool = poolOf(workers);
        graph.run(pool.get());
        for (std::size_t n = 0; n < total; ++n)
            ASSERT_EQ(runs[n].load(), 1) << "node body " << n;
        EXPECT_EQ(finishedBeforeJoin.load(), static_cast<int>(total));
    }
}

TEST(StageGraphExecutor, MidChainThrowRethrowsFirstErrorAndDrains) {
    constexpr std::size_t kChain = 4000;
    constexpr std::size_t kThrowAt = 2000;
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::atomic<std::size_t> chainRuns{0};
        std::atomic<std::size_t> lastChainRun{0};
        // Chain links from kThrowAt on all throw; only the first may
        // surface, and the links after it must be skipped.
        // The whole graph is one tick.
        const auto build = [](StageGraph& graph, std::uint32_t) {
            NodeId prev = kNoNode;
            for (std::size_t i = 0; i < kChain; ++i) {
                const NodeId link = graph.addNode(StageKind::Uplink, i);
                if (i > 0) graph.addEdge(prev, link);
                // A side leaf per link keeps the executor posting work
                // while the chain continues.
                const NodeId leaf = graph.addNode(StageKind::Decode, i);
                graph.addEdge(link, leaf);
                prev = link;
            }
        };
        StageGraph graph(1, 1, build,
                         [&chainRuns, &lastChainRun](StageKind kind,
                                                     std::uint32_t,
                                                     std::size_t i) {
            if (kind != StageKind::Uplink) return 0.0;
            chainRuns.fetch_add(1);
            lastChainRun.store(i);
            if (i >= kThrowAt)
                throw std::runtime_error("link " + std::to_string(i));
            return 0.0;
        });
        const auto pool = poolOf(workers);
        try {
            graph.run(pool.get());
            FAIL() << "run did not rethrow";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "link " + std::to_string(kThrowAt));
        }
        EXPECT_EQ(chainRuns.load(), kThrowAt + 1);
        EXPECT_EQ(lastChainRun.load(), kThrowAt);
        // The graph drained completely: stats cover every node.
        PipelineStats stats;
        graph.fillStats(stats);
        std::uint64_t nodes = 0;
        for (const PipelineStageStats& s : stats.stages) nodes += s.nodes;
        EXPECT_EQ(nodes, 2 * kChain);
    }
}

}  // namespace
}  // namespace semholo::core::internal
