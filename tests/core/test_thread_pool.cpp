// core::parallelFor, the one fork-join primitive: every index runs once,
// inline when there is nothing to fan out, nested calls on the same pool
// complete, and a throwing iteration neither escapes the call early nor
// leaves iterations running after it returns.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "semholo/core/thread_pool.hpp"

namespace semholo::core {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    std::vector<int> out(64, 0);
    parallelFor(&pool, out.size(), [&](std::size_t i) {
        out[i] += static_cast<int>(i) * 2;
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

TEST(ThreadPool, ParallelForRethrowsIterationException) {
    ThreadPool pool(2);
    EXPECT_THROW(parallelFor(&pool, 8,
                             [](std::size_t i) {
                                 if (i == 5) throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

// Iteration 0 throws while the others are queued or running: the call
// may return only once no iteration is running, and none may start
// afterwards.
TEST(ThreadPool, ParallelForReturnsAfterEveryIterationStops) {
    constexpr std::size_t kCount = 16;
    ThreadPool pool(2);
    std::atomic<int> running{0};
    std::atomic<int> finished{0};
    try {
        parallelFor(&pool, kCount, [&](std::size_t i) {
            if (i == 0) throw std::runtime_error("iteration 0");
            running.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            finished.fetch_add(1);
            running.fetch_sub(1);
        });
        FAIL() << "parallelFor did not rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "iteration 0");
    }
    EXPECT_EQ(running.load(), 0);
    const int atReturn = finished.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(finished.load(), atReturn)
        << "iterations ran after parallelFor returned";
    EXPECT_EQ(running.load(), 0);
}

// Outer and inner loops share one pool. Blocking every worker on an
// inner loop must not starve it: the inner caller claims its own
// indices.
TEST(ThreadPool, NestedParallelForOnItsOwnPoolCompletes) {
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ThreadPool pool(workers);
        std::atomic<std::size_t> sum{0};
        parallelFor(&pool, 4, [&](std::size_t i) {
            parallelFor(&pool, 4, [&](std::size_t j) { sum.fetch_add(4 * i + j + 1); });
        });
        EXPECT_EQ(sum.load(), 16u * 17u / 2u);
    }
}

TEST(ThreadPool, NullAndOneWorkerPoolsRunOnTheCaller) {
    ThreadPool one(1);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
        SCOPED_TRACE(pool == nullptr ? "null pool" : "one worker");
        std::vector<std::thread::id> ids(8);
        std::size_t next = 0;
        parallelFor(pool, ids.size(), [&](std::size_t i) {
            // In order, on this thread: the plain counter is safe.
            EXPECT_EQ(i, next++);
            ids[i] = std::this_thread::get_id();
        });
        EXPECT_EQ(next, ids.size());
        for (const std::thread::id& id : ids) EXPECT_EQ(id, std::this_thread::get_id());
    }
}

TEST(ThreadPool, SingleIndexRunsOnTheCaller) {
    ThreadPool pool(4);
    std::thread::id id;
    parallelFor(&pool, 1, [&](std::size_t) { id = std::this_thread::get_id(); });
    EXPECT_EQ(id, std::this_thread::get_id());
    parallelFor(&pool, 0, [](std::size_t) { FAIL() << "ran an index of an empty loop"; });
}

}  // namespace
}  // namespace semholo::core
