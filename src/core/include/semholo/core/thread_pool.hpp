// Fixed-size worker pool used by the session engine and by the library's
// data-parallel loops. Deliberately minimal: post() enqueues a
// fire-and-forget task, tasks run FIFO, the pool joins on destruction,
// and parallelFor() below is the one fork-join built on it. Determinism
// is the caller's job — the engine keeps order-sensitive stages (the
// shared LinkSimulator) on one dependency chain and only fans out
// per-user / per-frame work whose results are merged in a fixed order.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace semholo::core {

class ThreadPool {
public:
    // 'workers' == 0 picks hardware_concurrency (at least 1).
    explicit ThreadPool(std::size_t workers = 0) {
        if (workers == 0) workers = defaultWorkers();
        threads_.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (std::thread& t : threads_) t.join();
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return threads_.size(); }

    static std::size_t defaultWorkers() {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : static_cast<std::size_t>(hw);
    }

    // Enqueue a task with no future: no shared state and, for a callable
    // that fits std::function's small buffer (two pointers), no
    // allocation. The task must not throw; its caller owns completion.
    void post(std::function<void()> task) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push(std::move(task));
        }
        cv_.notify_one();
    }

private:
    void workerLoop() {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
                if (stopping_ && queue_.empty()) return;
                task = std::move(queue_.front());
                queue_.pop();
            }
            task();
        }
    }

    std::vector<std::thread> threads_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_{false};
};

// Run fn(i) for every i in [0, count) and return when all have run.
// Inline on the calling thread when 'pool' is null, has one worker, or
// count <= 1. Otherwise the caller and up to size() - 1 helpers posted
// to the pool claim indices from one shared counter. The caller always
// claims work itself, so a call made from a task of the same pool
// completes even if none of its helpers ever starts. After an iteration
// throws no new index starts; the call returns once every claimed
// iteration has finished, and rethrows the first exception.
template <typename F>
void parallelFor(ThreadPool* pool, std::size_t count, F&& fn) {
    if (pool == nullptr || pool->size() <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }
    // Shared with the helpers: one that starts after the call returned
    // finds no index left and touches nothing but this block.
    struct Job {
        std::remove_reference_t<F>* fn{nullptr};
        std::size_t count{0};
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> finished{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;  // written once, by the first thrower

        void drain() {
            for (std::size_t i = next++; i < count; i = next++) {
                if (!failed) {
                    try {
                        (*fn)(i);
                    } catch (...) {
                        if (!failed.exchange(true)) error = std::current_exception();
                    }
                }
                if (++finished == count) finished.notify_all();
            }
        }
    };
    const auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->count = count;
    // [job] fits std::function's small buffer: no allocation per post.
    for (std::size_t h = std::min(count, pool->size()) - 1; h > 0; --h)
        pool->post([job] { job->drain(); });
    job->drain();
    for (std::size_t done = job->finished; done != count; done = job->finished)
        job->finished.wait(done);
    // Take the exception out of the job: a helper that starts late may
    // hold the last reference to the job, and must not be the thread
    // that destroys the exception the caller is handling.
    if (std::exception_ptr error = std::move(job->error)) std::rethrow_exception(error);
}

// Process-wide pool for library-internal data parallelism (field
// sampling, extraction, the mesh codec, mesh metrics). Lazily created,
// lives for the process. Loops may nest on it: parallelFor's caller
// always works through its own indices.
inline ThreadPool& sharedPool() {
    static ThreadPool pool;
    return pool;
}

}  // namespace semholo::core
