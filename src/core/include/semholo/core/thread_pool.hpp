// Fixed-size worker pool used by the parallel session engine and by any
// bench that wants to fan work out across cores. Deliberately minimal:
// submit() returns a std::future, post() is fire-and-forget, tasks run
// FIFO, the pool joins on destruction. Determinism is the caller's job —
// the engine keeps order-sensitive stages (the shared LinkSimulator) on
// one thread and only fans out per-user / per-frame work whose results
// are merged in a fixed order.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
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

    // Enqueue a callable; the returned future yields its result (or
    // rethrows its exception).
    template <typename F>
    auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> future = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace([task] { (*task)(); });
        }
        cv_.notify_one();
        return future;
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

    // Run fn(i) for i in [0, count) across the pool and wait for all.
    // Exceptions from any iteration are rethrown (first one wins).
    template <typename F>
    void parallelFor(std::size_t count, F&& fn) {
        std::vector<std::future<void>> futures;
        futures.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            futures.push_back(submit([&fn, i] { fn(i); }));
        for (auto& f : futures) f.get();
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

// Process-wide pool for library-internal data parallelism (field
// sampling, mesh metrics). Lazily created, lives for the process.
// Callers must not submit work to this pool from inside one of its own
// tasks (a blocked task waiting on a nested submission can deadlock the
// pool); session engines keep their own pools, so engine workers may
// safely block on sharedPool() futures.
inline ThreadPool& sharedPool() {
    static ThreadPool pool;
    return pool;
}

}  // namespace semholo::core
