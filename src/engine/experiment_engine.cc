#include "experiment_engine.h"

namespace g10 {

ExperimentEngine::ExperimentEngine(unsigned workers)
{
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ExperimentEngine::~ExperimentEngine()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread& t : threads_)
        t.join();
}

void
ExperimentEngine::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ExperimentEngine::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    workReady_.notify_one();
}

bool
ExperimentEngine::tryRunOne()
{
    std::function<void()> task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
    }
    task();
    return true;
}

void
ExperimentEngine::parallelFor(std::size_t n,
                              const std::function<void(std::size_t)>& fn)
{
    if (n == 0)
        return;

    // `remaining` is guarded by the mutex (not a bare atomic) so the
    // final decrement and the waiter's predicate check are ordered:
    // otherwise the waiter could observe zero and destroy this stack
    // frame while the last worker is still about to lock/notify.
    struct Batch
    {
        std::size_t remaining;
        std::mutex m;
        std::condition_variable done;
    };
    Batch batch;
    batch.remaining = n;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < n; ++i) {
            queue_.emplace_back([&batch, &fn, i] {
                fn(i);
                std::lock_guard<std::mutex> lk(batch.m);
                if (--batch.remaining == 0)
                    batch.done.notify_all();
            });
        }
    }
    workReady_.notify_all();

    // The calling thread pitches in: draining the queue here means a
    // 1-worker pool still makes progress even while it is blocked in a
    // nested parallelFor, and small grids finish faster.
    for (;;) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!queue_.empty()) {
                task = std::move(queue_.front());
                queue_.pop_front();
            }
        }
        if (!task)
            break;
        task();
    }

    std::unique_lock<std::mutex> lk(batch.m);
    batch.done.wait(lk, [&batch] { return batch.remaining == 0; });
}

std::vector<MixResult>
ExperimentEngine::runMixes(const std::vector<WorkloadMix>& mixes)
{
    std::vector<MixResult> results(mixes.size());
    parallelFor(mixes.size(), [&](std::size_t i) {
        MultiTenantSim sim(mixes[i]);
        results[i] = sim.run();
    });
    return results;
}

}  // namespace g10
