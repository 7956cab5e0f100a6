/**
 * @file
 * Thread-pooled experiment runner: executes independent simulations
 * (parallelFor over a caller's grid, WorkloadMixes, probe tasks)
 * concurrently across worker threads.
 *
 * Every run is an isolated, deterministic simulation (its RunConfig
 * carries an explicit seed and no state is shared between runs), so
 * results are bit-identical regardless of worker count or completion
 * order — the pool only changes wall-clock time. Results come back in
 * input order.
 */

#ifndef G10_ENGINE_EXPERIMENT_ENGINE_H
#define G10_ENGINE_EXPERIMENT_ENGINE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "api/experiment.h"
#include "engine/multi_tenant.h"
#include "engine/workload_mix.h"

namespace g10 {

/** A fixed pool of worker threads running simulation jobs. */
class ExperimentEngine
{
  public:
    /**
     * @param workers pool size; 0 = one per hardware thread (min 1)
     */
    explicit ExperimentEngine(unsigned workers = 0);

    /** Joins all workers (waits for queued tasks to finish). */
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine&) = delete;
    ExperimentEngine& operator=(const ExperimentEngine&) = delete;

    /** Number of worker threads in the pool. */
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Run fn(0) .. fn(n-1) across the pool; blocks until all complete.
     * fn must not touch shared mutable state (each index is one
     * independent simulation).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)>& fn);

    /**
     * Enqueue one task for the pool — the incremental feed the probe
     * scheduler uses: where parallelFor ships a pre-sized grid and
     * blocks, submit() returns immediately and the caller tracks
     * completion itself (ProbeScheduler counts in-flight probes under
     * its own lock). The task runs on a worker or inside any thread's
     * tryRunOne() pitch-in.
     */
    void submit(std::function<void()> task);

    /**
     * Pop and run one queued task on the calling thread; false when
     * the queue was empty. Blocked consumers (a thread waiting on a
     * result another task will produce) call this in a loop so a
     * 1-worker pool — or a pool whose workers are all blocked as
     * consumers themselves — still drains the queue instead of
     * deadlocking.
     */
    bool tryRunOne();

    /** Run every workload mix; results in input order. */
    std::vector<MixResult>
    runMixes(const std::vector<WorkloadMix>& mixes);

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    bool stopping_ = false;
};

}  // namespace g10

#endif  // G10_ENGINE_EXPERIMENT_ENGINE_H
