/**
 * @file
 * Speculative parallel probe scheduler for the capacity-knee search.
 *
 * The auto-knee bisection is an inherently sequential decision chain:
 * probe N's sustained/overloaded verdict picks probe N+1's rate. What
 * *is* parallel about it is that each verdict has only two possible
 * successors — so while the decided probe runs, idle workers can
 * speculatively evaluate both possible next rates (and, budget
 * permitting, their children up to a bounded depth). Every probe
 * result is memoized in the scheduler, keyed by (search lane, rate
 * bits), so no rate is ever simulated twice and a mispredicted branch
 * is pure prefetch — never re-work on the decided path. The memo lives
 * exactly as long as one search (runKneeSearch), so the scenario is
 * fixed and never part of the key.
 *
 * Bit-identity contract: the consumer replays the *exact* sequential
 * search through a KneeCursor (a pure automaton of the historical
 * phase-1 doubling + phase-2 bisection loop) and only ever *reads*
 * memoized results, in the same order the sequential loop would have
 * computed them. Each probe is an isolated deterministic simulation,
 * so the knee, every decided cell's metrics, and the serialized
 * result document are byte-identical to the sequential search at any
 * worker count — speculation on or off. Wasted probes are dropped
 * wholesale (cells, counters, and all); they only ever cost
 * wall-clock on otherwise-idle workers.
 */

#ifndef G10_SERVE_PROBE_SCHEDULER_H
#define G10_SERVE_PROBE_SCHEDULER_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/experiment_engine.h"
#include "obs/counters.h"
#include "serve/serve_sim.h"

namespace g10 {

/**
 * The auto-knee search as a pure automaton: phase-1 geometric growth
 * from @p rateLo until the queue sheds (or the @p rateHi ceiling /
 * probe budget stops it), then phase-2 bisection of the bracket down
 * to ~5% of the knee. Step-for-step identical to the historical
 * sequential knee loop of the serve sweep — the scheduler's
 * consumers and its speculation frontier both run on copies of this
 * cursor, which is what makes mispredicted branches *predictable*:
 * the two possible successors of any probe are advance(true) and
 * advance(false).
 */
class KneeCursor
{
  public:
    /** @param rateLo   first probe rate (ServeSpec::resolvedRateLo())
     *  @param rateHi   search ceiling; 0 = unbounded
     *  @param budget   max probes (done() immediately when < 1) */
    KneeCursor(double rateLo, double rateHi, int budget)
        : ceiling_(rateHi), budget_(budget), next_(rateLo)
    {
        if (budget_ < 1)
            done_ = true;
    }

    /** Search finished: knee() and used() are final. */
    bool done() const { return done_; }

    /** Rate of the pending probe (meaningless once done()). */
    double next() const { return next_; }

    /** Highest rate known sustained so far (0 = none yet). */
    double knee() const { return lo_; }

    /** Probes consumed so far. */
    int used() const { return used_; }

    /** Feed the pending probe's verdict and pick the next rate. */
    void advance(bool sustained)
    {
        ++used_;
        if (phase1_) {
            if (sustained) {
                lo_ = next_;
                if (ceiling_ > 0.0 && next_ >= ceiling_) {
                    done_ = true;  // sustained at the ceiling
                    return;
                }
                next_ *= 4.0;
                if (ceiling_ > 0.0)
                    next_ = std::min(next_, ceiling_);
            } else {
                hi_ = next_;
                phase1_ = false;
            }
        } else {
            if (sustained)
                lo_ = next_;
            else
                hi_ = next_;
        }
        if (used_ >= budget_) {
            done_ = true;
            return;
        }
        if (!phase1_) {
            if (hi_ <= 0.0 || hi_ - lo_ <= 0.05 * hi_) {
                done_ = true;  // bracket tight enough
                return;
            }
            next_ = 0.5 * (lo_ + hi_);
        }
    }

  private:
    double ceiling_;
    int budget_;
    double next_;
    double lo_ = 0.0;   ///< highest rate known sustained
    double hi_ = 0.0;   ///< lowest rate known overloaded (0 = none)
    int used_ = 0;
    bool phase1_ = true;
    bool done_ = false;
};

/**
 * One memoized probe outcome. For a serve sweep the probe is one
 * (design, rate) cell; for a fleet knee it is one (placement, rate)
 * evaluation spanning every node. Counters are the probe's own
 * registry — the consumer merges them in decided order only, so
 * wasted speculation never pollutes --metrics totals.
 */
struct ProbeResult
{
    std::vector<ServeCellResult> cells;  ///< 1 (serve) or N nodes (fleet)
    bool sustained = false;
    CounterRegistry counters;
    TimeNs firstArrivalNs = 0;  ///< fleet makespan anchor at this rate
};

/** What a probe is a pure function of, within one search: the search
 *  lane (design index / placement index) and the rate's bit pattern
 *  (bisection rates are exact binary fractions — comparing bits, not
 *  values, keeps 0.0 vs -0.0 style surprises out). */
struct ProbeKey
{
    std::uint32_t lane = 0;
    std::uint64_t rateBits = 0;

    bool operator<(const ProbeKey& o) const
    {
        if (lane != o.lane)
            return lane < o.lane;
        return rateBits < o.rateBits;
    }
};

/** The bit pattern of @p rate (the ProbeKey encoding). */
std::uint64_t rateBitsOf(double rate);

/** Speculation accounting of one scheduler (reporting-only). */
struct ProbeStats
{
    std::uint64_t decided = 0;      ///< probes the searches consumed
    std::uint64_t issued = 0;       ///< probe executions submitted
    std::uint64_t speculated = 0;   ///< of issued: ahead of the decision
    std::uint64_t speculationUsed = 0;    ///< speculative slots consumed
    std::uint64_t speculationWasted = 0;  ///< mispredicted branches run
    std::uint64_t cacheHits = 0;  ///< acquires that never waited at all
};

/**
 * The probe tree executor. Consumers (one per search lane) walk their
 * KneeCursor and acquire() each decided probe; the scheduler issues
 * it if no one has yet, then — while the consumer waits — expands the
 * cursor's speculation frontier (both possible successors, then their
 * children, breadth-first up to @p maxDepth) onto idle workers.
 * Waiting consumers pitch in via ExperimentEngine::tryRunOne(), so
 * every pool size makes progress and a 1-worker pool degenerates to
 * exactly the sequential search.
 *
 * Speculation is automatically disabled on pools with fewer than two
 * workers: there is no idle capacity to soak, and staying inert keeps
 * single-worker runs' plan-cache totals exactly sequential.
 */
class ProbeScheduler
{
  public:
    /** Runs one probe: @p lane 's scenario at @p rate. Must be pure
     *  (no shared mutable state) — it runs on arbitrary threads. */
    using ProbeFn = std::function<ProbeResult(std::uint32_t lane,
                                              double rate)>;

    ProbeScheduler(ExperimentEngine& engine, ProbeFn fn, bool speculate,
                   int maxDepth = 3);

    /** Drains in-flight probes (pitching in) before returning. */
    ~ProbeScheduler();

    ProbeScheduler(const ProbeScheduler&) = delete;
    ProbeScheduler& operator=(const ProbeScheduler&) = delete;

    /**
     * The decided-path read: the memoized result of @p cursor 's
     * pending probe on @p lane, computing it if no probe has been
     * issued for that rate yet. Blocks until the result is ready,
     * running other queued probes meanwhile. The same key always
     * resolves to the same immutable result object.
     */
    std::shared_ptr<const ProbeResult>
    acquire(std::uint32_t lane, const KneeCursor& cursor);

    /** Speculation accounting; call after the searches complete. */
    ProbeStats stats() const;

  private:
    /** One memo slot: created when its probe is issued (result still
     *  null while it runs), filled exactly once. */
    struct Slot
    {
        std::shared_ptr<const ProbeResult> result;  ///< null in flight
        bool speculative = false;  ///< issued ahead of the decision
        bool consumed = false;     ///< a decided path read it
    };

    /** Issue a probe for @p key (lock held). */
    void issueLocked(const ProbeKey& key, double rate, bool speculative);

    /** Expand @p cursor 's speculation frontier (lock held). */
    void speculateLocked(std::uint32_t lane, const KneeCursor& cursor);

    ExperimentEngine& engine_;
    ProbeFn fn_;
    bool speculate_;
    int maxDepth_;
    std::size_t maxInFlight_;

    // One mutex/cv guards the slots and every counter: the completion
    // wake-up and the waiter's predicate re-check must be ordered, and
    // a version counter bumped on every issue *and* completion closes
    // the enqueue-vs-sleep race (a waiter that saw an empty engine
    // queue re-wakes when new work appears).
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t version_ = 0;
    std::map<ProbeKey, Slot> slots_;
    std::size_t inFlight_ = 0;
    ProbeStats stats_;
};

/** One lane's finished knee search. */
struct KneeLane
{
    /** The probes the search decided on, in probe order. */
    std::vector<std::shared_ptr<const ProbeResult>> decided;
    double knee = 0.0;         ///< highest rate found sustained (0 = none)
    std::uint64_t probes = 0;  ///< probes the search consumed
};

/** Every lane's search plus the scheduler's accounting. */
struct KneeSearch
{
    std::vector<KneeLane> lanes;
    ProbeStats stats;

    /**
     * Merge the decided probes' counters into @p reg — one registry per
     * lane in probe order, lanes in lane order, so the totals do not
     * depend on the pool size — then the `sweep.probe.*` accounting,
     * which does (visible via --metrics, never serialized).
     */
    void mergeCounters(CounterRegistry* reg) const;

    /** Copy the accounting into @p out 's `probes*` fields and, when
     *  @p collectCounters, mergeCounters() into `out->counters`. */
    template <class Result>
    void report(Result* out, bool collectCounters) const
    {
        out->probesIssued = stats.issued;
        out->probesSpeculative = stats.speculated;
        out->probeSpecUsed = stats.speculationUsed;
        out->probeSpecWasted = stats.speculationWasted;
        out->probeCacheHits = stats.cacheHits;
        if (collectCounters)
            mergeCounters(&out->counters);
    }
};

/**
 * Run @p lanes independent capacity-knee searches over @p engine 's
 * pool with @p knobs ' search settings (rate_lo, rate_hi, rate_probes,
 * speculate). Each lane walks a KneeCursor and acquires every decided
 * probe from one ProbeScheduler, which owns the probe memo; both die
 * before this returns, so nothing outlives the search but the decided
 * results. The decided path only reads memoized results in sequential
 * order, so every lane's results, knee and probe count are identical
 * at any pool size, speculation on or off. A lane's first probe is
 * always decided, never speculative.
 */
KneeSearch runKneeSearch(ExperimentEngine& engine, std::size_t lanes,
                         const ScenarioSpec& knobs,
                         ProbeScheduler::ProbeFn fn);

}  // namespace g10

#endif  // G10_SERVE_PROBE_SCHEDULER_H
