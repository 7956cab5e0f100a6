#include "probe_scheduler.h"

#include <cstring>
#include <deque>
#include <utility>

#include "obs/counters.h"

namespace g10 {

std::uint64_t
rateBitsOf(double rate)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(rate), "double is 64-bit");
    std::memcpy(&bits, &rate, sizeof(bits));
    return bits;
}

// ---- ProbeScheduler ------------------------------------------------

ProbeScheduler::ProbeScheduler(ExperimentEngine& engine, ProbeFn fn,
                               bool speculate, int maxDepth)
    : engine_(engine),
      fn_(std::move(fn)),
      speculate_(speculate && engine.workers() >= 2),
      maxDepth_(maxDepth),
      maxInFlight_(engine.workers() + 1)
{
}

ProbeScheduler::~ProbeScheduler()
{
    // Wasted speculation may still be running; it borrows fn_ and the
    // caller's captures, so drain it before those go away.
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (inFlight_ == 0)
                return;
        }
        if (engine_.tryRunOne())
            continue;
        std::unique_lock<std::mutex> lk(mu_);
        if (inFlight_ == 0)
            return;
        const std::uint64_t seen = version_;
        cv_.wait(lk, [&] { return inFlight_ == 0 || version_ != seen; });
    }
}

void
ProbeScheduler::issueLocked(const ProbeKey& key, double rate,
                            bool speculative)
{
    slots_[key].speculative = speculative;
    ++inFlight_;
    ++stats_.issued;
    if (speculative)
        ++stats_.speculated;
    ++version_;

    // Submit while holding the lock (lock order is always scheduler ->
    // engine queue; the task body runs lock-free and only then re-takes
    // the scheduler lock, so there is no cycle).
    engine_.submit([this, key, rate] {
        ProbeResult r = fn_(key.lane, rate);
        std::lock_guard<std::mutex> lock(mu_);
        slots_[key].result =
            std::make_shared<const ProbeResult>(std::move(r));
        --inFlight_;
        ++version_;
        cv_.notify_all();
    });
    cv_.notify_all();
}

void
ProbeScheduler::speculateLocked(std::uint32_t lane,
                                const KneeCursor& cursor)
{
    if (!speculate_)
        return;

    // Breadth-first over the automaton's future: level 1 is the two
    // possible successors of the pending probe, level 2 their
    // children, … — nearer levels are likelier to be consumed, so
    // they get the in-flight slots first.
    std::deque<KneeCursor> frontier{cursor};
    for (int depth = 0; depth < maxDepth_ && !frontier.empty();
         ++depth) {
        std::deque<KneeCursor> next;
        for (const KneeCursor& c : frontier) {
            for (bool sustained : {true, false}) {
                if (inFlight_ >= maxInFlight_)
                    return;
                KneeCursor child = c;
                child.advance(sustained);
                if (child.done())
                    continue;
                const ProbeKey key{lane, rateBitsOf(child.next())};
                if (slots_.find(key) == slots_.end())
                    issueLocked(key, child.next(), true);
                next.push_back(child);
            }
        }
        frontier = std::move(next);
    }
}

std::shared_ptr<const ProbeResult>
ProbeScheduler::acquire(std::uint32_t lane, const KneeCursor& cursor)
{
    const ProbeKey key{lane, rateBitsOf(cursor.next())};
    {
        std::unique_lock<std::mutex> lk(mu_);
        ++stats_.decided;
        auto it = slots_.find(key);
        if (it == slots_.end()) {
            issueLocked(key, cursor.next(), false);
        } else {
            Slot& slot = it->second;
            if (slot.speculative && !slot.consumed)
                ++stats_.speculationUsed;
            if (slot.result != nullptr)
                ++stats_.cacheHits;
        }
        slots_[key].consumed = true;
        speculateLocked(lane, cursor);
    }

    // Wait for the probe, draining other queued probes meanwhile —
    // the "pitch-in" that lets N consumers and their speculation
    // share any pool size without deadlock: a consumer only sleeps
    // when the engine queue is empty, which means its awaited probe
    // is *running* on some thread and will complete and notify.
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            auto it = slots_.find(key);
            if (it->second.result != nullptr)
                return it->second.result;
        }
        if (engine_.tryRunOne())
            continue;
        std::unique_lock<std::mutex> lk(mu_);
        auto it = slots_.find(key);
        if (it->second.result != nullptr)
            return it->second.result;
        const std::uint64_t seen = version_;
        cv_.wait(lk, [&] {
            return it->second.result != nullptr || version_ != seen;
        });
        if (it->second.result != nullptr)
            return it->second.result;
        // A new probe was enqueued while we dozed — go pitch in.
    }
}

ProbeStats
ProbeScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ProbeStats s = stats_;
    // Every speculative slot is consumed at most once, so the split
    // is exact once the searches are done.
    s.speculationWasted = s.speculated - s.speculationUsed;
    return s;
}

// ---- Knee search ---------------------------------------------------

KneeSearch
runKneeSearch(ExperimentEngine& engine, std::size_t lanes,
              const ScenarioSpec& knobs, ProbeScheduler::ProbeFn fn)
{
    KneeSearch out;
    out.lanes.resize(lanes);
    ProbeScheduler sched(engine, std::move(fn), knobs.speculativeProbes);
    engine.parallelFor(lanes, [&](std::size_t l) {
        KneeLane& lane = out.lanes[l];
        KneeCursor cur(knobs.resolvedRateLo(), knobs.rateHi,
                       knobs.rateProbes);
        while (!cur.done()) {
            lane.decided.push_back(
                sched.acquire(static_cast<std::uint32_t>(l), cur));
            cur.advance(lane.decided.back()->sustained);
        }
        lane.knee = cur.knee();
        lane.probes = static_cast<std::uint64_t>(cur.used());
    });
    // The searches are done; the scheduler's dtor drains whatever
    // speculation is still in flight before the caller's captures go.
    out.stats = sched.stats();
    return out;
}

void
KneeSearch::mergeCounters(CounterRegistry* reg) const
{
    for (const KneeLane& lane : lanes) {
        CounterRegistry laneReg;
        for (const auto& probe : lane.decided)
            laneReg.merge(probe->counters);
        reg->merge(laneReg);
    }
    reg->add("sweep.probe.issued", stats.issued);
    reg->add("sweep.probe.decided", stats.decided);
    reg->add("sweep.probe.speculated", stats.speculated);
    reg->add("sweep.probe.speculation_used", stats.speculationUsed);
    reg->add("sweep.probe.speculation_wasted", stats.speculationWasted);
    reg->add("sweep.probe.cache_hits", stats.cacheHits);
}

}  // namespace g10
