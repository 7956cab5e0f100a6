#include "probe_scheduler.h"

#include <cstring>
#include <deque>
#include <utility>

#include "obs/counters.h"
#include "serve/plan_cache.h"

namespace g10 {

std::uint64_t
rateBitsOf(double rate)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(rate), "double is 64-bit");
    std::memcpy(&bits, &rate, sizeof(bits));
    return bits;
}

// ---- ProbeCache ----------------------------------------------------

std::shared_ptr<const ProbeResult>
ProbeCache::find(const ProbeKey& key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    return it != slots_.end() ? it->second.result : nullptr;
}

std::uint64_t
ProbeCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const auto& kv : slots_)
        if (kv.second.result != nullptr)
            ++n;
    return n;
}

// ---- ArenaPool -----------------------------------------------------

std::unique_ptr<Arena>
ArenaPool::acquire()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!free_.empty()) {
            std::unique_ptr<Arena> a = std::move(free_.back());
            free_.pop_back();
            return a;
        }
    }
    return std::make_unique<Arena>();
}

void
ArenaPool::release(std::unique_ptr<Arena> arena)
{
    arena->reset();  // keep the high-water chunk warm
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(arena));
}

// ---- ProbeScheduler ------------------------------------------------

ProbeScheduler::ProbeScheduler(ExperimentEngine& engine,
                               ProbeCache& cache, std::uint64_t specFp,
                               ProbeFn fn, bool speculate, int maxDepth)
    : engine_(engine),
      cache_(cache),
      specFp_(specFp),
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
            std::unique_lock<std::mutex> lk(cache_.mu_);
            if (inFlight_ == 0)
                return;
        }
        if (engine_.tryRunOne())
            continue;
        std::unique_lock<std::mutex> lk(cache_.mu_);
        if (inFlight_ == 0)
            return;
        const std::uint64_t seen = cache_.version_;
        cache_.cv_.wait(lk, [&] {
            return inFlight_ == 0 || cache_.version_ != seen;
        });
    }
}

ProbeKey
ProbeScheduler::keyFor(std::uint32_t lane, double rate) const
{
    ProbeKey key;
    key.specFp = specFp_;
    key.lane = lane;
    key.rateBits = rateBitsOf(rate);
    return key;
}

void
ProbeScheduler::issueLocked(std::unique_lock<std::mutex>& lk,
                            const ProbeKey& key, std::uint32_t lane,
                            double rate, bool speculative)
{
    ProbeCache::Slot& slot = cache_.slots_[key];
    slot.speculative = speculative;
    ++inFlight_;
    ++stats_.issued;
    if (speculative)
        ++stats_.speculated;
    ++cache_.version_;

    // Submit while holding the cache lock (lock order is always
    // cache -> engine queue; the task body runs lock-free and only
    // then re-takes the cache lock, so there is no cycle).
    engine_.submit([this, key, lane, rate] {
        ProbeResult r = fn_(lane, rate);
        std::lock_guard<std::mutex> lock(cache_.mu_);
        cache_.slots_[key].result =
            std::make_shared<const ProbeResult>(std::move(r));
        --inFlight_;
        ++cache_.version_;
        cache_.cv_.notify_all();
    });
    (void)lk;
    cache_.cv_.notify_all();
}

void
ProbeScheduler::speculateLocked(std::unique_lock<std::mutex>& lk,
                                std::uint32_t lane,
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
                const ProbeKey key = keyFor(lane, child.next());
                if (cache_.slots_.find(key) == cache_.slots_.end())
                    issueLocked(lk, key, lane, child.next(), true);
                next.push_back(child);
            }
        }
        frontier = std::move(next);
    }
}

std::shared_ptr<const ProbeResult>
ProbeScheduler::acquire(std::uint32_t lane, const KneeCursor& cursor)
{
    const ProbeKey key = keyFor(lane, cursor.next());
    {
        std::unique_lock<std::mutex> lk(cache_.mu_);
        ++stats_.decided;
        auto it = cache_.slots_.find(key);
        if (it == cache_.slots_.end()) {
            issueLocked(lk, key, lane, cursor.next(), false);
        } else {
            ProbeCache::Slot& slot = it->second;
            if (slot.speculative && !slot.consumed)
                ++stats_.speculationUsed;
            if (slot.result != nullptr)
                ++stats_.cacheHits;
        }
        cache_.slots_[key].consumed = true;
        speculateLocked(lk, lane, cursor);
    }

    // Wait for the probe, draining other queued probes meanwhile —
    // the "pitch-in" that lets N consumers and their speculation
    // share any pool size without deadlock: a consumer only sleeps
    // when the engine queue is empty, which means its awaited probe
    // is *running* on some thread and will complete and notify.
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(cache_.mu_);
            auto it = cache_.slots_.find(key);
            if (it->second.result != nullptr)
                return it->second.result;
        }
        if (engine_.tryRunOne())
            continue;
        std::unique_lock<std::mutex> lk(cache_.mu_);
        auto it = cache_.slots_.find(key);
        if (it->second.result != nullptr)
            return it->second.result;
        const std::uint64_t seen = cache_.version_;
        cache_.cv_.wait(lk, [&] {
            return it->second.result != nullptr ||
                   cache_.version_ != seen;
        });
        if (it->second.result != nullptr)
            return it->second.result;
        // A new probe was enqueued while we dozed — go pitch in.
    }
}

ProbeStats
ProbeScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(cache_.mu_);
    ProbeStats s = stats_;
    // Every speculative slot is consumed at most once, so the split
    // is exact once the searches are done.
    s.speculationWasted = s.speculated - s.speculationUsed;
    return s;
}

// ---- Spec fingerprint ----------------------------------------------

void
mixScenarioSpec(SpecHash& h, const ScenarioSpec& spec)
{
    h.mix(fingerprintSystemConfig(spec.sys));
    h.mix(spec.scaleDown);
    h.mix(spec.seed);
    h.mix(static_cast<std::uint64_t>(spec.slots));
    h.mix(static_cast<std::uint64_t>(spec.partitionPolicy));
    h.mixDouble(spec.resizeHysteresis);
    h.mix(spec.queueCapacity);
    h.mix(static_cast<std::uint64_t>(spec.admit));
    h.mix(static_cast<std::uint64_t>(spec.starvationNs));
    h.mixDouble(spec.sloFactor);
    h.mix(static_cast<std::uint64_t>(spec.requests));
    h.mix(static_cast<std::uint64_t>(spec.arrival.kind));
    h.mixDouble(spec.arrival.burstOnSec);
    h.mixDouble(spec.arrival.burstOffSec);
    h.mixString(spec.arrival.tracePath);
    h.mix(spec.classes.size());
    for (const ServeJobClass& c : spec.classes) {
        h.mixString(c.name);
        h.mix(static_cast<std::uint64_t>(c.model));
        h.mix(static_cast<std::uint64_t>(c.batchSize));
        h.mix(static_cast<std::uint64_t>(c.iterations));
        h.mix(static_cast<std::uint64_t>(c.priority));
        h.mixDouble(c.weight);
    }
}

std::uint64_t
fingerprintServeSpec(const ServeSpec& spec)
{
    SpecHash h;
    mixScenarioSpec(h, spec);
    h.mix(static_cast<std::uint64_t>(spec.maxActive));
    h.mix(spec.designs.size());
    for (const std::string& d : spec.designs)
        h.mixString(d);
    return h.digest();
}

void
addProbeCounters(const ProbeStats& stats, CounterRegistry* reg)
{
    reg->add("sweep.probe.issued", stats.issued);
    reg->add("sweep.probe.decided", stats.decided);
    reg->add("sweep.probe.speculated", stats.speculated);
    reg->add("sweep.probe.speculation_used", stats.speculationUsed);
    reg->add("sweep.probe.speculation_wasted", stats.speculationWasted);
    reg->add("sweep.probe.cache_hits", stats.cacheHits);
}

}  // namespace g10
