#include "serve_sim.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stats.h"
#include "engine/partition.h"
#include "obs/tracer.h"
#include "policies/g10_policy.h"
#include "policies/registry.h"
#include "serve/plan_cache.h"
#include "serve/probe_scheduler.h"
#include "sim/runtime/sim_runtime.h"

namespace g10 {

TimeNs
planServiceEstimateNs(const KernelTrace& trace,
                      const SystemConfig& sys, int iterations)
{
    TimeNs iter = 0;
    for (std::size_t k = 0; k < trace.numKernels(); ++k)
        iter += trace.kernel(static_cast<KernelId>(k)).durationNs +
                sys.kernelLaunchOverheadNs;
    return iter * iterations;
}

Bytes
serveClassGpuFloor(const KernelTrace& trace, Bytes page)
{
    const Bytes ws = trace.peakKernelWorkingSet(page);
    return ws + ws / 8;
}

std::vector<ServeRequest>
drawRequestStream(const ScenarioSpec& scenario,
                  const std::vector<ServeJobClass>& classes, double rate)
{
    std::vector<TimeNs> times = generateArrivals(
        scenario.arrival, rate, scenario.requests, scenario.seed);
    // Class picks draw from their own engine so the class sequence is
    // identical at every rate (cells differ only in arrival spacing).
    std::mt19937_64 picks(scenario.seed + 1);
    double wsum = 0.0;
    for (const ServeJobClass& cls : classes)
        wsum += cls.weight;
    std::vector<ServeRequest> out;
    out.reserve(times.size());
    for (TimeNs t : times) {
        double u = unitInterval(picks) * wsum;
        double cum = 0.0;
        std::size_t ci = classes.size() - 1;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            cum += classes[c].weight;
            if (u <= cum) {
                ci = c;
                break;
            }
        }
        ServeRequest r;
        r.arrivalNs = t;
        r.classIndex = ci;
        out.push_back(r);
    }
    return out;
}

namespace {

/** Warm-start seed chain: per model, the last compiled plan of this
 *  cell (whatever batch size or partition capacity it was compiled at
 *  — the replay re-validates every pick against the new trace and
 *  capacity, so staleness is safe). Shared handles: a seed may live in
 *  the sweep-wide SweepPlanCache and in several cells at once. */
using PlanCache =
    std::map<int, std::shared_ptr<const CompiledPlan>>;

/** What an admission-time compile did (feeds the cell metrics). */
struct CompileOutcome
{
    bool warm = false;             ///< seeded by a cached schedule
    bool capacityCrossed = false;  ///< seed compiled at a different cap
    std::uint64_t replayed = 0;    ///< prior picks recommitted
    std::uint64_t dropped = 0;     ///< prior picks invalidated
};

/**
 * Instantiate the cell's design for one admitted job. G10-family
 * designs go through the warm-start path: the previous compile of the
 * same model seeds the eviction scheduler (the serving win: churn
 * re-plans in O(migrations) instead of O(periods log periods) when
 * only the batch size or the partition capacity changed).
 */
DesignInstance
makeServeInstance(const PolicyInfo& design, const KernelTrace& trace,
                  const ServeJobClass& cls, unsigned scaleDown,
                  const SystemConfig& sys, PlanCache* cache,
                  SweepPlanCache* sweepCache, CompileOutcome* oc)
{
    *oc = CompileOutcome{};
    if (!design.g10)
        return design.make(trace, sys);

    const int model_key = static_cast<int>(cls.model);
    std::shared_ptr<const CompiledPlan> seed;
    auto it = cache->find(model_key);
    if (it != cache->end()) {
        seed = it->second;
        oc->warm = true;
        oc->capacityCrossed =
            seed->schedule.scheduledForGpuBytes != sys.gpuMemBytes;
    }

    std::shared_ptr<const CompiledPlan> plan = compilePlan(
        *design.g10, trace, cls, scaleDown, sys, seed, sweepCache);
    oc->replayed = plan->schedule.warmReplayed;
    oc->dropped = plan->schedule.warmDropped;
    (*cache)[model_key] = plan;
    return design.instance(std::move(plan));
}

/** Percentile of a Distribution as integer nanoseconds. */
TimeNs
pctNs(const Distribution& d, double p)
{
    return static_cast<TimeNs>(d.percentile(p));
}

}  // namespace

ServeClassBaseline
unloadedBaseline(const PolicyInfo& design, const KernelTrace& trace,
                 const ServeJobClass& cls, unsigned scaleDown,
                 const SystemConfig& slotSys, std::uint64_t seed,
                 SweepPlanCache* cache)
{
    const DesignInstance di =
        design.g10 ? design.instance(compilePlan(*design.g10, trace, cls,
                                                 scaleDown, slotSys,
                                                 nullptr, cache))
                   : design.make(trace, slotSys);
    RunConfig rc;
    rc.sys = slotSys;
    rc.iterations = cls.iterations;
    rc.uvmExtension = di.uvmExtension;
    rc.seed = seed;
    SimRuntime rt(trace, *di.policy, rc);
    const ExecStats st = rt.run();
    ServeClassBaseline out;
    out.unloadedNs = rt.now();
    out.failed = st.failed;
    return out;
}

// ---------------------------------------------------------------------
// ServeSim: one (design, rate) cell
// ---------------------------------------------------------------------

ServeSim::ServeSim(const ServeSpec& spec, std::string design,
                   double rate,
                   const std::vector<KernelTrace>& traces,
                   const std::vector<ServeJobClass>& classes,
                   const std::vector<Bytes>& minGpu,
                   std::vector<ServeRequest> requests,
                   const std::vector<ServeClassBaseline>& baselines)
    : spec_(spec), design_(std::move(design)),
      info_(PolicyRegistry::instance().resolve(design_)), rate_(rate),
      traces_(traces), classes_(classes), minGpu_(minGpu),
      requests_(std::move(requests)), baselines_(baselines)
{
    if (traces_.size() != classes_.size())
        panic("ServeSim: %zu traces for %zu classes", traces_.size(),
              classes_.size());
    if (minGpu_.size() != classes_.size())
        panic("ServeSim: %zu floors for %zu classes", minGpu_.size(),
              classes_.size());
    if (baselines_.size() != classes_.size())
        panic("ServeSim: %zu baselines for %zu classes",
              baselines_.size(), classes_.size());
    if (requests_.empty())
        panic("ServeSim: no requests offered");
    // run() walks arrivals with a cursor, so the offered sequence must
    // already be in time order (every producer emits it sorted).
    for (std::size_t i = 1; i < requests_.size(); ++i)
        if (requests_[i].arrivalNs < requests_[i - 1].arrivalNs)
            panic("ServeSim: request %zu arrives before request %zu",
                  i, i - 1);
}

ServeCellResult
ServeSim::run()
{
    ServeCellResult out;
    out.design = design_;
    out.designName = info_.name;
    out.rate = rate_;
    out.jobs.resize(requests_.size());
    for (std::size_t i = 0; i < requests_.size(); ++i) {
        out.jobs[i].request = i;
        out.jobs[i].classIndex = requests_[i].classIndex;
        out.jobs[i].arrivalNs = requests_[i].arrivalNs;
    }
    ServeMetrics& m = out.metrics;

    const SystemConfig scaled = spec_.sys.scaledDown(spec_.scaleDown);
    const PartitionPolicy ppol = spec_.partitionPolicy;
    const int maxActive = spec_.resolvedMaxActive();
    const double hysteresis = spec_.resizeHysteresis;
    PartitionManager partitions(scaled, spec_.slots);
    const Bytes totalGpu = partitions.totalGpuBytes();
    const Bytes totalHost = partitions.totalHostBytes();
    const Bytes slotGpu = partitions.slotSystem().gpuMemBytes;
    const Bytes slotHost = partitions.slotSystem().hostMemBytes;

    // Host staging follows the GPU share so a lease is one fraction
    // of the machine, not two independent knobs.
    auto hostFor = [&](Bytes gpu) -> Bytes {
        if (totalGpu == 0)
            return 0;
        return static_cast<Bytes>(
            static_cast<double>(totalHost) *
            (static_cast<double>(gpu) / static_cast<double>(totalGpu)));
    };

    SsdDevice ssd(scaled);
    FabricChannels channels;
    GpuComputeTimeline gpu;
    SharedResources shared;
    shared.ssd = &ssd;
    shared.channels = &channels;
    shared.gpu = &gpu;

    AdmissionQueue queue(spec_.admit, spec_.queueCapacity,
                         spec_.starvationNs);

    // Per-class SJF keys (design-independent, so computed once).
    std::vector<TimeNs> serviceEst(classes_.size(), 0);
    for (std::size_t c = 0; c < classes_.size(); ++c)
        serviceEst[c] = planServiceEstimateNs(traces_[c], scaled,
                                              classes_[c].iterations);

    // Per-class capacity floors (computed once per sweep): clamped to
    // the whole machine so a class too big for the node is still
    // admitted alone and fails with the explicit hard OOM — exactly
    // the static policy's semantics — instead of waiting forever.
    std::vector<Bytes> minGpu(minGpu_.size(), 0);
    for (std::size_t c = 0; c < minGpu_.size(); ++c)
        minGpu[c] = std::min(minGpu_[c], totalGpu);

    PlanCache planCache;

    // Observability: one Tracer shared by the serving events and every
    // admitted job's runtime (pid = request index). tp is null when
    // the cell runs unobserved; every emit site below is a guarded
    // read-only observation, so the cell result is bit-identical
    // either way.
    Tracer tracer(sink_, counters_);
    Tracer* const tp =
        (sink_ != nullptr || counters_ != nullptr) ? &tracer : nullptr;

    struct Active
    {
        std::size_t request = 0;
        std::size_t classIndex = 0;
        DesignInstance design;
        std::unique_ptr<SimRuntime> rt;
        PartitionManager::Lease lease;
    };
    std::vector<Active> active;
    active.reserve(static_cast<std::size_t>(maxActive));

    // ---- Elastic capacity machinery ------------------------------

    // After any capacity change, G10-family jobs replan: recompile
    // the migration schedule at the new budget, warm-started from the
    // schedule the job is currently replaying, and swap it in. The
    // scheduler replays the picks the capacity delta left valid and
    // only re-runs its greedy search on the uncovered pressure.
    auto replanAfterResize = [&](Active& a) {
        if (!info_.g10)
            return;
        const auto* gp =
            static_cast<const G10Policy*>(a.design.policy.get());
        std::shared_ptr<const CompiledPlan> plan = compilePlan(
            *info_.g10, traces_[a.classIndex],
            classes_[a.classIndex], spec_.scaleDown, a.lease.sys,
            gp->compiledShared(), planCache_);
        const EvictionSchedule& ns = plan->schedule;
        ++m.replans;
        m.warmReplayedMigrations += ns.warmReplayed;
        m.warmDroppedMigrations += ns.warmDropped;
        if (ns.warmReplayed > 0)
            ++m.resizeWarmHits;
        if (tp)
            tp->warmReplan(static_cast<int>(a.request),
                           ns.warmReplayed, ns.warmDropped,
                           a.rt->now());
        planCache[static_cast<int>(classes_[a.classIndex].model)] =
            plan;
        DesignInstance replanned = info_.instance(std::move(plan));
        a.rt->setPolicy(*replanned.policy);
        a.design = std::move(replanned);
    };

    // Post-change bookkeeping shared by the resize and split paths:
    // push the lease's new budget into the runtime (eager eviction
    // down to the new watermark), count the work, warm-replan.
    auto applyBudget = [&](Active& a, bool shrink) {
        SimRuntime::ResizeOutcome ro = a.rt->resizeMemoryBudget(
            a.lease.sys.gpuMemBytes, a.lease.sys.hostMemBytes);
        ++m.resizes;
        if (shrink)
            ++m.resizeShrinks;
        else
            ++m.resizeGrows;
        m.resizeEvictedBytes += ro.evictedBytes;
        replanAfterResize(a);
    };

    // One live job's capacity change: manager accounting, then the
    // shared budget/replan bookkeeping.
    auto resizeActive = [&](Active& a, Bytes gpuBytes) {
        const Bytes cur = a.lease.sys.gpuMemBytes;
        if (gpuBytes == cur)
            return;
        partitions.resize(&a.lease, gpuBytes, hostFor(gpuBytes));
        if (tp)
            tp->partitionEvent("resize", static_cast<int>(a.request),
                               gpuBytes, a.rt->now());
        applyBudget(a, gpuBytes < cur);
    };

    // Floor of one live job's lease (never shrink below this).
    auto floorOf = [&](const Active& a) -> Bytes {
        return minGpu[a.classIndex];
    };

    // The proportional policy's post-admission size of incumbent
    // @p o when the active set grows to @p count jobs: the equal
    // share, raised to the job's floor, but never *grown* at
    // admission time (growth is departure-driven and hysteresis
    // gated).
    auto proportionalTarget = [&](const Active& o,
                                  std::size_t count) -> Bytes {
        const Bytes tgt =
            std::max(totalGpu / static_cast<Bytes>(count),
                     floorOf(o));
        return std::min(o.lease.sys.gpuMemBytes, tgt);
    };

    // The ondemand policy's split victim for a @p need-byte arrival:
    // the largest live lease that can donate half while both halves
    // stay viable (donor above its floor, grant at least half a slot
    // and above the arrival's floor). nullptr = no viable donor.
    auto splitVictim = [&](Bytes need) -> Active* {
        Active* best = nullptr;
        for (Active& o : active) {
            const Bytes cur = o.lease.sys.gpuMemBytes;
            const Bytes carve = static_cast<Bytes>(
                static_cast<double>(cur) * 0.5);
            if (carve < need || carve < slotGpu / 2 ||
                cur - carve < floorOf(o))
                continue;
            if (best == nullptr ||
                cur > best->lease.sys.gpuMemBytes)
                best = &o;
        }
        return best;
    };

    // Admission gate per policy, for a request of class @p cls.
    // Static gates on free slots; the elastic policies gate on the
    // concurrency cap and on whether a floor-respecting grant exists.
    // OnDemand's ordinary admissions take whole slots from the pool —
    // splitting live leases is an *overload* escape valve (see
    // splitAdmitHead below), because at moderate load a short wait
    // for a full slot beats running everyone at half capacity.
    auto canAdmit = [&](std::size_t cls) -> bool {
        if (ppol == PartitionPolicy::Static)
            return partitions.hasFree();
        if (static_cast<int>(active.size()) >= maxActive)
            return false;
        if (ppol == PartitionPolicy::Proportional) {
            // Capacity left after every incumbent shrinks to its
            // post-admission share must cover the arrival's floor.
            const std::size_t count = active.size() + 1;
            Bytes leased = 0;
            for (const Active& o : active)
                leased += proportionalTarget(o, count);
            const Bytes free =
                totalGpu > leased ? totalGpu - leased : 0;
            const Bytes grant = std::min(
                free, std::max(totalGpu / count, minGpu[cls]));
            return grant >= minGpu[cls] && grant > 0;
        }
        return partitions.freeGpuBytes() >= slotGpu &&
               partitions.freeHostBytes() >= slotHost;
    };

    // Lease capacity for a new admission under the cell's policy.
    auto leaseForAdmission = [&](Active& a) {
        switch (ppol) {
          case PartitionPolicy::Static:
            a.lease = partitions.acquire();
            return;
          case PartitionPolicy::Proportional: {
            // Equal share of the whole machine across the active set:
            // shrink every incumbent above its post-admission share
            // (mandatory — hysteresis only defers growth), then grant
            // the arrival its share.
            const std::size_t count = active.size() + 1;
            for (Active& o : active) {
                const Bytes tgt = proportionalTarget(o, count);
                if (o.lease.sys.gpuMemBytes > tgt)
                    resizeActive(o, tgt);
            }
            const Bytes grant = std::min(
                partitions.freeGpuBytes(),
                std::max(totalGpu / static_cast<Bytes>(count),
                         minGpu[a.classIndex]));
            const Bytes grantHost =
                std::min(hostFor(grant), partitions.freeHostBytes());
            a.lease = partitions.acquireBytes(grant, grantHost);
            return;
          }
          case PartitionPolicy::OnDemand: {
            // A full static-slot grant while the pool has one; then
            // split the largest viable live lease in half (canAdmit()
            // guarantees a donor exists).
            if (partitions.freeGpuBytes() >= slotGpu &&
                partitions.freeHostBytes() >= slotHost) {
                a.lease = partitions.acquireBytes(slotGpu, slotHost);
                return;
            }
            Active* big = splitVictim(
                std::max(minGpu[a.classIndex], slotGpu / 2));
            if (big == nullptr)
                panic("ondemand admission with no viable donor");
            a.lease = partitions.split(&big->lease, 0.5);
            ++m.splits;
            if (tp)
                tp->partitionEvent("split",
                                   static_cast<int>(big->request),
                                   big->lease.sys.gpuMemBytes,
                                   big->rt->now());
            applyBudget(*big, true);
            return;
          }
        }
    };

    // After a departure (and after the queue drained into the freed
    // capacity), grow the survivors back. Growth is hysteresis-gated
    // so lease geometry does not thrash under churn.
    auto redistributeAfterDeparture = [&]() {
        if (ppol == PartitionPolicy::Static || active.empty())
            return;
        if (ppol == PartitionPolicy::Proportional) {
            const Bytes tgt =
                totalGpu / static_cast<Bytes>(active.size());
            for (Active& o : active) {
                const Bytes cur = o.lease.sys.gpuMemBytes;
                if (cur >= tgt)
                    continue;
                const Bytes grow =
                    std::min(tgt - cur, partitions.freeGpuBytes());
                if (grow == 0 ||
                    static_cast<double>(grow) <
                        hysteresis * static_cast<double>(cur))
                    continue;
                resizeActive(o, cur + grow);
            }
            return;
        }
        // OnDemand: top the smallest leases back up toward a full
        // slot, smallest first (they gain the most per byte).
        while (true) {
            Active* small = nullptr;
            for (Active& o : active)
                if (o.lease.sys.gpuMemBytes < slotGpu &&
                    (small == nullptr ||
                     o.lease.sys.gpuMemBytes <
                         small->lease.sys.gpuMemBytes))
                    small = &o;
            if (small == nullptr)
                break;
            const Bytes cur = small->lease.sys.gpuMemBytes;
            const Bytes grow =
                std::min(slotGpu - cur, partitions.freeGpuBytes());
            if (grow == 0 ||
                static_cast<double>(grow) <
                    hysteresis * static_cast<double>(cur))
                break;
            resizeActive(*small, cur + grow);
        }
    };

    auto admit = [&](std::size_t req, TimeNs when) {
        const ServeRequest& r = requests_[req];
        const ServeJobClass& cls = classes_[r.classIndex];
        Active a;
        a.request = req;
        a.classIndex = r.classIndex;
        leaseForAdmission(a);
        CompileOutcome oc;
        a.design = makeServeInstance(info_, traces_[r.classIndex],
                                     cls, spec_.scaleDown,
                                     a.lease.sys, &planCache,
                                     planCache_, &oc);
        out.jobs[req].warmCompiled = oc.warm;
        if (tp && info_.g10)
            tp->planCacheLookup(oc.warm);
        if (oc.warm) {
            ++m.warmCompiles;
            if (oc.capacityCrossed && oc.replayed > 0)
                ++m.resizeWarmHits;
        } else {
            ++m.coldCompiles;
        }
        m.warmReplayedMigrations += oc.replayed;
        m.warmDroppedMigrations += oc.dropped;

        RunConfig rc;
        rc.sys = a.lease.sys;
        rc.iterations = cls.iterations;
        rc.uvmExtension = a.design.uvmExtension;
        rc.seed = spec_.seed + req;
        rc.startNs = when;
        a.rt = std::make_unique<SimRuntime>(traces_[r.classIndex],
                                            *a.design.policy, rc,
                                            shared);
        if (tp) {
            tp->admission(static_cast<int>(req), cls.name, r.arrivalNs,
                          when, a.lease.sys.gpuMemBytes, oc.warm);
            // Attach before start() so admission prefetches are traced.
            a.rt->setTracer(tp, static_cast<int>(req));
        }
        a.rt->start();
        out.jobs[req].admitNs = when;
        active.push_back(std::move(a));
    };

    auto drainQueue = [&](TimeNs now) {
        // Gate on the job the policy would pop next (no bypass: a
        // large head holds the line, as in the slot-mode behavior).
        while (!queue.empty()) {
            const QueuedJob& head = queue.peek(now);
            if (!canAdmit(requests_[head.request].classIndex))
                break;
            QueuedJob qj = queue.pop(now);
            admit(qj.request, std::max(now, qj.arrivalNs));
        }
    };

    // Open-loop arrivals: the offered sequence is sorted by arrival
    // time, so a cursor over it yields each instant's arrivals in
    // request order.
    std::size_t nextReq = 0;

    // Main interleaving loop: either the next arrival is due before
    // any active job's clock (process arrivals/admissions), or the
    // active job furthest behind in time replays one kernel — the
    // same deterministic furthest-behind discipline MultiTenantSim
    // uses, extended with mid-run attach/detach.
    while (nextReq < requests_.size() || !queue.empty() ||
           !active.empty()) {
        std::size_t minIdx = SIZE_MAX;
        TimeNs minClock = 0;
        for (std::size_t i = 0; i < active.size(); ++i) {
            if (minIdx == SIZE_MAX || active[i].rt->now() < minClock) {
                minClock = active[i].rt->now();
                minIdx = i;
            }
        }

        const bool arrivalsLeft = nextReq < requests_.size();
        if (minIdx == SIZE_MAX ||
            (arrivalsLeft && requests_[nextReq].arrivalNs <= minClock)) {
            if (!arrivalsLeft)
                panic("serve loop stalled: queued jobs but no "
                      "arrivals and no active jobs");
            const TimeNs nextArr = requests_[nextReq].arrivalNs;
            for (; nextReq < requests_.size() &&
                   requests_[nextReq].arrivalNs == nextArr;
                 ++nextReq) {
                const std::size_t req = nextReq;
                const ServeRequest& r = requests_[req];
                // Free capacity admits immediately — simultaneous
                // arrivals must not be shed off a full queue while
                // partitions sit idle.
                if (queue.empty() && canAdmit(r.classIndex)) {
                    admit(req, r.arrivalNs);
                    continue;
                }
                QueuedJob qj;
                qj.request = req;
                qj.arrivalNs = r.arrivalNs;
                qj.serviceEstNs = serviceEst[r.classIndex];
                qj.priority = classes_[r.classIndex].priority;
                if (queue.offer(qj))
                    continue;
                // Queue full. OnDemand's overload escape valve: split
                // a live lease for the policy's next waiter instead
                // of shedding the newcomer — trading per-job speed
                // for not rejecting under pressure.
                bool rescued = false;
                if (ppol == PartitionPolicy::OnDemand &&
                    static_cast<int>(active.size()) < maxActive) {
                    if (!queue.empty()) {
                        const QueuedJob& head =
                            queue.peek(r.arrivalNs);
                        const std::size_t hcls =
                            requests_[head.request].classIndex;
                        if (splitVictim(std::max(minGpu[hcls],
                                                 slotGpu / 2)) !=
                            nullptr) {
                            QueuedJob hj = queue.pop(r.arrivalNs);
                            admit(hj.request,
                                  std::max(r.arrivalNs,
                                           hj.arrivalNs));
                            rescued = queue.offer(qj);
                        }
                    } else if (splitVictim(std::max(
                                   minGpu[r.classIndex],
                                   slotGpu / 2)) != nullptr) {
                        // Zero-capacity queue: split for the arrival.
                        admit(req, r.arrivalNs);
                        rescued = true;
                    }
                }
                if (!rescued) {
                    out.jobs[req].rejected = true;  // load shed
                    if (tp)
                        tp->rejection(static_cast<int>(req),
                                      classes_[r.classIndex].name,
                                      r.arrivalNs);
                }
            }
            if (tp)
                tp->queueDepth(queue.size(), nextArr);
            drainQueue(nextArr);
            continue;
        }

        Active& a = active[minIdx];
        if (a.rt->stepKernel())
            continue;

        // Departure: finalize, record, release the partition lease
        // and trim the job's SSD log space for the next arrival.
        ExecStats st = a.rt->finalize();
        ServeJobOutcome& o = out.jobs[a.request];
        o.finishNs = a.rt->now();
        o.failed = st.failed;
        if (tp) {
            // SLO verdict at departure time — the same expression the
            // post-loop metrics evaluate — so a saved trace carries
            // every breach (see Tracer::departure).
            const ServeClassBaseline& base = baselines_[a.classIndex];
            TimeNs sloLimit = 0;
            bool sloMet = false;
            if (!st.failed && !base.failed && base.unloadedNs > 0) {
                const double limit =
                    spec_.sloFactor *
                    static_cast<double>(base.unloadedNs);
                sloLimit = static_cast<TimeNs>(limit);
                sloMet = static_cast<double>(o.latencyNs()) <= limit;
            }
            tp->departure(static_cast<int>(a.request),
                          classes_[a.classIndex].name,
                          requests_[a.request].arrivalNs, a.rt->now(),
                          st.failed, sloLimit, sloMet);
        }
        a.rt->releaseSsdLog();
        partitions.release(&a.lease);
        const TimeNs freedAt = a.rt->now();
        active.erase(active.begin() +
                     static_cast<std::ptrdiff_t>(minIdx));
        drainQueue(freedAt);
        redistributeAfterDeparture();
    }

    // ---- SLO-centric metrics. ----
    m.offered = out.jobs.size();
    Distribution queueDelay, latency, slowdown;
    TimeNs firstArrival = requests_.front().arrivalNs;
    TimeNs lastFinish = 0;
    std::uint64_t sloMet = 0;
    for (ServeJobOutcome& o : out.jobs) {
        if (o.rejected) {
            ++m.rejected;
            continue;
        }
        ++m.admitted;
        queueDelay.add(static_cast<double>(o.queueNs()));
        m.queueMaxNs = std::max(m.queueMaxNs, o.queueNs());
        if (o.failed) {
            ++m.failed;
            continue;
        }
        ++m.completed;
        lastFinish = std::max(lastFinish, o.finishNs);
        latency.add(static_cast<double>(o.latencyNs()));

        const ServeClassBaseline& base = baselines_[o.classIndex];
        if (!base.failed && base.unloadedNs > 0) {
            o.slowdown = static_cast<double>(o.latencyNs()) /
                         static_cast<double>(base.unloadedNs);
            slowdown.add(o.slowdown);
            o.sloMet = static_cast<double>(o.latencyNs()) <=
                       spec_.sloFactor *
                           static_cast<double>(base.unloadedNs);
            if (o.sloMet)
                ++sloMet;
        }
    }
    if (queueDelay.count() > 0) {
        m.queueP50Ns = pctNs(queueDelay, 0.50);
        m.queueP95Ns = pctNs(queueDelay, 0.95);
        m.queueP99Ns = pctNs(queueDelay, 0.99);
        m.queueMeanNs = queueDelay.mean();
    }
    if (latency.count() > 0) {
        m.latencyP50Ns = pctNs(latency, 0.50);
        m.latencyP95Ns = pctNs(latency, 0.95);
        m.latencyP99Ns = pctNs(latency, 0.99);
        m.latencyMeanNs = latency.mean();
    }
    if (slowdown.count() > 0) {
        m.slowdownMean = slowdown.mean();
        m.slowdownP95 = slowdown.percentile(0.95);
    }
    m.sloAttainment = m.offered > 0
        ? static_cast<double>(sloMet) / static_cast<double>(m.offered)
        : 0.0;
    if (lastFinish > firstArrival) {
        m.makespanNs = lastFinish - firstArrival;
        m.throughputRps = static_cast<double>(m.completed) /
                          (static_cast<double>(m.makespanNs) / SEC);
        m.gpuUtilization = static_cast<double>(gpu.busyNs) /
                           static_cast<double>(m.makespanNs);
    }
    m.maxQueueDepth = queue.maxDepth();
    m.starvationPromotions = queue.starvationPromotions();
    out.ssd = ssd.stats();
    return out;
}

// ---------------------------------------------------------------------
// ServeSweep: the designs × rates grid
// ---------------------------------------------------------------------

ServeSweep::ServeSweep(const ServeSpec& spec) : spec_(spec)
{
    for (const std::string& d : spec_.designs)
        designs_.push_back(&PolicyRegistry::instance().resolve(d));
    checkServeSpec(spec_);

    if (spec_.sweepPlanCache)
        planCache_ = std::make_unique<SweepPlanCache>();

    if (spec_.arrival.kind == ArrivalKind::Trace) {
        // Job classes are derived from the trace: one per distinct
        // (model, batch, iterations, priority) request shape.
        traceReqs_ = parseArrivalTrace(spec_.arrival.tracePath);
        for (TraceRequest& tr : traceReqs_) {
            if (tr.batchSize <= 0)
                tr.batchSize = paperBatchSize(tr.model);
            std::size_t ci = classes_.size();
            for (std::size_t c = 0; c < classes_.size(); ++c) {
                if (classes_[c].model == tr.model &&
                    classes_[c].batchSize == tr.batchSize &&
                    classes_[c].iterations == tr.iterations &&
                    classes_[c].priority == tr.priority) {
                    ci = c;
                    break;
                }
            }
            if (ci == classes_.size()) {
                ServeJobClass cls;
                cls.model = tr.model;
                cls.batchSize = tr.batchSize;
                cls.iterations = tr.iterations;
                cls.priority = tr.priority;
                classes_.push_back(resolvedClass(cls));
            }
            traceClass_.push_back(ci);
        }
    } else {
        for (const ServeJobClass& cls : spec_.classes)
            classes_.push_back(resolvedClass(cls));
    }

    traces_.reserve(classes_.size());
    for (const ServeJobClass& cls : classes_)
        traces_.push_back(buildModelScaled(cls.model, cls.batchSize,
                                           spec_.scaleDown));

    // Per-class elastic capacity floors, once per sweep: the largest
    // kernel working set (+12.5% headroom for in-flight transfers) —
    // a lease below it is guaranteed to hit the hard-OOM path, so
    // the elastic policies never shrink or grant under it.
    const Bytes page = spec_.sys.scaledDown(spec_.scaleDown).pageBytes;
    minGpu_.reserve(traces_.size());
    for (const KernelTrace& t : traces_)
        minGpu_.push_back(serveClassGpuFloor(t, page));
}

ServeSweep::~ServeSweep() = default;

std::vector<ServeRequest>
ServeSweep::requestsAtRate(double rate) const
{
    if (spec_.arrival.kind == ArrivalKind::Trace) {
        // The rate is a replay-speed multiplier over the trace; class
        // indices were resolved once at construction.
        std::vector<ServeRequest> out;
        out.reserve(traceReqs_.size());
        for (std::size_t i = 0; i < traceReqs_.size(); ++i) {
            ServeRequest r;
            r.arrivalNs = static_cast<TimeNs>(
                static_cast<double>(traceReqs_[i].arrivalNs) / rate);
            r.classIndex = traceClass_[i];
            out.push_back(r);
        }
        return out;
    }

    return drawRequestStream(spec_, classes_, rate);
}

bool
ServeSweepResult::allSucceeded() const
{
    for (const ServeCellResult& cell : cells)
        if (cell.metrics.failed > 0)
            return false;
    return true;
}

std::vector<std::vector<ServeClassBaseline>>
ServeSweep::computeBaselines(ExperimentEngine& engine) const
{
    // Unloaded baselines: every (design, class) pair alone on one
    // idle *static* partition slot — the latency reference the SLO
    // and slowdown metrics are defined against, shared by every
    // partition policy so elastic results stay comparable to static.
    const SystemConfig scaled = spec_.sys.scaledDown(spec_.scaleDown);
    const SystemConfig slotSys = partitionShare(
        scaled, 1.0 / static_cast<double>(spec_.slots));

    // G10-family designs compile through the sweep cache (when on):
    // the slot-capacity plans built here share keys with every cell's
    // first (cold, slot-sized) admission compile, so the knee probes
    // start warm. One pool task per (class, design) pair: compile and
    // sim fuse, and sims are independent either way.
    const std::size_t nd = spec_.designs.size();
    const std::size_t nc = classes_.size();
    std::vector<std::vector<ServeClassBaseline>> baselines(
        nd, std::vector<ServeClassBaseline>(nc));
    engine.parallelFor(nc * nd, [&](std::size_t i) {
        const std::size_t c = i / nd;
        const std::size_t d = i % nd;
        baselines[d][c] = unloadedBaseline(
            *designs_[d], traces_[c], classes_[c], spec_.scaleDown,
            slotSys, spec_.seed, planCache_.get());
    });
    return baselines;
}

void
ServeSweep::runAutoRates(ExperimentEngine& engine,
                         const ServeObsRequest& obs,
                         ServeSweepResult* out)
{
    // Each design is one search lane of runKneeSearch, which replays
    // the sequential phase-1 doubling + phase-2 bisection verbatim and
    // runs each decided probe — and, while a lane waits, speculatively
    // the possible next rates — on the pool. Cells come back in design
    // order, each design's in probe order, byte-identical to the
    // sequential search at any pool size. The event sink observes only
    // the first probe of the first design (always decided).
    const double rootRate = spec_.resolvedRateLo();
    auto probeFn = [&](std::uint32_t d, double rate) -> ProbeResult {
        ProbeResult pr;
        ServeSim sim(spec_, spec_.designs[d], rate, traces_, classes_,
                     minGpu_, requestsAtRate(rate), out->baselines[d]);
        sim.setObservers(d == 0 && rate == rootRate ? obs.sink : nullptr,
                         obs.collectCounters ? &pr.counters : nullptr);
        sim.setPlanCache(planCache_.get());
        pr.cells.push_back(sim.run());
        pr.sustained = pr.cells.back().sustained();
        return pr;
    };

    const KneeSearch search = runKneeSearch(
        engine, spec_.designs.size(), spec_, probeFn);
    for (const KneeLane& lane : search.lanes) {
        out->sustainedRate.push_back(lane.knee);
        out->rateProbes.push_back(lane.probes);
        for (const auto& probe : lane.decided)
            out->cells.push_back(probe->cells.front());
    }
    search.report(out, obs.collectCounters);
}

ServeSweepResult
ServeSweep::run(ExperimentEngine& engine)
{
    return run(engine, ServeObsRequest{});
}

ServeSweepResult
ServeSweep::run(ExperimentEngine& engine, const ServeObsRequest& obs)
{
    ServeSweepResult out;
    out.spec = spec_;
    for (const ServeJobClass& cls : classes_)
        out.classNames.push_back(cls.name);

    out.baselines = computeBaselines(engine);

    auto recordCacheTotals = [&] {
        if (planCache_ == nullptr)
            return;
        out.planCacheHits = planCache_->hits();
        out.planCacheMisses = planCache_->misses();
        out.planCacheEntries = planCache_->entries();
    };

    if (spec_.ratesAuto) {
        runAutoRates(engine, obs, &out);
        recordCacheTotals();
        return out;
    }

    // The offered sequences, one per rate (shared by every design:
    // cells of one rate differ only in the design under test).
    const std::size_t nd = spec_.designs.size();
    const std::size_t nr = spec_.rates.size();
    std::vector<std::vector<ServeRequest>> requestsByRate(nr);
    for (std::size_t r = 0; r < nr; ++r)
        requestsByRate[r] = requestsAtRate(spec_.rates[r]);

    // The grid: every design at every offered rate, design-major.
    // Per-cell registries (cells run on pool threads), merged in grid
    // order afterwards so the totals are worker-count independent;
    // the event sink observes only the first cell.
    out.cells.resize(nd * nr);
    std::vector<CounterRegistry> regs(nd * nr);
    engine.parallelFor(nd * nr, [&](std::size_t i) {
        const std::size_t d = i / nr;
        const std::size_t r = i % nr;
        ServeSim sim(spec_, spec_.designs[d], spec_.rates[r], traces_,
                     classes_, minGpu_, requestsByRate[r],
                     out.baselines[d]);
        sim.setObservers(i == 0 ? obs.sink : nullptr,
                         obs.collectCounters ? &regs[i] : nullptr);
        sim.setPlanCache(planCache_.get());
        out.cells[i] = sim.run();
    });
    if (obs.collectCounters)
        for (CounterRegistry& reg : regs)
            out.counters.merge(reg);

    // Sustained-throughput capacity per design: the highest offered
    // rate whose cell stayed within the bounded queue (no rejections)
    // and had no failures.
    out.sustainedRate.assign(nd, 0.0);
    for (std::size_t d = 0; d < nd; ++d)
        for (std::size_t r = 0; r < nr; ++r)
            if (out.cells[d * nr + r].sustained())
                out.sustainedRate[d] = std::max(
                    out.sustainedRate[d], spec_.rates[r]);
    recordCacheTotals();
    return out;
}

}  // namespace g10
