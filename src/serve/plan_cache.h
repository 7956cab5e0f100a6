/**
 * @file
 * Sweep-scoped memoization of G10 plan compiles.
 *
 * The auto-knee search re-runs the *same* serving scenario at many
 * arrival rates. The offered class sequence is identical at every
 * rate (ServeSweep draws class picks from their own RNG stream), so
 * probe N+1 recompiles exactly the per-model warm-start chains probe N
 * already compiled — at ~10-100 ms per cold compile, the compiler
 * dominates the whole bisection. SweepPlanCache memoizes compiles
 * across probes (and across grid cells, baseline compiles, and fleet
 * nodes) keyed by everything the compile is a pure function of:
 *
 *   (compile options, model, batch, trace scale, SystemConfig
 *    fingerprint, warm-start schedule fingerprint)
 *
 * compileG10Plan() is deterministic, so a cached plan is bit-identical
 * to the plan a fresh compile would produce — knees, cell metrics and
 * ExecStats cannot change, only wall-clock time. Cell-local warm/cold
 * compile accounting is untouched: cells keep their own per-model seed
 * map and merely route the compile call itself through this cache.
 *
 * Thread safety: getOrCompile() may be called from concurrent pool
 * workers (grid cells, fleet nodes). Lookups and inserts take a mutex;
 * the compile itself runs outside the lock, so unrelated keys compile
 * in parallel. The first lookup of a key inserts an in-flight marker
 * and compiles; a lookup that finds the marker waits for that compile
 * and counts as a hit. Each key is therefore compiled exactly once,
 * and misses() == entries() however the workers interleave.
 */

#ifndef G10_SERVE_PLAN_CACHE_H
#define G10_SERVE_PLAN_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/system_config.h"
#include "core/g10_compiler.h"
#include "serve/serve_spec.h"

namespace g10 {

struct G10Variant;

/**
 * Identity of one G10-family compile. Two compiles with equal keys
 * consume bit-identical inputs and therefore produce bit-identical
 * plans (the compiler is deterministic and takes nothing else).
 */
struct PlanKey
{
    /** G10Variant::allowHost, the one compile option the family
     *  varies: G10 and G10-Host share entries, G10-GDS (SSD only)
     *  has its own. The page-table flag is a runtime fact, not a
     *  compile input, so it stays out of the key. */
    bool allowHost = true;
    int model = 0;        ///< ModelKind of the trace
    int batch = 0;        ///< batch size the trace was built at
    unsigned scaleDown = 1;  ///< trace/system scale divisor
    std::uint64_t sysFp = 0;   ///< fingerprintSystemConfig()
    std::uint64_t seedFp = 0;  ///< warm-start fingerprint; 0 = cold

    bool operator<(const PlanKey& o) const
    {
        return std::tie(allowHost, model, batch, scaleDown, sysFp,
                        seedFp) < std::tie(o.allowHost, o.model, o.batch,
                                           o.scaleDown, o.sysFp,
                                           o.seedFp);
    }
};

/** FNV-1a over every SystemConfig field the compiler can observe. */
std::uint64_t fingerprintSystemConfig(const SystemConfig& sys);

/**
 * FNV-1a over the parts of a warm-start schedule the replay reads:
 * the (period, tensor, bytes, dest, timing) tuple of every migration
 * plus the capacity it was compiled for. Never 0, so a cold compile
 * (seedFp = 0) can't collide with a warm one.
 */
std::uint64_t fingerprintSchedule(const EvictionSchedule& sched);

/**
 * Cross-probe compile cache, one per sweep (or shared wider: the
 * fleet shares one across nodes; benchmarks may share one across
 * back-to-back sweeps of the same spec family).
 */
class SweepPlanCache
{
  public:
    using CompileFn =
        std::function<std::shared_ptr<const CompiledPlan>()>;

    /**
     * Return the cached plan for @p key; wait for it when another
     * caller is compiling it; otherwise run @p compile (outside the
     * lock), store its result, and return it.
     */
    std::shared_ptr<const CompiledPlan>
    getOrCompile(const PlanKey& key, const CompileFn& compile);

    /** Lookups that returned a cached plan. */
    std::uint64_t hits() const;

    /** Lookups that had to compile. */
    std::uint64_t misses() const;

    /** Distinct plans held or being compiled. */
    std::uint64_t entries() const;

  private:
    mutable std::mutex mu_;
    std::condition_variable compiled_;  ///< signalled per stored plan
    /** Null while the key's first caller compiles it. */
    std::map<PlanKey, std::shared_ptr<const CompiledPlan>> plans_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Compile @p variant's plan for @p cls's trace at @p scaleDown,
 * warm-started by @p seed when it is non-null, through @p cache
 * (null = compile directly). The one place a PlanKey is built: it
 * captures every compile input — the variant's options, trace
 * identity (model, batch, scale), system fingerprint, seed fingerprint
 * — so a hit is bit-identical to the compile it replaces, and callers
 * that compile the same inputs (serve cells, sweep and fleet
 * baselines) share entries.
 */
std::shared_ptr<const CompiledPlan>
compilePlan(const G10Variant& variant, const KernelTrace& trace,
            const ServeJobClass& cls, unsigned scaleDown,
            const SystemConfig& sys,
            const std::shared_ptr<const CompiledPlan>& seed,
            SweepPlanCache* cache);

}  // namespace g10

#endif  // G10_SERVE_PLAN_CACHE_H
