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
 * the compile itself runs outside the lock, so two workers racing on
 * one key may both compile — they produce identical plans and the
 * loser's result is simply dropped. Hit/miss totals are therefore
 * deterministic only when probes run sequentially per design (the
 * auto-knee path); results always are.
 */

#ifndef G10_SERVE_PLAN_CACHE_H
#define G10_SERVE_PLAN_CACHE_H

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

/**
 * Identity of one G10-family compile. Two compiles with equal keys
 * consume bit-identical inputs and therefore produce bit-identical
 * plans (the compiler is deterministic and takes nothing else).
 */
struct PlanKey
{
    /** Compile-options class (see planCompileOptionsKey()): G10 and
     *  G10-Host compile identical plans and share entries; G10-GDS
     *  (SSD-only) is a separate class. */
    int options = 0;
    int model = 0;        ///< ModelKind of the trace
    int batch = 0;        ///< batch size the trace was built at
    unsigned scaleDown = 1;  ///< trace/system scale divisor
    std::uint64_t sysFp = 0;   ///< fingerprintSystemConfig()
    std::uint64_t seedFp = 0;  ///< warm-start fingerprint; 0 = cold

    bool operator<(const PlanKey& o) const
    {
        return std::tie(options, model, batch, scaleDown, sysFp,
                        seedFp) < std::tie(o.options, o.model, o.batch,
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
     * Return the cached plan for @p key, or run @p compile (outside
     * the lock), insert its result, and return it.
     */
    std::shared_ptr<const CompiledPlan>
    getOrCompile(const PlanKey& key, const CompileFn& compile);

    /** Lookups that returned a cached plan. */
    std::uint64_t hits() const;

    /** Lookups that had to compile. */
    std::uint64_t misses() const;

    /** Distinct plans currently held. */
    std::uint64_t entries() const;

  private:
    mutable std::mutex mu_;
    std::map<PlanKey, std::shared_ptr<const CompiledPlan>> plans_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Compile one G10-family plan (@p tag is a DesignPoint value) for
 * @p cls's trace at @p scaleDown, warm-started by @p seed when it is
 * non-null, through @p cache (null = compile directly). The one place
 * a PlanKey is built: it captures every compile input — options, trace
 * identity (model, batch, scale), system fingerprint, seed fingerprint
 * — so a hit is bit-identical to the compile it replaces, and callers
 * that compile the same inputs (serve cells, sweep and fleet
 * baselines) share entries.
 */
std::shared_ptr<const CompiledPlan>
compilePlan(int tag, const KernelTrace& trace, const ServeJobClass& cls,
            unsigned scaleDown, const SystemConfig& sys,
            const std::shared_ptr<const CompiledPlan>& seed,
            SweepPlanCache* cache);

}  // namespace g10

#endif  // G10_SERVE_PLAN_CACHE_H
