/** @file Cross-probe plan cache: key identity, memoization semantics,
 *  and bit-identity of sweep results with the cache on vs off. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>

#include "api/report.h"
#include "models/model_zoo.h"
#include "policies/g10_policy.h"
#include "serve/plan_cache.h"
#include "serve/serve_sim.h"

namespace g10 {
namespace {

/** Serialize a sweep result to a string (deep-compare helper). */
std::string
toJson(const ServeSweepResult& r)
{
    std::ostringstream os;
    writeServeResultJson(os, r);
    return os.str();
}

TEST(PlanKey, OrderingDistinguishesEveryField)
{
    PlanKey a;
    a.allowHost = true;
    a.model = 1;
    a.batch = 32;
    a.scaleDown = 16;
    a.sysFp = 7;
    a.seedFp = 9;

    PlanKey b = a;
    EXPECT_FALSE(a < b);
    EXPECT_FALSE(b < a);

    for (int field = 0; field < 6; ++field) {
        PlanKey c = a;
        switch (field) {
          case 0: c.allowHost = false; break;
          case 1: c.model = 2; break;
          case 2: c.batch = 64; break;
          case 3: c.scaleDown = 32; break;
          case 4: c.sysFp = 8; break;
          case 5: c.seedFp = 10; break;
        }
        EXPECT_TRUE(a < c || c < a) << "field " << field;
    }
}

TEST(PlanCache, SystemConfigFingerprintSeesEveryField)
{
    const SystemConfig base;
    const std::uint64_t fp = fingerprintSystemConfig(base);
    EXPECT_EQ(fp, fingerprintSystemConfig(base));  // pure

    SystemConfig m = base;
    m.gpuMemBytes += 1;
    EXPECT_NE(fp, fingerprintSystemConfig(m));

    m = base;
    m.pcieGBps += 0.5;
    EXPECT_NE(fp, fingerprintSystemConfig(m));

    m = base;
    m.ssdReadLatencyNs += 1;
    EXPECT_NE(fp, fingerprintSystemConfig(m));
}

TEST(PlanCache, ScheduleFingerprintIsNeverZero)
{
    // 0 is reserved for "cold compile" in PlanKey::seedFp; even an
    // empty schedule must not collide with it.
    EvictionSchedule empty;
    EXPECT_NE(fingerprintSchedule(empty), 0u);

    EvictionSchedule one = empty;
    ScheduledMigration m;
    m.periodIndex = 3;
    m.tensor = 7;
    m.bytes = 4096;
    one.migrations.push_back(m);
    EXPECT_NE(fingerprintSchedule(one), fingerprintSchedule(empty));
}

TEST(PlanCache, MemoizesByKeyAndCountsHits)
{
    KernelTrace trace = buildModelScaled(ModelKind::BertBase, 1, 64);
    const SystemConfig sys = SystemConfig().scaledDown(64);

    SweepPlanCache cache;
    PlanKey key;
    key.model = static_cast<int>(ModelKind::BertBase);
    key.batch = 1;
    key.scaleDown = 64;
    key.sysFp = fingerprintSystemConfig(sys);

    int compiles = 0;
    auto compile = [&] {
        ++compiles;
        return compileFamilyPlan(G10Variant{}, trace, sys, nullptr);
    };

    auto first = cache.getOrCompile(key, compile);
    auto second = cache.getOrCompile(key, compile);
    EXPECT_EQ(compiles, 1);
    EXPECT_EQ(first.get(), second.get());  // the same shared plan
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.entries(), 1u);

    PlanKey other = key;
    other.sysFp += 1;  // a different capacity: genuinely new compile
    cache.getOrCompile(other, compile);
    EXPECT_EQ(compiles, 2);
    EXPECT_EQ(cache.entries(), 2u);
}

TEST(PlanCache, ConcurrentMissersWaitForTheOneCompile)
{
    // A second lookup of a key whose compile is still running waits
    // for that compile and counts as a hit: each key compiles once.
    KernelTrace trace = buildModelScaled(ModelKind::BertBase, 1, 64);
    const SystemConfig sys = SystemConfig().scaledDown(64);
    SweepPlanCache cache;
    PlanKey key;
    key.sysFp = fingerprintSystemConfig(sys);

    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<int> compiles{0};
    auto latched = [&] {
        ++compiles;
        started.set_value();
        released.wait();
        return compileFamilyPlan(G10Variant{}, trace, sys, nullptr);
    };
    auto direct = [&] {
        ++compiles;
        return compileFamilyPlan(G10Variant{}, trace, sys, nullptr);
    };

    std::shared_ptr<const CompiledPlan> first, second;
    std::thread a([&] { first = cache.getOrCompile(key, latched); });
    started.get_future().wait();
    std::thread b([&] { second = cache.getOrCompile(key, direct); });
    // Hold the first compile until the second lookup has registered
    // (bounded, so a cache that compiles twice fails instead of
    // hanging).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cache.hits() == 0 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    release.set_value();
    a.join();
    b.join();

    EXPECT_EQ(compiles.load(), 1);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
}

/** Auto-knee sweep at tiny scale; G10 + G10-Host so the two designs
 *  share compile-option keys (they compile identical plans). */
ServeSpec
autoKneeSpec()
{
    ServeSpec spec = demoServeSpec(64);
    spec.requests = 8;
    spec.rates.clear();
    spec.ratesAuto = true;
    spec.rateProbes = 6;
    spec.designs = {"g10", "g10host"};
    return spec;
}

TEST(PlanCache, SweepResultsAreBitIdenticalWithCacheOnAndOff)
{
    ServeSpec on = autoKneeSpec();
    on.sweepPlanCache = true;
    ServeSpec off = autoKneeSpec();
    off.sweepPlanCache = false;

    ExperimentEngine engine(1);
    ServeSweepResult withCache = ServeSweep(on).run(engine);
    ServeSweepResult without = ServeSweep(off).run(engine);

    // The serialized documents — knees, cells, jobs, warm/cold compile
    // counts — must match byte for byte; only wall-clock may differ.
    EXPECT_EQ(toJson(withCache), toJson(without));

    // The cached sweep actually exercised the cache: sequential probes
    // per design re-admit the same classes at the same capacities.
    EXPECT_GT(withCache.planCacheHits, 0u);
    EXPECT_GT(withCache.planCacheMisses, 0u);
    EXPECT_EQ(without.planCacheHits, 0u);
    EXPECT_EQ(without.planCacheMisses, 0u);

    // G10 and G10-Host share entries (same compile options), so the
    // second design's probes run almost entirely warm: strictly fewer
    // distinct plans than lookups.
    EXPECT_LT(withCache.planCacheEntries,
              withCache.planCacheHits + withCache.planCacheMisses);
    EXPECT_EQ(withCache.planCacheMisses, withCache.planCacheEntries);

    // ...and G10-Host adds no plan of its own: the two-design sweep
    // compiles exactly what a G10-only sweep does.
    ServeSpec g10Only = autoKneeSpec();
    g10Only.designs = {"g10"};
    ServeSweepResult alone = ServeSweep(g10Only).run(engine);
    EXPECT_EQ(withCache.planCacheMisses, alone.planCacheMisses);
}

}  // namespace
}  // namespace g10
