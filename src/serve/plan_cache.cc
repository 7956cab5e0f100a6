#include "plan_cache.h"

#include <cstring>

#include "policies/g10_policy.h"

namespace g10 {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
mix(std::uint64_t* h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        *h ^= (v >> (8 * i)) & 0xffU;
        *h *= kFnvPrime;
    }
}

void
mixDouble(std::uint64_t* h, double d)
{
    // Hash the bit pattern: fingerprint equality must mean the
    // compiler sees bit-identical inputs, not approximately equal.
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d), "double is 64-bit");
    std::memcpy(&bits, &d, sizeof(bits));
    mix(h, bits);
}

}  // namespace

// fingerprintSystemConfig() hashes all 16 SystemConfig fields by hand.
// A new field changes the size and fails the build here: mix it into
// the fingerprint (the plan-cache key), then update the count.
static_assert(sizeof(SystemConfig) == 16 * sizeof(std::uint64_t),
              "SystemConfig changed: update fingerprintSystemConfig()");

std::uint64_t
fingerprintSystemConfig(const SystemConfig& sys)
{
    std::uint64_t h = kFnvOffset;
    mix(&h, static_cast<std::uint64_t>(sys.gpuMemBytes));
    mix(&h, static_cast<std::uint64_t>(sys.hostMemBytes));
    mix(&h, static_cast<std::uint64_t>(sys.pageBytes));
    mix(&h, static_cast<std::uint64_t>(sys.chunkBytes));
    mixDouble(&h, sys.pcieGBps);
    mixDouble(&h, sys.ssdReadGBps);
    mixDouble(&h, sys.ssdWriteGBps);
    mix(&h, static_cast<std::uint64_t>(sys.ssdReadLatencyNs));
    mix(&h, static_cast<std::uint64_t>(sys.ssdWriteLatencyNs));
    mix(&h, static_cast<std::uint64_t>(sys.ssdCapacityBytes));
    mix(&h, static_cast<std::uint64_t>(sys.gpuFaultLatencyNs));
    mix(&h, static_cast<std::uint64_t>(sys.hostSwOverheadNs));
    mix(&h, static_cast<std::uint64_t>(sys.nonUvmCopyBytes));
    mix(&h, static_cast<std::uint64_t>(sys.transferSetBytes));
    mix(&h, static_cast<std::uint64_t>(sys.faultBatchBytes));
    mix(&h, static_cast<std::uint64_t>(sys.kernelLaunchOverheadNs));
    return h;
}

std::uint64_t
fingerprintSchedule(const EvictionSchedule& sched)
{
    std::uint64_t h = kFnvOffset;
    mix(&h, static_cast<std::uint64_t>(sched.scheduledForGpuBytes));
    mix(&h, static_cast<std::uint64_t>(sched.migrations.size()));
    for (const ScheduledMigration& m : sched.migrations) {
        mix(&h, static_cast<std::uint64_t>(m.periodIndex));
        mix(&h, static_cast<std::uint64_t>(m.tensor));
        mix(&h, static_cast<std::uint64_t>(m.bytes));
        mix(&h, static_cast<std::uint64_t>(m.dest));
        mix(&h, static_cast<std::uint64_t>(m.evictStart));
        mix(&h, static_cast<std::uint64_t>(m.evictComplete));
        mix(&h, static_cast<std::uint64_t>(m.prefetchStart));
        mix(&h, static_cast<std::uint64_t>(m.prefetchComplete));
        mix(&h, static_cast<std::uint64_t>(m.wrapsIteration));
    }
    return h != 0 ? h : 1;  // 0 is reserved for "cold compile"
}

std::shared_ptr<const CompiledPlan>
SweepPlanCache::getOrCompile(const PlanKey& key,
                             const CompileFn& compile)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto [it, first] = plans_.try_emplace(key);
    if (!first) {
        ++hits_;
        compiled_.wait(lock, [&] { return it->second != nullptr; });
        return it->second;
    }
    ++misses_;
    // Compile outside the lock: compiles take ~10-100 ms and must not
    // serialize unrelated keys. Later callers of this key wait above.
    lock.unlock();
    std::shared_ptr<const CompiledPlan> plan = compile();
    lock.lock();
    it->second = plan;
    compiled_.notify_all();
    return plan;
}

std::shared_ptr<const CompiledPlan>
compilePlan(const G10Variant& variant, const KernelTrace& trace,
            const ServeJobClass& cls, unsigned scaleDown,
            const SystemConfig& sys,
            const std::shared_ptr<const CompiledPlan>& seed,
            SweepPlanCache* cache)
{
    const EvictionSchedule* warm =
        seed != nullptr ? &seed->schedule : nullptr;
    if (cache == nullptr)
        return compileFamilyPlan(variant, trace, sys, warm);
    PlanKey key;
    key.allowHost = variant.allowHost;
    key.model = static_cast<int>(cls.model);
    key.batch = cls.batchSize;
    key.scaleDown = scaleDown;
    key.sysFp = fingerprintSystemConfig(sys);
    key.seedFp = warm != nullptr ? fingerprintSchedule(*warm) : 0;
    return cache->getOrCompile(key, [&] {
        return compileFamilyPlan(variant, trace, sys, warm);
    });
}

std::uint64_t
SweepPlanCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t
SweepPlanCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

std::uint64_t
SweepPlanCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return plans_.size();
}

}  // namespace g10
