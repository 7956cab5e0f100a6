/** @file Tests for the smart eviction (Alg. 1) and prefetch (§4.4)
 *  schedulers plus the bandwidth model they plan against. */

#include <gtest/gtest.h>

#include "core/g10_compiler.h"
#include "core/sched/bandwidth_model.h"
#include "core/sched/eviction_scheduler.h"
#include "core/sched/prefetch_scheduler.h"
#include "models/model_zoo.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

SystemConfig
sys()
{
    return test::tinySystem();
}

TEST(BandwidthModel, UncontendedDurations)
{
    BandwidthModel bw(sys());
    // Host path = PCIe speed; SSD path = SSD speed + latency.
    Bytes b = 157540000;  // 10 ms at 15.754 GB/s
    EXPECT_NEAR(static_cast<double>(
                    bw.evictDuration(b, MemLoc::Host)),
                10.0 * MSEC, 0.01 * MSEC);
    TimeNs ssd = bw.evictDuration(b, MemLoc::Ssd);
    EXPECT_GT(ssd, bw.evictDuration(b, MemLoc::Host));
    EXPECT_NEAR(static_cast<double>(ssd),
                static_cast<double>(b) / 3.0 + 16.0 * USEC,
                0.01 * MSEC);
}

TEST(BandwidthModel, ContentionDelaysCompletion)
{
    BandwidthModel bw(sys());
    Bytes b = 500 * MiB;
    FlowSchedule first = bw.planEvict(0, b, MemLoc::Host);
    bw.reserveEvict(first, b, MemLoc::Host);
    FlowSchedule second = bw.planEvict(0, b, MemLoc::Host);
    // Sharing the link roughly doubles the drain time.
    EXPECT_GT(second.duration(), first.duration() * 3 / 2);
}

TEST(BandwidthModel, SsdSaturationDetected)
{
    BandwidthModel bw(sys());
    EXPECT_FALSE(bw.ssdEvictSaturated(0, 64 * MiB));
    // Saturate the SSD write path with a big flow.
    FlowSchedule f = bw.planEvict(0, 2 * GiB, MemLoc::Ssd);
    bw.reserveEvict(f, 2 * GiB, MemLoc::Ssd);
    EXPECT_TRUE(bw.ssdEvictSaturated(0, 256 * MiB));
    // Host path is unaffected by ssd-side saturation beyond the link
    // share, and releasing restores read-side headroom checks.
    EXPECT_FALSE(bw.ssdPrefetchSaturated(0, 64 * MiB));
}

TEST(BandwidthModel, ReserveReleasePrefetchRoundTrips)
{
    BandwidthModel bw(sys());
    Bytes b = 512 * MiB;
    FlowSchedule f = bw.planPrefetch(0, b, MemLoc::Ssd);
    bw.reservePrefetch(f, b, MemLoc::Ssd);
    EXPECT_TRUE(bw.ssdPrefetchSaturated(0, 256 * MiB));
    bw.releasePrefetch(f, b, MemLoc::Ssd);
    EXPECT_FALSE(bw.ssdPrefetchSaturated(0, 64 * MiB));
}

TEST(BandwidthModel, LatestPrefetchStartMeetsDeadline)
{
    BandwidthModel bw(sys());
    Bytes b = 256 * MiB;
    TimeNs deadline = 1 * SEC;
    TimeNs start = bw.latestPrefetchStart(deadline, b, MemLoc::Host);
    FlowSchedule f = bw.planPrefetch(start, b, MemLoc::Host);
    EXPECT_LE(f.complete, deadline);
    EXPECT_GT(start, 0);
}

// ---- Eviction scheduler (Algorithm 1) ----

class EvictionSchedulerTest : public ::testing::Test
{
  protected:
    // 16 fwd/bwd stages of 16 MiB on a 64 MiB GPU: heavy oversubscribe.
    KernelTrace trace_ =
        test::makeFwdBwdTrace(16, 16 * MiB, 4 * MSEC);
    SystemConfig sys_ = sys();
    VitalityAnalysis vit_{trace_, sys_.kernelLaunchOverheadNs};
};

TEST_F(EvictionSchedulerTest, ReducesPeakBelowCapacity)
{
    EvictionScheduler sched(vit_, sys_);
    EvictionSchedule out = sched.run();
    EXPECT_GT(out.initialPeakBytes, sys_.gpuMemBytes);
    EXPECT_LE(out.finalPeakBytes,
              out.initialPeakBytes);
    // Algorithm 1 stops when no beneficial candidate remains; allow a
    // one-tensor residual above capacity (the runtime absorbs it).
    EXPECT_LE(out.finalPeakBytes, sys_.gpuMemBytes + 16 * MiB);
    EXPECT_FALSE(out.migrations.empty());
}

TEST_F(EvictionSchedulerTest, MigrationsAreWellFormed)
{
    EvictionScheduler sched(vit_, sys_);
    EvictionSchedule out = sched.run();
    for (const auto& m : out.migrations) {
        const InactivePeriod& p = vit_.periods()[m.periodIndex];
        EXPECT_EQ(m.tensor, p.tensor);
        EXPECT_EQ(m.evictStart, p.startNs);
        EXPECT_GT(m.evictComplete, m.evictStart);
        EXPECT_GE(m.prefetchStart, m.evictComplete);
        EXPECT_GT(m.prefetchComplete, m.prefetchStart);
        EXPECT_TRUE(m.dest == MemLoc::Ssd || m.dest == MemLoc::Host);
    }
}

TEST_F(EvictionSchedulerTest, NoTensorPeriodCommittedTwice)
{
    EvictionScheduler sched(vit_, sys_);
    EvictionSchedule out = sched.run();
    std::vector<std::size_t> seen;
    for (const auto& m : out.migrations)
        seen.push_back(m.periodIndex);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST_F(EvictionSchedulerTest, PrefersLargeLongPeriods)
{
    // The earliest-produced activations have the longest periods; with
    // equal sizes they are the best benefit/cost candidates and must be
    // selected first.
    EvictionScheduler sched(vit_, sys_);
    EvictionSchedule out = sched.run();
    ASSERT_FALSE(out.migrations.empty());
    // The first committed eviction (earliest evictStart) should belong
    // to one of the first few activations.
    EXPECT_LE(out.migrations.front().evictStart,
              vit_.kernelEnd(4));
}

TEST_F(EvictionSchedulerTest, GdsModeNeverUsesHost)
{
    EvictionSchedulerParams p;
    p.allowHost = false;
    EvictionScheduler sched(vit_, sys_, p);
    EvictionSchedule out = sched.run();
    EXPECT_EQ(out.bytesToHost, 0u);
    for (const auto& m : out.migrations)
        EXPECT_EQ(m.dest, MemLoc::Ssd);
}

TEST_F(EvictionSchedulerTest, HostOnlyModeNeverUsesSsd)
{
    EvictionSchedulerParams p;
    p.allowSsd = false;
    EvictionScheduler sched(vit_, sys_, p);
    EvictionSchedule out = sched.run();
    EXPECT_EQ(out.bytesToSsd, 0u);
}

TEST_F(EvictionSchedulerTest, SmallTensorsAreIgnored)
{
    EvictionSchedulerParams p;
    p.minTensorBytes = 100 * MiB;  // bigger than every tensor
    EvictionScheduler sched(vit_, sys_, p);
    EvictionSchedule out = sched.run();
    EXPECT_TRUE(out.migrations.empty());
}

TEST_F(EvictionSchedulerTest, WarmStartFromOwnScheduleSkipsTheSearch)
{
    // Re-planning with the schedule the cold compile produced: every
    // replayed pick is still beneficial, pressure drops under (or as
    // far under as the cold run got it), and the greedy search is
    // skipped — evaluations collapse from O(periods) to O(migrations).
    EvictionScheduler cold(vit_, sys_);
    EvictionSchedule base = cold.run();
    ASSERT_FALSE(base.migrations.empty());

    EvictionSchedulerParams p;
    p.warmStart = &base;
    EvictionScheduler warm(vit_, sys_, p);
    EvictionSchedule re = warm.run();

    EXPECT_FALSE(re.migrations.empty());
    EXPECT_LE(re.finalPeakBytes, base.finalPeakBytes + 16 * MiB);
    // Fits iff the cold compile fit (same stopping criterion).
    EXPECT_EQ(re.finalPeakBytes <= sys_.gpuMemBytes + 16 * MiB,
              base.finalPeakBytes <= sys_.gpuMemBytes + 16 * MiB);
    EXPECT_LT(re.evaluations, base.evaluations);
}

TEST_F(EvictionSchedulerTest, WarmStartAcrossBatchSizesIsUsable)
{
    // Same topology at double the tensor sizes (a batch-size change):
    // the old picks replay against the new vitality analysis and the
    // greedy pass only mops up the residual pressure.
    EvictionScheduler cold(vit_, sys_);
    EvictionSchedule base = cold.run();

    KernelTrace big = test::makeFwdBwdTrace(16, 32 * MiB, 8 * MSEC);
    VitalityAnalysis vit_big(big, sys_.kernelLaunchOverheadNs);
    ASSERT_EQ(vit_big.periods().size(), vit_.periods().size());

    EvictionSchedulerParams p;
    p.warmStart = &base;
    EvictionScheduler warm(vit_big, sys_, p);
    EvictionSchedule re = warm.run();

    EvictionScheduler fresh(vit_big, sys_);
    EvictionSchedule scratch = fresh.run();

    EXPECT_FALSE(re.migrations.empty());
    // The warm-started plan must be as effective as compiling from
    // scratch (both run the same stopping criterion), within one
    // tensor of residual.
    EXPECT_LE(re.finalPeakBytes, scratch.finalPeakBytes + 32 * MiB);
}

TEST_F(EvictionSchedulerTest, WarmStartIsDeterministic)
{
    EvictionScheduler cold(vit_, sys_);
    EvictionSchedule base = cold.run();

    EvictionSchedulerParams p;
    p.warmStart = &base;
    EvictionSchedule a = EvictionScheduler(vit_, sys_, p).run();
    EvictionSchedule b = EvictionScheduler(vit_, sys_, p).run();

    ASSERT_EQ(a.migrations.size(), b.migrations.size());
    for (std::size_t i = 0; i < a.migrations.size(); ++i) {
        EXPECT_EQ(a.migrations[i].periodIndex,
                  b.migrations[i].periodIndex);
        EXPECT_EQ(a.migrations[i].dest, b.migrations[i].dest);
        EXPECT_EQ(a.migrations[i].evictStart,
                  b.migrations[i].evictStart);
        EXPECT_EQ(a.migrations[i].prefetchComplete,
                  b.migrations[i].prefetchComplete);
    }
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.finalPeakBytes, b.finalPeakBytes);
}

TEST(EvictionScheduler, WarmStartFromMismatchedTopologyIsIgnored)
{
    // A schedule from a different model shape must not poison the
    // compile: unmatchable picks are skipped and the greedy search
    // still produces a working schedule.
    SystemConfig s = sys();
    KernelTrace small = test::makeFwdBwdTrace(4, 16 * MiB, 2 * MSEC);
    VitalityAnalysis vit_small(small, s.kernelLaunchOverheadNs);
    EvictionSchedule base = EvictionScheduler(vit_small, s).run();

    KernelTrace other = test::makeFwdBwdTrace(16, 16 * MiB, 4 * MSEC);
    VitalityAnalysis vit_other(other, s.kernelLaunchOverheadNs);
    EvictionSchedulerParams p;
    p.warmStart = &base;
    EvictionSchedule re = EvictionScheduler(vit_other, s, p).run();
    EvictionSchedule scratch = EvictionScheduler(vit_other, s).run();
    EXPECT_LE(re.finalPeakBytes, scratch.finalPeakBytes + 16 * MiB);
    EXPECT_FALSE(re.migrations.empty());
}

TEST(EvictionScheduler, NoWorkWhenModelFits)
{
    KernelTrace t = test::makeFwdBwdTrace(3, 1 * MiB, 1 * MSEC);
    SystemConfig s = sys();
    VitalityAnalysis vit(t, s.kernelLaunchOverheadNs);
    EvictionScheduler sched(vit, s);
    EvictionSchedule out = sched.run();
    EXPECT_TRUE(out.migrations.empty());
    EXPECT_LE(out.finalPeakBytes, s.gpuMemBytes);
}

TEST(EvictionSchedulerDeath, NoDestinationsIsFatal)
{
    KernelTrace t = test::makeFwdBwdTrace(3, 1 * MiB, 1 * MSEC);
    SystemConfig s = sys();
    VitalityAnalysis vit(t, s.kernelLaunchOverheadNs);
    EvictionSchedulerParams p;
    p.allowHost = false;
    p.allowSsd = false;
    EXPECT_EXIT(EvictionScheduler(vit, s, p),
                ::testing::ExitedWithCode(1), "destination");
}

// ---- Prefetch scheduler ----

TEST_F(EvictionSchedulerTest, EagerPrefetchNeverMovesLater)
{
    EvictionScheduler sched(vit_, sys_);
    EvictionSchedule out = sched.run();
    std::vector<TimeNs> latest;
    for (const auto& m : out.migrations)
        latest.push_back(m.prefetchLatest);
    PrefetchStats st =
        schedulePrefetches(out, sched.bandwidth(), sys_);
    for (std::size_t i = 0; i < out.migrations.size(); ++i) {
        EXPECT_LE(out.migrations[i].prefetchStart, latest[i]);
        EXPECT_GE(out.migrations[i].prefetchStart,
                  out.migrations[i].evictComplete);
    }
    (void)st;
}

TEST_F(EvictionSchedulerTest, EagerPrefetchNeverRaisesThePeak)
{
    EvictionScheduler sched(vit_, sys_);
    EvictionSchedule out = sched.run();
    Bytes peak_after_eviction = out.finalPeakBytes;
    PrefetchSchedulerParams pp;
    pp.capacityFraction = 0.95;
    schedulePrefetches(out, sched.bandwidth(), sys_, pp);
    // Eager prefetching fills *spare* capacity; it must never create a
    // new global maximum above what the eviction pass left.
    EXPECT_LE(out.finalPeakBytes, peak_after_eviction + 1 * MiB);
}

TEST(PrefetchScheduler, FinalPressureConservesEveryMigrationExactly)
{
    // After both passes, the curve the scheduler planned against must
    // be the ideal pressure minus each migration's off-GPU interval
    // [evictComplete, prefetchStart), to the byte at every breakpoint.
    for (ModelKind kind : allModels()) {
        KernelTrace t = buildModelScaled(kind, paperBatchSize(kind), 32);
        SystemConfig s = SystemConfig().scaledDown(32);
        VitalityAnalysis vit(t, s.kernelLaunchOverheadNs);
        EvictionScheduler sched(vit, s);
        EvictionSchedule out = sched.run();
        schedulePrefetches(out, sched.bandwidth(), s);
        ASSERT_FALSE(out.migrations.empty()) << t.modelName();

        PressureCurve expect = vit.memoryPressure();
        for (const ScheduledMigration& m : out.migrations)
            expect.add(m.evictComplete, m.prefetchStart,
                       -static_cast<std::int64_t>(m.bytes));
        for (const auto& [at, v] : out.pressure.breakpoints())
            ASSERT_EQ(v, expect.valueAt(at)) << t.modelName() << " @" << at;
        for (const auto& [at, v] : expect.breakpoints())
            ASSERT_EQ(v, out.pressure.valueAt(at))
                << t.modelName() << " @" << at;
        EXPECT_EQ(out.finalPeakBytes,
                  static_cast<Bytes>(expect.maxValue()));
    }
}

TEST(G10Compiler, CompiledPlanDropsThePressureCurve)
{
    KernelTrace t = test::makeFwdBwdTrace(16, 16 * MiB, 4 * MSEC);
    CompiledPlan plan = compileG10Plan(t, sys());
    ASSERT_FALSE(plan.schedule.migrations.empty());
    EXPECT_TRUE(plan.schedule.pressure.breakpoints().empty());
}

// ---- Full pipeline ----

TEST(G10Compiler, EndToEndProducesAnchoredPlan)
{
    KernelTrace t = test::makeFwdBwdTrace(16, 16 * MiB, 4 * MSEC);
    SystemConfig s = sys();
    CompiledPlan plan = compileG10Plan(t, s);
    EXPECT_FALSE(plan.plan.empty());
    // Every instruction anchors to a real kernel.
    for (const auto& in : plan.plan.instrs) {
        EXPECT_GE(in.issueBefore, 0);
        EXPECT_LT(static_cast<std::size_t>(in.issueBefore),
                  t.numKernels());
    }
    // Instructions sorted by anchor.
    for (std::size_t i = 1; i < plan.plan.instrs.size(); ++i)
        EXPECT_LE(plan.plan.instrs[i - 1].issueBefore,
                  plan.plan.instrs[i].issueBefore);
    // Bucket index is consistent.
    for (std::size_t k = 0; k < t.numKernels(); ++k) {
        auto [b, e] =
            plan.plan.instrsBefore(static_cast<KernelId>(k));
        for (const MigrationInstr* it = b; it != e; ++it)
            EXPECT_EQ(it->issueBefore, static_cast<KernelId>(k));
    }
}

TEST(G10Compiler, PrefetchAnchoredNoLaterThanNextUse)
{
    KernelTrace t = test::makeFwdBwdTrace(16, 16 * MiB, 4 * MSEC);
    SystemConfig s = sys();
    CompiledPlan plan = compileG10Plan(t, s);
    for (const auto& in : plan.plan.instrs) {
        if (in.kind != InstrKind::Prefetch)
            continue;
        const auto& m = plan.schedule.migrations[in.migrationIndex];
        const auto& p = plan.vitality->periods()[m.periodIndex];
        if (!p.wrapsIteration)
            EXPECT_LE(in.issueBefore, p.nextUse);
    }
}

TEST(G10Compiler, RealModelPlanFitsOrShrinksPeak)
{
    KernelTrace t = buildModelScaled(ModelKind::BertBase, 256, 16);
    SystemConfig s = SystemConfig().scaledDown(16);
    CompiledPlan plan = compileG10Plan(t, s);
    EXPECT_GT(plan.schedule.initialPeakBytes, s.gpuMemBytes);
    EXPECT_LT(plan.schedule.finalPeakBytes,
              plan.schedule.initialPeakBytes);
    EXPECT_GT(plan.schedule.migrations.size(), 10u);
}

// ---- Warm start across capacity changes (elastic partitions) ----

TEST_F(EvictionSchedulerTest, ScheduleRecordsItsCompileCapacity)
{
    EvictionSchedule cold = EvictionScheduler(vit_, sys_).run();
    EXPECT_EQ(cold.scheduledForGpuBytes, sys_.gpuMemBytes);
    EXPECT_EQ(cold.warmReplayed, 0u);
    EXPECT_EQ(cold.warmDropped, 0u);
    EXPECT_DOUBLE_EQ(cold.warmHitRate(), 0.0);
}

TEST_F(EvictionSchedulerTest, ShrunkCapacityReplaysEveryPriorPick)
{
    // C' < C: everything the prior schedule evicted still sits above
    // the lower capacity, so the whole schedule replays and the
    // greedy search only runs for the extra pressure the shrink
    // exposed.
    EvictionSchedule base = EvictionScheduler(vit_, sys_).run();
    ASSERT_FALSE(base.migrations.empty());

    SystemConfig shrunk = sys_;
    shrunk.gpuMemBytes = sys_.gpuMemBytes / 2;
    EvictionSchedulerParams p;
    p.warmStart = &base;
    EvictionSchedule re = EvictionScheduler(vit_, shrunk, p).run();

    EXPECT_EQ(re.scheduledForGpuBytes, shrunk.gpuMemBytes);
    EXPECT_EQ(re.warmReplayed, base.migrations.size());
    EXPECT_EQ(re.warmDropped, 0u);
    EXPECT_DOUBLE_EQ(re.warmHitRate(), 1.0);
    // The shrink exposes more pressure: at least the prior picks.
    EXPECT_GE(re.migrations.size(), base.migrations.size());
}

TEST_F(EvictionSchedulerTest, GrownCapacityDropsTheUnneededTail)
{
    // C' > C (big enough that nothing sits above it): every prior
    // pick is unnecessary; the replay stops immediately and the
    // greedy search has nothing to do.
    EvictionSchedule base = EvictionScheduler(vit_, sys_).run();
    ASSERT_FALSE(base.migrations.empty());

    SystemConfig grown = sys_;
    grown.gpuMemBytes = 16 * GiB;  // fits the whole model
    EvictionSchedulerParams p;
    p.warmStart = &base;
    EvictionSchedule re = EvictionScheduler(vit_, grown, p).run();

    EXPECT_TRUE(re.migrations.empty());
    EXPECT_EQ(re.warmReplayed, 0u);
    EXPECT_EQ(re.warmDropped, base.migrations.size());
    EXPECT_DOUBLE_EQ(re.warmHitRate(), 0.0);
    // Zero greedy evaluations beyond the (empty) replay: the search
    // was skipped outright.
    EXPECT_EQ(re.evaluations, 0u);
}

TEST_F(EvictionSchedulerTest, ModestGrowthReplaysAPrefixOnly)
{
    // C' slightly above C: pressure above the new capacity is smaller,
    // so a prefix of the prior schedule suffices; the tail is dropped
    // rather than recommitted.
    EvictionSchedule base = EvictionScheduler(vit_, sys_).run();
    ASSERT_GT(base.migrations.size(), 2u);

    SystemConfig grown = sys_;
    grown.gpuMemBytes = sys_.gpuMemBytes + 48 * MiB;
    EvictionSchedulerParams p;
    p.warmStart = &base;
    EvictionSchedule re = EvictionScheduler(vit_, grown, p).run();

    EXPECT_EQ(re.warmReplayed + re.warmDropped,
              base.migrations.size());
    EXPECT_LT(re.warmReplayed, base.migrations.size());
    EXPECT_LE(re.finalPeakBytes, grown.gpuMemBytes + 16 * MiB);
}

TEST_F(EvictionSchedulerTest, CapacityWarmStartIsDeterministic)
{
    EvictionSchedule base = EvictionScheduler(vit_, sys_).run();
    SystemConfig shrunk = sys_;
    shrunk.gpuMemBytes = sys_.gpuMemBytes * 3 / 4;
    EvictionSchedulerParams p;
    p.warmStart = &base;
    EvictionSchedule a = EvictionScheduler(vit_, shrunk, p).run();
    EvictionSchedule b = EvictionScheduler(vit_, shrunk, p).run();
    EXPECT_EQ(a.warmReplayed, b.warmReplayed);
    EXPECT_EQ(a.warmDropped, b.warmDropped);
    EXPECT_EQ(a.migrations.size(), b.migrations.size());
    EXPECT_EQ(a.finalPeakBytes, b.finalPeakBytes);
}

}  // namespace
}  // namespace g10
