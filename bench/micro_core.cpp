/**
 * @file
 * google-benchmark microbenchmarks for the hot paths of the compile
 * pipeline and the simulator: PressureCurve and StepFunction range
 * math, vitality analysis, Algorithm 1 scheduling, the SSD FTL's bulk
 * write path and its garbage collection, the migration fabric over the
 * FTL, full simulation replay, and the Chrome-trace export and re-read.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/g10.h"
#include "core/g10_compiler.h"
#include "obs/analysis/trace_reader.h"
#include "obs/chrome_trace.h"
#include "obs/tracer.h"
#include "sim/interconnect/fabric.h"
#include "sim/ssd/ssd_device.h"

namespace {

using namespace g10;

void
BM_PressureCurveAdd(benchmark::State& state)
{
    const auto ranges = state.range(0);
    for (auto _ : state) {
        PressureCurve f;
        for (std::int64_t i = 0; i < ranges; ++i)
            f.add(i * 7, i * 7 + 400, 1);
        benchmark::DoNotOptimize(f.maxValue());
    }
    state.SetItemsProcessed(state.iterations() * ranges);
}
BENCHMARK(BM_PressureCurveAdd)->Arg(256)->Arg(4096);

void
BM_PressureCurveIntegralAbove(benchmark::State& state)
{
    // Overlapping lifetimes of random sizes. Arg 0: the threshold sits
    // mid-range, so chunks straddle it and are scanned segment by
    // segment. Arg 1: a saturated window, every value at least the cap
    // above the threshold (the eviction scheduler's common case), so
    // each chunk is settled from its minimum.
    PressureCurve f;
    std::mt19937_64 rng(7);
    for (std::int64_t i = 0; i < 4096; ++i)
        f.add(i * 11, i * 11 + 700, static_cast<std::int64_t>(rng() % 64));
    const bool saturated = state.range(0) != 0;
    const std::int64_t thr = saturated ? 0 : f.valueAt(4096 * 11 / 2);
    const std::int64_t cap = saturated ? 5 : std::int64_t{1} << 40;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            f.integralAbove(800, 4096 * 11, thr, cap));
}
BENCHMARK(BM_PressureCurveIntegralAbove)->Arg(0)->Arg(1);

void
BM_PressureCurveMaxOver(benchmark::State& state)
{
    // The eviction scheduler's host-peak check: window maxima over a
    // curve built from overlapping tensor lifetimes (positive adds)
    // and committed evictions (negative adds). Items are queries.
    const TimeNs horizon = 1'000'000'000;
    PressureCurve f;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 4000; ++i) {
        const TimeNs t0 = static_cast<TimeNs>(rng() % horizon);
        const TimeNs len = 1 + static_cast<TimeNs>(rng() % (horizon / 64));
        f.add(t0, std::min(horizon, t0 + len),
              static_cast<std::int64_t>(rng() % 8192) - 2048);
    }
    std::vector<std::pair<TimeNs, TimeNs>> windows;
    for (int q = 0; q < 4000; ++q) {
        auto [a, b] = std::minmax(static_cast<TimeNs>(rng() % horizon),
                                  static_cast<TimeNs>(rng() % horizon));
        windows.emplace_back(a, b + 1);
    }
    for (auto _ : state)
        for (const auto& [t0, t1] : windows)
            benchmark::DoNotOptimize(f.maxOver(t0, t1));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_PressureCurveMaxOver);

void
BM_StepFunctionCursorWalk(benchmark::State& state)
{
    // The bandwidth model's drainTime pattern: walk segments from t0
    // until the flow drains, typically stopping long before the
    // horizon. The cursor makes this allocation-free and early-exiting
    // (materializing segments() here would build all ~4096 of them).
    StepFunction f;
    for (std::int64_t i = 0; i < 4096; ++i)
        f.add(i * 11, i * 11 + 700, 1.0);
    for (auto _ : state) {
        double drained = 0.0;
        for (auto c = f.cursor(0, 4096 * 11); !c.done(); c.next()) {
            drained +=
                c.value() * static_cast<double>(c.end() - c.begin());
            if (drained > 1e6)
                break;
        }
        benchmark::DoNotOptimize(drained);
    }
}
BENCHMARK(BM_StepFunctionCursorWalk);

void
BM_BuildModelTrace(benchmark::State& state)
{
    auto kind = static_cast<ModelKind>(state.range(0));
    for (auto _ : state) {
        KernelTrace t = buildModelScaled(kind, paperBatchSize(kind), 32);
        benchmark::DoNotOptimize(t.numKernels());
    }
}
BENCHMARK(BM_BuildModelTrace)
    ->Arg(static_cast<int>(ModelKind::BertBase))
    ->Arg(static_cast<int>(ModelKind::ResNet152));

void
BM_VitalityAnalysis(benchmark::State& state)
{
    KernelTrace t =
        buildModelScaled(ModelKind::ResNet152, 1280, 32);
    for (auto _ : state) {
        VitalityAnalysis v(t, 5 * USEC);
        benchmark::DoNotOptimize(v.periods().size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.numKernels()));
}
BENCHMARK(BM_VitalityAnalysis);

void
BM_CompileG10Plan(benchmark::State& state)
{
    KernelTrace t =
        buildModelScaled(ModelKind::SENet154, 1024, 32);
    SystemConfig sys = SystemConfig().scaledDown(32);
    for (auto _ : state) {
        CompiledPlan plan = compileG10Plan(t, sys);
        benchmark::DoNotOptimize(plan.plan.size());
    }
}
BENCHMARK(BM_CompileG10Plan);

void
BM_SsdSteadyStateWrite(benchmark::State& state)
{
    // A 256 MiB device with a 160 MiB working set rewritten at random
    // 2 MiB offsets: after the warm-up the free pool sits at the GC
    // threshold, so writes pay for victim selection and relocation.
    // Items are flash pages.
    SystemConfig sys;
    sys.ssdCapacityBytes = 256 * MiB;
    SsdDevice ssd(sys);
    const Bytes region = 160 * MiB;
    const Bytes write = 2 * MiB;
    const std::uint64_t pagesPerWrite =
        write / ssd.geometry().flashPageBytes;
    const std::uint64_t slots = region / write;
    std::uint64_t lp = ssd.allocLogical(region);
    std::mt19937_64 rng(42);
    auto oneWrite = [&] {
        return ssd
            .serviceWrite(lp + (rng() % slots) * pagesPerWrite, write, write)
            .total();
    };
    for (std::uint64_t i = 0; i < 4 * slots; ++i)
        oneWrite();
    for (auto _ : state)
        benchmark::DoNotOptimize(oneWrite());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(pagesPerWrite));
    state.counters["waf"] = ssd.stats().waf();
}
BENCHMARK(BM_SsdSteadyStateWrite);

void
BM_SsdSequentialRewrite(benchmark::State& state)
{
    // A 64 GiB device with a 1 GiB region rewritten in order in 2 MiB
    // writes, as a replay rewrites evicted tensors at their own logical
    // range: each write's old copies share a block. The device is
    // rebuilt (untimed) before its free pool nears the GC threshold, so
    // this times the write path alone. Items are flash pages.
    SystemConfig sys;
    sys.ssdCapacityBytes = 64 * GiB;
    const Bytes region = 1 * GiB;
    const Bytes write = 2 * MiB;
    SsdDevice ssd(sys);
    const std::uint64_t pagesPerWrite =
        write / ssd.geometry().flashPageBytes;
    const std::uint64_t slots = region / write;
    const std::uint64_t reserve = ssd.totalPages() / 10;
    std::uint64_t lp = ssd.allocLogical(region);
    std::uint64_t next = 0;
    for (auto _ : state) {
        if (ssd.freePages() < reserve) {
            state.PauseTiming();
            ssd = SsdDevice(sys);
            lp = ssd.allocLogical(region);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(
            ssd.serviceWrite(lp + next * pagesPerWrite, write, write)
                .total());
        next = next + 1 == slots ? 0 : next + 1;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(pagesPerWrite));
    state.counters["gc_runs"] = static_cast<double>(ssd.stats().gcRuns);
}
BENCHMARK(BM_SsdSequentialRewrite);

void
BM_FabricTapeReplay(benchmark::State& state)
{
    // The ssd_gc replay's migration stream without the compiler or the
    // runtime: G10-GDS's driver path (512 KiB copy batches) evicts
    // tensors of 4-44 MiB (24 MiB on average) to their own logical
    // ranges on a 4 GiB device and fetches others back, from a seeded
    // tape built in memory. The tape replays until GC has run before
    // timing starts, so the timed migrations include GC. Items are
    // migrations.
    SystemConfig sys;
    sys.ssdCapacityBytes = 4 * GiB;
    SsdDevice ssd(sys);
    Fabric fabric(sys, &ssd, /*uvm_extension=*/false);
    struct Migration
    {
        bool evict;
        Bytes bytes;
        std::uint64_t lp;  ///< evictions: the tensor's logical range
    };
    const int tensors = 64;
    std::vector<Migration> evictions;
    std::mt19937_64 rng(42);
    for (int t = 0; t < tensors; ++t) {
        Bytes bytes = 4 * MiB + rng() % (40 * MiB);
        evictions.push_back({true, bytes, ssd.allocLogical(bytes)});
    }
    // Each eviction is followed by the fetch of the tensor evicted half
    // a pass earlier.
    std::vector<Migration> tape;
    for (int t = 0; t < tensors; ++t) {
        tape.push_back(evictions[t]);
        tape.push_back({false, evictions[(t + tensors / 2) % tensors].bytes,
                        0});
    }
    std::size_t next = 0;
    TimeNs clock = 0;
    auto replay = [&] {
        const Migration& m = tape[next];
        next = next + 1 == tape.size() ? 0 : next + 1;
        clock += 6 * MSEC;
        return m.evict ? fabric.fromGpu(m.bytes, MemLoc::Ssd, clock,
                                        TransferCause::PreEvict, m.lp)
                       : fabric.toGpu(m.bytes, MemLoc::Ssd, clock,
                                      TransferCause::Prefetch);
    };
    while (ssd.stats().gcRuns == 0)
        replay();
    for (auto _ : state)
        benchmark::DoNotOptimize(replay().complete);
    state.SetItemsProcessed(state.iterations());
    state.counters["gc_runs"] = static_cast<double>(ssd.stats().gcRuns);
}
BENCHMARK(BM_FabricTapeReplay);

void
BM_SimulateG10(benchmark::State& state)
{
    KernelTrace t =
        buildModelScaled(ModelKind::ResNet152, 1280, 32);
    SystemConfig sys = SystemConfig().scaledDown(32);
    auto policy = makeG10(t, sys);
    RunConfig rc;
    rc.sys = sys;
    rc.uvmExtension = true;
    for (auto _ : state) {
        ExecStats st = simulate(t, *policy, rc);
        benchmark::DoNotOptimize(st.measuredIterationNs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.numKernels()));
}
BENCHMARK(BM_SimulateG10);

void
BM_SimulateBaseUvm(benchmark::State& state)
{
    KernelTrace t =
        buildModelScaled(ModelKind::ResNet152, 1280, 32);
    SystemConfig sys = SystemConfig().scaledDown(32);
    BaseUvmPolicy policy;
    RunConfig rc;
    rc.sys = sys;
    for (auto _ : state) {
        ExecStats st = simulate(t, policy, rc);
        benchmark::DoNotOptimize(st.measuredIterationNs);
    }
}
BENCHMARK(BM_SimulateBaseUvm);

void
BM_ChromeTraceRoundTrip(benchmark::State& state)
{
    // A seeded in-memory stream with a traced serve run's mix: mostly
    // migrations and eviction picks, then kernels, stalls and request
    // events, over 16 jobs; 64k events, ~10 MB of JSON. Arg 0 times
    // writeChromeTrace into memory, arg 1 readChromeTrace of that
    // document; bytes are the document's either way.
    MemoryTraceSink sink;
    Tracer tracer(&sink, nullptr);
    std::mt19937_64 rng(42);
    TimeNs clock = 0;
    while (sink.events().size() < 65536) {
        const int pid = static_cast<int>(rng() % 16);
        clock += 1 + static_cast<TimeNs>(rng() % 5000);
        const Bytes bytes = 4096 * (1 + rng() % 4096);
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2: {
            const MemLoc far = rng() % 2 ? MemLoc::Ssd : MemLoc::Host;
            const bool out = rng() % 2;
            tracer.transfer(pid, static_cast<TransferCause>(rng() % 5),
                            out ? MemLoc::Gpu : far, out ? far : MemLoc::Gpu,
                            bytes, clock,
                            clock + 1 + static_cast<TimeNs>(rng() % 9000));
            break;
          }
          case 3:
          case 4:
            tracer.evictionPick(pid, static_cast<TensorId>(rng() % 900),
                                MemLoc::Host, bytes, clock);
            break;
          case 5:
            tracer.kernelSpan(pid, "layer3_" + std::to_string(rng() % 40) +
                                       "_conv2d_backward",
                              static_cast<KernelId>(rng() % 2000), clock,
                              2000, true, 1900, 2000);
            break;
          case 6:
            tracer.stallSpan(pid, static_cast<StallCause>(rng() % 4),
                             static_cast<KernelId>(rng() % 2000), clock,
                             100, true);
            break;
          default:
            tracer.departure(pid, "ResNet152-512", clock / 2, clock, false,
                             clock, true);
            tracer.queueDepth(rng() % 8, clock);
            break;
        }
    }
    std::ostringstream doc;
    writeChromeTrace(doc, sink.events());
    const std::string text = doc.str();
    const bool read = state.range(0) == 1;
    for (auto _ : state) {
        if (read) {
            TraceDocument parsed;
            if (!readChromeTrace(text, &parsed))
                state.SkipWithError("readChromeTrace rejected the document");
            benchmark::DoNotOptimize(parsed.events.data());
        } else {
            std::ostringstream os;
            writeChromeTrace(os, sink.events());
            benchmark::DoNotOptimize(os.tellp());
        }
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ChromeTraceRoundTrip)
    ->ArgName("read")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
