/**
 * @file
 * §7.7: SSD lifetime impact -- per-iteration write traffic by design,
 * write-amplification, and the DWPD lifetime estimate.
 *
 * Expected shape: G10 writes less than DeepUM+ (paper: 1.37x less) and
 * much less than FlashNeuron relative to useful work (paper: 2.20x);
 * the projected device lifetime under continuous training stays in the
 * multi-year range (paper: ~3.7 years).
 */

#include "bench/bench_util.h"

int
main()
{
    using namespace g10;
    using namespace g10::bench;

    unsigned scale = scaleFromEnv(16);
    banner("Table (§7.7): SSD lifetime and write traffic", scale);

    SystemConfig sys;
    TraceCache cache;

    Table table("§7.7: per-iteration SSD wear by design");
    table.setHeader({"model", "design", "ssd_writes_GB", "ssd_reads_GB",
                     "waf", "lifetime_years"});

    std::map<std::string, double> writes_sum;
    for (ModelKind m : allModels()) {
        const KernelTrace& trace =
            cache.get(m, paperBatchSize(m), scale);
        for (const std::string& d : sweepDesignNames()) {
            ExecStats st = runDesign(trace, d, sys, scale);
            if (st.failed) {
                table.addRowOf(modelName(m), designDisplayName(d).c_str(), "fail",
                               "fail", "fail", "fail");
                continue;
            }
            // Scale wear to the paper-sized device for the DWPD math.
            double writes = static_cast<double>(st.traffic.gpuToSsd);
            double reads = static_cast<double>(st.traffic.ssdToGpu);
            // lifetime = rated budget / observed write rate; identical
            // at any scale because capacity and rate scale together.
            double years = ssdLifetimeYears(
                st.ssd, sys.scaledDown(scale).ssdCapacityBytes,
                st.measuredIterationNs, 30.0, 5.0);
            table.addRowOf(modelName(m), designDisplayName(d).c_str(),
                           writes / 1e9, reads / 1e9, st.ssd.waf(),
                           std::min(years, 99.0));
            writes_sum[designDisplayName(d).c_str()] += writes;
        }
    }
    table.print(std::cout);

    double g10 = writes_sum["G10"];
    if (g10 > 0.0) {
        std::printf(
            "\nsummary: SSD write traffic vs G10 -- DeepUM+ %.2fx "
            "(paper 1.37x), FlashNeuron %.2fx (paper 2.20x), "
            "Base UVM %.2fx\n",
            writes_sum["DeepUM+"] / g10,
            writes_sum["FlashNeuron"] / g10,
            writes_sum["Base UVM"] / g10);
    }
    return 0;
}
