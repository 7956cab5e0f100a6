/**
 * @file
 * Test-only reference FTL: the original, naive SsdDevice internals kept
 * verbatim (hash-map page table, O(blocks) GC victim and open-block
 * scans, silent clamps). The differential tests drive it side by side
 * with SsdDevice and require every observable to match exactly, so it
 * must not be "fixed" or optimized.
 */

#ifndef G10_TESTS_SIM_SSD_REFERENCE_H
#define G10_TESTS_SIM_SSD_REFERENCE_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "sim/ssd/ssd_device.h"

namespace g10 {
namespace test {

class ReferenceSsd
{
  public:
    using Geometry = SsdDevice::Geometry;

    ReferenceSsd(const SystemConfig& config, Geometry geometry)
        : config_(config), geom_(geometry)
    {
        if (geom_.flashPageBytes == 0 || geom_.pagesPerBlock == 0)
            fatal("bad SSD geometry");
        Bytes physical = static_cast<Bytes>(
            static_cast<double>(config.ssdCapacityBytes) *
            (1.0 + geom_.overProvision));
        totalPages_ = physical / geom_.flashPageBytes;
        freePages_ = totalPages_;
        std::uint64_t blocks =
            std::max<std::uint64_t>(1, totalPages_ / geom_.pagesPerBlock);
        blockValid_.assign(blocks, 0);
        blockFill_.assign(blocks, 0);
        openBlock_ = 0;
    }

    std::uint64_t
    allocLogical(Bytes bytes)
    {
        std::uint64_t pages =
            (bytes + geom_.flashPageBytes - 1) / geom_.flashPageBytes;
        std::uint64_t first = nextLogical_;
        nextLogical_ += pages;
        return first;
    }

    void
    freeLogical(std::uint64_t logical_page, Bytes bytes)
    {
        std::uint64_t pages =
            (bytes + geom_.flashPageBytes - 1) / geom_.flashPageBytes;
        for (std::uint64_t i = 0; i < pages; ++i) {
            auto it = logicalToBlock_.find(logical_page + i);
            if (it == logicalToBlock_.end())
                continue;  // never written (or already trimmed)
            if (blockValid_[it->second] > 0)
                --blockValid_[it->second];
            logicalToBlock_.erase(it);
        }
    }

    TimeNs
    serviceWrite(std::uint64_t logical_page, Bytes bytes)
    {
        std::uint64_t pages =
            (bytes + geom_.flashPageBytes - 1) / geom_.flashPageBytes;
        stats_.hostWriteBytes += bytes;
        stats_.nandWriteBytes += pages * geom_.flashPageBytes;

        TimeNs busy = config_.ssdWriteLatencyNs +
                      transferTimeNs(bytes, config_.ssdWriteGBps);

        for (std::uint64_t i = 0; i < pages; ++i) {
            std::uint64_t lp = logical_page + i;
            // Invalidate the previous physical copy, if any. The page stays
            // unusable until its block is garbage-collected and erased.
            auto it = logicalToBlock_.find(lp);
            if (it != logicalToBlock_.end()) {
                if (blockValid_[it->second] > 0)
                    --blockValid_[it->second];
            }
            // Append to the open block, advancing to the next erased block
            // when it fills.
            if (blockFill_[openBlock_] == geom_.pagesPerBlock) {
                std::uint32_t next = openBlock_;
                for (std::size_t probe = 0; probe < blockFill_.size();
                     ++probe) {
                    next = (next + 1) %
                           static_cast<std::uint32_t>(blockFill_.size());
                    if (blockFill_[next] < geom_.pagesPerBlock)
                        break;
                }
                openBlock_ = next;
            }
            if (blockFill_[openBlock_] >= geom_.pagesPerBlock)
                fatal("SSD is full: %llu valid pages exceed capacity",
                      static_cast<unsigned long long>(totalPages_));
            ++blockValid_[openBlock_];
            ++blockFill_[openBlock_];
            logicalToBlock_[lp] = openBlock_;
            if (freePages_ > 0)
                --freePages_;
            maybeGarbageCollect(&busy);
        }
        return busy;
    }

    TimeNs
    serviceRead(Bytes bytes)
    {
        stats_.hostReadBytes += bytes;
        return config_.ssdReadLatencyNs +
               transferTimeNs(bytes, config_.ssdReadGBps);
    }

    std::uint64_t validPages() const { return logicalToBlock_.size(); }
    const SsdStats& stats() const { return stats_; }
    const Geometry& geometry() const { return geom_; }
    std::uint64_t freePages() const { return freePages_; }
    std::uint64_t totalPages() const { return totalPages_; }

  private:
    void
    maybeGarbageCollect(TimeNs* busy)
    {
        std::uint64_t threshold = static_cast<std::uint64_t>(
            static_cast<double>(totalPages_) * geom_.gcFreeThreshold);
        if (freePages_ >= threshold)
            return;

        ++stats_.gcRuns;
        // Greedy: relocate the fullest-of-invalid (fewest valid pages)
        // *programmed* block until comfortably above the threshold.
        while (freePages_ < threshold * 2) {
            std::uint32_t victim = 0;
            std::uint32_t best_valid = geom_.pagesPerBlock + 1;
            for (std::uint32_t b = 0;
                 b < static_cast<std::uint32_t>(blockValid_.size()); ++b) {
                if (b == openBlock_)
                    continue;
                if (blockFill_[b] < geom_.pagesPerBlock)
                    continue;  // not fully programmed; nothing to reclaim
                if (blockValid_[b] < best_valid) {
                    best_valid = blockValid_[b];
                    victim = b;
                }
            }
            if (best_valid > geom_.pagesPerBlock)
                break;  // nothing to collect
            if (best_valid == geom_.pagesPerBlock)
                break;  // everything valid: GC cannot help

            // Relocate the surviving pages into the log and erase. (We
            // charge traffic and time; the per-page map is not re-walked,
            // a standard simulator approximation.)
            stats_.relocatedPages += best_valid;
            stats_.nandWriteBytes +=
                static_cast<Bytes>(best_valid) * geom_.flashPageBytes;
            *busy += geom_.eraseLatencyNs +
                     transferTimeNs(static_cast<Bytes>(best_valid) *
                                        geom_.flashPageBytes,
                                    config_.ssdWriteGBps);
            ++stats_.blockErases;
            // The erase frees the whole block; the relocated survivors are
            // programmed back into it (log-append approximation).
            freePages_ += geom_.pagesPerBlock - best_valid;
            blockFill_[victim] = best_valid;
            blockValid_[victim] = best_valid;
        }
    }

    SystemConfig config_;
    Geometry geom_;

    std::uint64_t totalPages_ = 0;
    std::uint64_t freePages_ = 0;
    std::uint64_t nextLogical_ = 0;

    // logical page -> block index currently holding it (valid data).
    std::unordered_map<std::uint64_t, std::uint32_t> logicalToBlock_;
    // per-block count of valid pages.
    std::vector<std::uint32_t> blockValid_;
    // per-block count of programmed pages since the last erase.
    std::vector<std::uint32_t> blockFill_;
    std::uint32_t openBlock_ = 0;

    SsdStats stats_;
};

}  // namespace test
}  // namespace g10

#endif  // G10_TESTS_SIM_SSD_REFERENCE_H
