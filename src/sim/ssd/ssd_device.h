/**
 * @file
 * Flash SSD timing + endurance model (paper §5, SSDSim-style).
 *
 * Models a Z-NAND-class device as a log-structured FTL: host writes land
 * in an append-only flash log at flash-page granularity; rewriting a
 * logical page invalidates its old physical page; when free blocks run
 * low, greedy garbage collection relocates the valid pages of the
 * emptiest block and erases it, charging both time (device busy) and
 * endurance (NAND writes, erases). This is what makes the §7.7 lifetime /
 * write-amplification analysis measurable instead of assumed.
 *
 * Geometry: totalPages() = capacity * (1 + overProvision) / page size,
 * split into max(1, totalPages / pagesPerBlock) erase blocks. The
 * totalPages % pagesPerBlock remainder pages belong to no block: they
 * count as free forever (freePages() = sum of unprogrammed block pages
 * + remainder) but are never programmed. A device smaller than one
 * block still gets one full block; there freePages() reads 0 once
 * totalPages have been programmed and writes go on until the block
 * fills.
 *
 * Cost model of the implementation (not of the device): the logical page
 * table is an extent map, runs [first, end) of logical pages in one
 * block keyed by their first page. Tensors are written and trimmed as
 * whole ranges, so each is a few extents, and the table follows live,
 * not ever-written, logical space. One write call takes a
 * migration's whole page range and its batch size. Batches of whole
 * flash pages tile one contiguous range, so the write is cut into
 * segments only where the open block fills and at the page that takes
 * free pages below the GC threshold (single pages while free pages sit
 * below it or read 0); batches that are not whole pages may share a page
 * with the next batch and are programmed one by one. Every batch's busy
 * time is one formula; the result lists only the batches GC lengthened,
 * and a read is O(1). Each segment, and each trim, is one map edit that
 * costs O(log extents) plus O(1) per extent it overlaps, whatever its
 * page count: each overlapped extent's old copies are invalidated with
 * one subtract and one dirty mark, the extents straddling the range's
 * ends are split, and a segment that continues its left neighbour's
 * block extends that extent. The next open block comes from a not-full
 * bitset (find-next-set). GC victims come from a min-tree over (valid
 * pages, block index) of fully programmed, non-open blocks;
 * invalidations only mark a block dirty and dirty blocks are re-keyed,
 * O(log blocks) each, before the next victim query.
 */

#ifndef G10_SIM_SSD_SSD_DEVICE_H
#define G10_SIM_SSD_SSD_DEVICE_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/system_config.h"
#include "common/types.h"

namespace g10 {

/** Endurance/traffic counters exposed for §7.7. */
struct SsdStats
{
    Bytes hostReadBytes = 0;    ///< bytes the host read from the device
    Bytes hostWriteBytes = 0;   ///< bytes the host wrote to the device
    Bytes nandWriteBytes = 0;   ///< physical NAND program traffic
    std::uint64_t gcRuns = 0;
    std::uint64_t blockErases = 0;
    std::uint64_t relocatedPages = 0;

    /** Write amplification factor (NAND writes / host writes). */
    double waf() const
    {
        if (hostWriteBytes == 0)
            return 1.0;
        return static_cast<double>(nandWriteBytes) /
               static_cast<double>(hostWriteBytes);
    }
};

/**
 * Device lifetime estimate in years under continuous operation at the
 * NAND write rate of @p stats (§7.7's DWPD arithmetic): the rated write
 * budget over the observed bytes written per day. @p rated_years when
 * nothing was written.
 *
 * @param capacity    device capacity the endurance rating applies to
 * @param elapsed_ns  simulated wall time that generated @p stats
 * @param dwpd        rated drive-writes-per-day endurance
 * @param rated_years endurance rating period
 */
double ssdLifetimeYears(const SsdStats& stats, Bytes capacity,
                        TimeNs elapsed_ns, double dwpd,
                        double rated_years);

/**
 * One simulated SSD. Time is managed by the caller: service calls return
 * the device-busy duration for a request and advance internal wear state.
 */
class SsdDevice
{
  public:
    /** Geometry knobs (defaults sized for the Table 2 device). */
    struct Geometry
    {
        Bytes flashPageBytes = 64 * KiB;   ///< mapping granularity
        std::uint32_t pagesPerBlock = 256;
        double overProvision = 0.07;       ///< spare capacity fraction
        double gcFreeThreshold = 0.05;     ///< GC when free < 5% of blocks
        TimeNs eraseLatencyNs = 2 * MSEC;
    };

    explicit SsdDevice(const SystemConfig& config)
        : SsdDevice(config, Geometry())
    {}

    SsdDevice(const SystemConfig& config, Geometry geometry);

    /**
     * Device busy time of one migration that moves in batches of equal
     * size: one value for every full batch, one for the last batch
     * (shorter when the batch size does not divide the bytes), and the
     * garbage-collection time the few batches that triggered GC add on
     * top of theirs.
     */
    struct BatchBusy
    {
        std::uint64_t batches = 0;
        TimeNs full = 0;  ///< a full batch, before GC
        TimeNs last = 0;  ///< the last batch, before GC
        /** (batch index, GC time it adds): ascending, one entry per
         *  batch, only batches whose GC took time. */
        std::vector<std::pair<std::uint64_t, TimeNs>> gc;

        /** Busy time summed over every batch. */
        TimeNs total() const
        {
            TimeNs t = static_cast<TimeNs>(batches - 1) * full + last;
            for (const auto& charge : gc)
                t += charge.second;
            return t;
        }
    };

    /**
     * Write @p bytes (> 0) of one migration, starting at logical page
     * @p logical_page, as ceil(bytes / batch) batches of @p batch bytes.
     * Batch j programs ceil(its bytes / flashPageBytes) pages from
     * logical_page + j * batch / flashPageBytes, so batches that are not
     * a whole number of flash pages rewrite the page they share. A
     * batch's busy time is program latency + streaming, plus the time
     * of every GC run a page of the batch triggered. A single write is
     * the call with batch = bytes. The result stays valid until the
     * next service call.
     */
    const BatchBusy& serviceWrite(std::uint64_t logical_page, Bytes bytes,
                                  Bytes batch);

    /** Read @p bytes (> 0) in batches of @p batch bytes; reads have no
     *  GC. The result stays valid until the next service call. */
    const BatchBusy& serviceRead(Bytes bytes, Bytes batch);

    /** Allocate a run of logical pages for @p bytes; returns first page. */
    std::uint64_t allocLogical(Bytes bytes);

    /**
     * Trim: discard the logical pages [@p logical_page, +@p bytes).
     * Their physical copies (if any) become invalid immediately, so
     * garbage collection can erase the blocks holding them — this is
     * how a departing job's log space becomes reusable. Pages never
     * written are skipped; trimming is free (host-side metadata only).
     */
    void freeLogical(std::uint64_t logical_page, Bytes bytes);

    /** Logical pages currently holding valid (mapped) data. */
    std::uint64_t validPages() const { return mapped_; }

    const SsdStats& stats() const { return stats_; }
    const Geometry& geometry() const { return geom_; }

    /** Free physical pages remaining (for tests). */
    std::uint64_t freePages() const { return freePages_; }

    /** Total physical pages. */
    std::uint64_t totalPages() const { return totalPages_; }

    /** Bytes the logical page table's extents hold. Tracks live, not
     *  ever-allocated, space. */
    std::uint64_t logicalTableBytes() const;

    /** Block-level sums recomputed from scratch, O(blocks + table). */
    struct Census
    {
        std::uint64_t blockValid = 0;    ///< sum of per-block valid pages
        std::uint64_t unprogrammed = 0;  ///< sum of (pagesPerBlock - fill)
        /** The table's extents are non-empty, ordered, disjoint and
         *  name real blocks, and every block's valid count equals the
         *  pages they map to it. */
        bool validMatchesTable = true;
    };

    /** Recount the FTL's books (for conservation tests). */
    Census census() const;

  private:
    /** Logical pages [key, end) all sit in `block`. */
    struct Extent
    {
        std::uint64_t end;
        std::uint32_t block;
    };
    using Table = std::map<std::uint64_t, Extent>;

    static constexpr std::uint32_t kUnmapped = UINT32_MAX;
    static constexpr std::uint64_t kNoVictim = UINT64_MAX;

    /** Drop @p pages valid pages of @p block and queue it for re-keying. */
    void invalidate(std::uint32_t block, std::uint64_t pages);
    /** Map logical pages [@p lp, +@p n) to @p block (kUnmapped: trim
     *  them) and invalidate the physical copies they named; returns how
     *  many were unmapped before. */
    std::uint64_t replaceRange(std::uint64_t lp, std::uint64_t n,
                               std::uint32_t block);
    /** Insert an extent before @p hint, in the spare node if there is
     *  one; erase one into the spare node. */
    Table::iterator put(Table::iterator hint, std::uint64_t first,
                        Extent extent);
    Table::iterator drop(Table::iterator it);
    /** Start busy_ for @p bytes in batches of @p batch bytes. */
    void startBatches(Bytes bytes, Bytes batch, TimeNs latency,
                      double gbps);
    /** Program the @p pages logical pages from @p logical_page, which
     *  are batch @p first_batch onward at @p batch_pages pages each. */
    void program(std::uint64_t logical_page, std::uint64_t pages,
                 std::uint64_t first_batch, std::uint64_t batch_pages);
    void advanceOpenBlock();
    std::uint32_t nextNotFull(std::uint32_t from) const;
    /** Run GC; returns the device time it took. */
    TimeNs collectGarbage();
    std::uint64_t victimKey(std::uint32_t block) const;
    std::uint64_t bestVictim();
    void markDirty(std::uint32_t block);

    SystemConfig config_;
    Geometry geom_;

    std::uint64_t totalPages_ = 0;
    std::uint64_t freePages_ = 0;
    std::uint64_t nextLogical_ = 0;
    std::uint64_t gcThreshold_ = 0;  ///< collect when free drops below
    std::uint64_t gcTarget_ = 0;     ///< ...until free reaches this

    // Logical page table: disjoint extents of mapped pages. An erased
    // node waits in spare_ for the next insert, so the splits and
    // merges that rewrites cause reuse nodes instead of allocating.
    Table table_;
    Table::node_type spare_;
    std::uint64_t mapped_ = 0;

    // per-block count of valid pages.
    std::vector<std::uint32_t> blockValid_;
    // per-block count of programmed pages since the last erase.
    std::vector<std::uint32_t> blockFill_;
    // bit b set iff blockFill_[b] < pagesPerBlock.
    std::vector<std::uint64_t> notFull_;
    std::uint32_t openBlock_ = 0;

    // GC victim index, built on the first collection: a min-tree over
    // victimKey() (leaves at [blocks, 2 * blocks)), kept exact lazily
    // by re-keying the dirty blocks before every query.
    std::vector<std::uint64_t> victimTree_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint32_t> dirtyBlocks_;

    BatchBusy busy_;  ///< the last service call's result

    SsdStats stats_;
};

}  // namespace g10

#endif  // G10_SIM_SSD_SSD_DEVICE_H
