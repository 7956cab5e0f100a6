#include "ssd_device.h"

#include <algorithm>

#include "common/logging.h"

namespace g10 {

SsdDevice::SsdDevice(const SystemConfig& config, Geometry geometry)
    : config_(config), geom_(geometry)
{
    if (geom_.flashPageBytes == 0 || geom_.pagesPerBlock == 0)
        fatal("bad SSD geometry");
    Bytes physical = static_cast<Bytes>(
        static_cast<double>(config.ssdCapacityBytes) *
        (1.0 + geom_.overProvision));
    totalPages_ = physical / geom_.flashPageBytes;
    freePages_ = totalPages_;
    gcThreshold_ = static_cast<std::uint64_t>(
        static_cast<double>(totalPages_) * geom_.gcFreeThreshold);
    gcTarget_ = gcThreshold_ * 2;
    std::uint64_t blocks =
        std::max<std::uint64_t>(1, totalPages_ / geom_.pagesPerBlock);
    if (blocks >= kUnmapped)
        fatal("bad SSD geometry: %llu blocks",
              static_cast<unsigned long long>(blocks));
    blockValid_.assign(blocks, 0);
    blockFill_.assign(blocks, 0);
    notFull_.assign((blocks + 63) / 64, ~0ULL);
    if (blocks % 64 != 0)
        notFull_.back() = (1ULL << (blocks % 64)) - 1;
    openBlock_ = 0;
}

std::uint64_t
SsdDevice::allocLogical(Bytes bytes)
{
    std::uint64_t pages =
        (bytes + geom_.flashPageBytes - 1) / geom_.flashPageBytes;
    std::uint64_t first = nextLogical_;
    nextLogical_ += pages;
    return first;
}

void
SsdDevice::freeLogical(std::uint64_t logical_page, Bytes bytes)
{
    std::uint64_t pages =
        (bytes + geom_.flashPageBytes - 1) / geom_.flashPageBytes;
    // Pages never written (or already trimmed) are skipped.
    mapped_ -= pages - replaceRange(logical_page, pages, kUnmapped);
}

void
SsdDevice::invalidate(std::uint32_t block, std::uint64_t pages)
{
    if (blockValid_[block] < pages)
        panic("SSD block %u: invalidating a page of a block with no "
              "valid pages", block);
    blockValid_[block] -= static_cast<std::uint32_t>(pages);
    markDirty(block);
}

SsdDevice::Table::iterator
SsdDevice::put(Table::iterator hint, std::uint64_t first, Extent extent)
{
    if (spare_.empty())
        return table_.emplace_hint(hint, first, extent);
    spare_.key() = first;
    spare_.mapped() = extent;
    return table_.insert(hint, std::move(spare_));
}

SsdDevice::Table::iterator
SsdDevice::drop(Table::iterator it)
{
    if (!spare_.empty())
        return table_.erase(it);
    auto next = std::next(it);
    spare_ = table_.extract(it);
    return next;
}

std::uint64_t
SsdDevice::replaceRange(std::uint64_t lp, std::uint64_t n,
                        std::uint32_t block)
{
    if (n == 0)
        return 0;
    const std::uint64_t end = lp + n;
    std::uint64_t unmapped = n;
    // The first extent that ends after lp; a rewrite of a tensor finds
    // one that starts at lp without stepping back.
    auto it = table_.lower_bound(lp);
    if (it != table_.begin() && (it == table_.end() || it->first > lp)) {
        auto left = std::prev(it);
        if (left->second.end > lp)
            it = left;
    }
    // Invalidate every extent [lp, end) overlaps, keep the parts outside
    // it, and keep the node of one that starts at lp for the new extent:
    // rewriting a tensor in place changes no node.
    auto reuse = table_.end();
    while (it != table_.end() && it->first < end) {
        const std::uint64_t first = it->first;
        const Extent old = it->second;
        const std::uint64_t overlap =
            std::min(old.end, end) - std::max(first, lp);
        invalidate(old.block, overlap);
        unmapped -= overlap;
        if (first < lp) {
            it->second.end = lp;  // keep the head
            ++it;
        } else if (first == lp && block != kUnmapped) {
            reuse = it++;
        } else {
            it = drop(it);
        }
        if (old.end > end) {  // keep the tail
            it = put(it, end, Extent{old.end, old.block});
            break;
        }
    }
    if (block == kUnmapped)
        return unmapped;
    // A segment cut by a GC trigger continues its left neighbour's
    // block: extend that extent.
    auto at = reuse != table_.end() ? reuse : it;
    if (at != table_.begin()) {
        Extent& left = std::prev(at)->second;
        if (left.end == lp && left.block == block) {
            left.end = end;
            if (reuse != table_.end())
                drop(reuse);
            return unmapped;
        }
    }
    if (reuse != table_.end())
        reuse->second = Extent{end, block};
    else
        put(it, lp, Extent{end, block});
    return unmapped;
}

void
SsdDevice::markDirty(std::uint32_t block)
{
    if (victimTree_.empty() || dirty_[block])
        return;  // no index yet, or already queued
    dirty_[block] = 1;
    dirtyBlocks_.push_back(block);
}

std::uint32_t
SsdDevice::nextNotFull(std::uint32_t from) const
{
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(blockFill_.size());
    if (from >= blocks)
        return blocks;
    std::size_t w = from / 64;
    std::uint64_t bits = notFull_[w] & (~0ULL << (from % 64));
    while (bits == 0) {
        if (++w == notFull_.size())
            return blocks;
        bits = notFull_[w];
    }
    return static_cast<std::uint32_t>(w * 64 + __builtin_ctzll(bits));
}

void
SsdDevice::advanceOpenBlock()
{
    // The next not-full block after the open one, wrapping around.
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(blockFill_.size());
    std::uint32_t next = nextNotFull(openBlock_ + 1);
    if (next == blocks)
        next = nextNotFull(0);
    if (next == blocks)
        return;  // every block is full; the caller reports it
    markDirty(openBlock_);  // full and no longer open: a GC candidate
    openBlock_ = next;
}

void
SsdDevice::startBatches(Bytes bytes, Bytes batch, TimeNs latency,
                        double gbps)
{
    if (bytes == 0 || batch == 0)
        panic("SSD service call of %llu bytes in %llu-byte batches",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(batch));
    busy_.batches = (bytes + batch - 1) / batch;
    busy_.full = latency + transferTimeNs(batch, gbps);
    busy_.last = latency +
                 transferTimeNs(bytes - (busy_.batches - 1) * batch, gbps);
    busy_.gc.clear();
}

const SsdDevice::BatchBusy&
SsdDevice::serviceWrite(std::uint64_t logical_page, Bytes bytes,
                        Bytes batch)
{
    startBatches(bytes, batch, config_.ssdWriteLatencyNs,
                 config_.ssdWriteGBps);
    const Bytes fpb = geom_.flashPageBytes;
    stats_.hostWriteBytes += bytes;
    if (batch % fpb == 0) {
        // Whole-page batches tile one contiguous page range.
        std::uint64_t pages = (bytes + fpb - 1) / fpb;
        stats_.nandWriteBytes += pages * fpb;
        program(logical_page, pages, 0, batch / fpb);
        return busy_;
    }
    // Batch j may start in the page batch j - 1 ends in and rewrite
    // it, so each batch is programmed on its own.
    for (std::uint64_t j = 0; j < busy_.batches; ++j) {
        Bytes size = std::min(batch, bytes - j * batch);
        std::uint64_t pages = (size + fpb - 1) / fpb;
        stats_.nandWriteBytes += pages * fpb;
        program(logical_page + j * batch / fpb, pages, j, pages);
    }
    return busy_;
}

void
SsdDevice::program(std::uint64_t logical_page, std::uint64_t pages,
                   std::uint64_t first_batch, std::uint64_t batch_pages)
{
    const std::uint32_t ppb = geom_.pagesPerBlock;
    const std::uint64_t end = logical_page + pages;
    for (std::uint64_t lp = logical_page; lp < end;) {
        // Append to the open block, advancing to the next erased block
        // when it fills.
        if (blockFill_[openBlock_] == ppb)
            advanceOpenBlock();
        if (blockFill_[openBlock_] >= ppb)
            fatal("SSD is full: %llu valid pages exceed capacity",
                  static_cast<unsigned long long>(totalPages_));
        // The segment ends where the open block fills or at the page
        // that takes the free count below the GC threshold; page by page
        // once free pages run out or GC could not restore them.
        std::uint64_t n =
            std::min<std::uint64_t>(end - lp, ppb - blockFill_[openBlock_]);
        if (freePages_ == 0 || freePages_ < gcThreshold_)
            n = 1;
        else
            n = std::min(n, freePages_ + 1 -
                                std::max<std::uint64_t>(gcThreshold_, 1));
        // Point the pages at the open block and invalidate their
        // previous physical copies, which stay unusable until their
        // blocks are garbage-collected and erased.
        mapped_ += replaceRange(lp, n, openBlock_);
        blockValid_[openBlock_] += static_cast<std::uint32_t>(n);
        blockFill_[openBlock_] += static_cast<std::uint32_t>(n);
        if (blockFill_[openBlock_] == ppb)
            notFull_[openBlock_ / 64] &= ~(1ULL << (openBlock_ % 64));
        if (freePages_ > 0)
            freePages_ -= n;  // n <= freePages_ here
        else if (totalPages_ >= ppb)
            panic("SSD free-page count underflow with a block open");
        // (else the device is smaller than its one block: see header)
        lp += n;
        if (freePages_ >= gcThreshold_)
            continue;
        // GC's time goes to the batch of the page that triggered it, the
        // segment's last; a run that took no time changes none.
        TimeNs t = collectGarbage();
        if (t == 0)
            continue;
        std::uint64_t batch =
            first_batch + (lp - 1 - logical_page) / batch_pages;
        if (!busy_.gc.empty() && busy_.gc.back().first == batch)
            busy_.gc.back().second += t;
        else
            busy_.gc.emplace_back(batch, t);
    }
}

const SsdDevice::BatchBusy&
SsdDevice::serviceRead(Bytes bytes, Bytes batch)
{
    startBatches(bytes, batch, config_.ssdReadLatencyNs,
                 config_.ssdReadGBps);
    stats_.hostReadBytes += bytes;
    return busy_;
}

std::uint64_t
SsdDevice::victimKey(std::uint32_t block) const
{
    if (block == openBlock_ || blockFill_[block] < geom_.pagesPerBlock)
        return kNoVictim;  // not fully programmed; nothing to reclaim
    return (static_cast<std::uint64_t>(blockValid_[block]) << 32) | block;
}

std::uint64_t
SsdDevice::bestVictim()
{
    const std::size_t blocks = blockFill_.size();
    if (victimTree_.empty()) {
        victimTree_.assign(2 * blocks, kNoVictim);
        dirty_.assign(blocks, 0);
        for (std::size_t b = 0; b < blocks; ++b)
            victimTree_[blocks + b] =
                victimKey(static_cast<std::uint32_t>(b));
        for (std::size_t i = blocks - 1; i >= 1; --i)
            victimTree_[i] =
                std::min(victimTree_[2 * i], victimTree_[2 * i + 1]);
    }
    for (std::uint32_t b : dirtyBlocks_) {
        dirty_[b] = 0;
        std::size_t i = blocks + b;
        victimTree_[i] = victimKey(b);
        for (i /= 2; i >= 1; i /= 2) {
            std::uint64_t m =
                std::min(victimTree_[2 * i], victimTree_[2 * i + 1]);
            if (victimTree_[i] == m)
                break;  // ancestors already hold this minimum
            victimTree_[i] = m;
        }
    }
    dirtyBlocks_.clear();
    // (With one block the root is its leaf.)
    return victimTree_[1];
}

TimeNs
SsdDevice::collectGarbage()
{
    ++stats_.gcRuns;
    TimeNs busy = 0;
    // Greedy: relocate the fullest-of-invalid (fewest valid pages)
    // *programmed* block, lowest index on ties, until comfortably above
    // the threshold.
    while (freePages_ < gcTarget_) {
        std::uint64_t key = bestVictim();
        if (key == kNoVictim)
            break;  // nothing to collect
        std::uint32_t best_valid = static_cast<std::uint32_t>(key >> 32);
        std::uint32_t victim = static_cast<std::uint32_t>(key);
        if (best_valid == geom_.pagesPerBlock)
            break;  // everything valid: GC cannot help

        // Relocate the surviving pages into the log and erase. (We
        // charge traffic and time; the per-page map is not re-walked,
        // a standard simulator approximation.)
        stats_.relocatedPages += best_valid;
        stats_.nandWriteBytes +=
            static_cast<Bytes>(best_valid) * geom_.flashPageBytes;
        busy += geom_.eraseLatencyNs +
                 transferTimeNs(static_cast<Bytes>(best_valid) *
                                    geom_.flashPageBytes,
                                config_.ssdWriteGBps);
        ++stats_.blockErases;
        // The erase frees the whole block; the relocated survivors are
        // programmed back into it (log-append approximation).
        freePages_ += geom_.pagesPerBlock - best_valid;
        blockFill_[victim] = best_valid;
        blockValid_[victim] = best_valid;
        notFull_[victim / 64] |= 1ULL << (victim % 64);
        markDirty(victim);
    }
    return busy;
}

std::uint64_t
SsdDevice::logicalTableBytes() const
{
    return table_.size() * sizeof(Table::value_type);
}

SsdDevice::Census
SsdDevice::census() const
{
    Census c;
    std::vector<std::uint64_t> named(blockValid_.size(), 0);
    std::uint64_t prevEnd = 0;
    for (const auto& [first, extent] : table_) {
        if (first < prevEnd || extent.end <= first ||
            extent.block >= named.size()) {
            c.validMatchesTable = false;
            continue;
        }
        named[extent.block] += extent.end - first;
        prevEnd = extent.end;
    }
    for (std::size_t b = 0; b < blockValid_.size(); ++b) {
        c.blockValid += blockValid_[b];
        c.unprogrammed += geom_.pagesPerBlock - blockFill_[b];
        if (named[b] != blockValid_[b])
            c.validMatchesTable = false;
    }
    return c;
}

double
ssdLifetimeYears(const SsdStats& stats, Bytes capacity,
                 TimeNs elapsed_ns, double dwpd, double rated_years)
{
    if (elapsed_ns <= 0 || stats.nandWriteBytes == 0)
        return rated_years;
    // Rated total NAND write budget.
    double budget = dwpd * rated_years * 365.0 *
                    static_cast<double>(capacity);
    // Observed write rate (bytes/day).
    double per_day = static_cast<double>(stats.nandWriteBytes) /
                     (static_cast<double>(elapsed_ns) / SEC) * 86400.0;
    return budget / per_day / 365.0;
}

}  // namespace g10
