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

SsdDevice::Chunk*
SsdDevice::findChunk(std::uint64_t logical_page)
{
    std::uint64_t c = logical_page / kTableChunkPages;
    if (c < chunkBase_ || c - chunkBase_ >= chunks_.size())
        return nullptr;
    Chunk& chunk = chunks_[c - chunkBase_];
    return chunk.block.empty() ? nullptr : &chunk;
}

SsdDevice::Chunk&
SsdDevice::residentChunk(std::uint64_t logical_page)
{
    std::uint64_t c = logical_page / kTableChunkPages;
    if (chunks_.empty())
        chunkBase_ = c;
    if (c < chunkBase_) {
        chunks_.insert(chunks_.begin(), chunkBase_ - c, Chunk());
        chunkBase_ = c;
    }
    if (c - chunkBase_ >= chunks_.size())
        chunks_.resize(c - chunkBase_ + 1);
    Chunk& chunk = chunks_[c - chunkBase_];
    if (chunk.block.empty())
        chunk.block.assign(kTableChunkPages, kUnmapped);
    return chunk;
}

void
SsdDevice::dropChunk(Chunk* chunk)
{
    *chunk = Chunk();
    while (!chunks_.empty() && chunks_.front().block.empty()) {
        chunks_.pop_front();
        ++chunkBase_;
    }
    while (!chunks_.empty() && chunks_.back().block.empty())
        chunks_.pop_back();
}

void
SsdDevice::freeLogical(std::uint64_t logical_page, Bytes bytes)
{
    std::uint64_t pages =
        (bytes + geom_.flashPageBytes - 1) / geom_.flashPageBytes;
    std::uint64_t end = logical_page + pages;
    for (std::uint64_t lp = logical_page; lp < end;) {
        std::uint64_t run = std::min(
            end - lp, kTableChunkPages - lp % kTableChunkPages);
        Chunk* chunk = findChunk(lp);
        if (chunk != nullptr) {  // else never written (or already trimmed)
            std::uint64_t trimmed =
                run - replaceSlots(&chunk->block[lp % kTableChunkPages],
                                   run, kUnmapped);
            chunk->mapped -= static_cast<std::uint32_t>(trimmed);
            mapped_ -= trimmed;
            if (chunk->mapped == 0)
                dropChunk(chunk);
        }
        lp += run;
    }
}

void
SsdDevice::invalidate(std::uint32_t block, std::uint32_t pages)
{
    if (blockValid_[block] < pages)
        panic("SSD block %u: invalidating a page of a block with no "
              "valid pages", block);
    blockValid_[block] -= pages;
    markDirty(block);
}

std::uint64_t
SsdDevice::replaceSlots(std::uint32_t* slot, std::uint64_t n,
                        std::uint32_t block)
{
    // A tensor is rewritten at its own logical range, so the old copies
    // mostly share one block: that case is a compare and a fill the
    // compiler vectorizes.
    const std::uint32_t first = slot[0];
    bool uniform = true;
    for (std::uint64_t i = 1; i < n; ++i)
        uniform &= slot[i] == first;
    if (uniform) {
        std::fill(slot, slot + n, block);
        if (first == kUnmapped)
            return n;
        invalidate(first, static_cast<std::uint32_t>(n));
        return 0;
    }
    // Otherwise invalidate each run of equal old blocks at once.
    std::uint64_t unmapped = 0;
    std::uint32_t group = kUnmapped;
    std::uint32_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t old = slot[i];
        slot[i] = block;
        if (old == kUnmapped) {
            ++unmapped;
        } else if (old == group) {
            ++count;
        } else {
            if (count > 0)
                invalidate(group, count);
            group = old;
            count = 1;
        }
    }
    if (count > 0)
        invalidate(group, count);
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
        std::uint64_t run = std::min(
            end - lp, kTableChunkPages - lp % kTableChunkPages);
        Chunk& chunk = residentChunk(lp);
        std::uint32_t* slot = &chunk.block[lp % kTableChunkPages];
        while (run > 0) {
            // Append to the open block, advancing to the next erased
            // block when it fills.
            if (blockFill_[openBlock_] == ppb)
                advanceOpenBlock();
            if (blockFill_[openBlock_] >= ppb)
                fatal("SSD is full: %llu valid pages exceed capacity",
                      static_cast<unsigned long long>(totalPages_));
            // The segment ends where the open block fills or at the page
            // that takes the free count below the GC threshold; page by
            // page once free pages run out or GC could not restore them.
            std::uint64_t n =
                std::min<std::uint64_t>(run, ppb - blockFill_[openBlock_]);
            if (freePages_ == 0 || freePages_ < gcThreshold_)
                n = 1;
            else
                n = std::min(n, freePages_ + 1 -
                                    std::max<std::uint64_t>(gcThreshold_, 1));
            // Point the pages at the open block and invalidate their
            // previous physical copies, which stay unusable until their
            // blocks are garbage-collected and erased.
            std::uint64_t fresh = replaceSlots(slot, n, openBlock_);
            chunk.mapped += static_cast<std::uint32_t>(fresh);
            mapped_ += fresh;
            blockValid_[openBlock_] += static_cast<std::uint32_t>(n);
            blockFill_[openBlock_] += static_cast<std::uint32_t>(n);
            if (blockFill_[openBlock_] == ppb)
                notFull_[openBlock_ / 64] &= ~(1ULL << (openBlock_ % 64));
            if (freePages_ > 0)
                freePages_ -= n;  // n <= freePages_ here
            else if (totalPages_ >= ppb)
                panic("SSD free-page count underflow with a block open");
            // (else the device is smaller than its one block: see header)
            slot += n;
            run -= n;
            lp += n;
            if (freePages_ >= gcThreshold_)
                continue;
            // GC's time goes to the batch of the page that triggered it,
            // the segment's last; a run that took no time changes none.
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
    std::uint64_t bytes = chunks_.size() * sizeof(Chunk);
    for (const Chunk& chunk : chunks_)
        bytes += chunk.block.capacity() * sizeof(std::uint32_t);
    return bytes;
}

SsdDevice::Census
SsdDevice::census() const
{
    Census c;
    std::vector<std::uint64_t> named(blockValid_.size(), 0);
    for (const Chunk& chunk : chunks_)
        for (std::uint32_t b : chunk.block)
            if (b != kUnmapped)
                ++named[b];
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
