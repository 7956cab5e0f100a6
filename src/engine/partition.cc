#include "partition.h"

#include "common/logging.h"

namespace g10 {

SystemConfig
partitionShare(const SystemConfig& whole, double fraction)
{
    SystemConfig part = whole;
    part.gpuMemBytes = static_cast<Bytes>(
        static_cast<double>(whole.gpuMemBytes) * fraction);
    part.hostMemBytes = static_cast<Bytes>(
        static_cast<double>(whole.hostMemBytes) * fraction);
    return part;
}

SystemConfig
partitionBytes(const SystemConfig& whole, Bytes gpu, Bytes host)
{
    SystemConfig part = whole;
    part.gpuMemBytes = gpu;
    part.hostMemBytes = host;
    return part;
}

PartitionManager::PartitionManager(const SystemConfig& whole, int slots)
    : whole_(whole)
{
    if (slots < 1)
        fatal("PartitionManager: slots must be >= 1, got %d", slots);
    table_.assign(static_cast<std::size_t>(slots), Slot{});
    slotCap_ = slots;
    slotSys_ = partitionShare(
        whole_, 1.0 / static_cast<double>(slots));
}

PartitionManager::Lease
PartitionManager::acquire()
{
    if (!hasFree())
        panic("PartitionManager: no free partition slot "
              "(%d leased); admission control must gate acquire()",
              slots());
    return bookLease(slotSys_, slotSys_.gpuMemBytes,
                     slotSys_.hostMemBytes);
}

PartitionManager::Lease
PartitionManager::bookLease(const SystemConfig& sys, Bytes gpu,
                            Bytes host)
{
    std::size_t i = 0;
    while (i < table_.size() && table_[i].inUse)
        ++i;
    if (i == table_.size())
        table_.push_back(Slot{});  // byte mode grows past slots()
    table_[i].inUse = true;
    table_[i].leaseId = nextLeaseId_++;
    table_[i].gpu = gpu;
    table_[i].host = host;
    leasedGpu_ += gpu;
    leasedHost_ += host;
    ++activeLeases_;
    ++granted_;
    Lease l;
    l.slot = static_cast<int>(i);
    l.id = table_[i].leaseId;
    l.sys = sys;
    return l;
}

PartitionManager::Lease
PartitionManager::acquireBytes(Bytes gpu, Bytes host)
{
    if (gpu > freeGpuBytes() || host > freeHostBytes())
        panic("PartitionManager: byte lease (%llu GPU, %llu host) "
              "over-subscribes the free pool (%llu GPU, %llu host)",
              static_cast<unsigned long long>(gpu),
              static_cast<unsigned long long>(host),
              static_cast<unsigned long long>(freeGpuBytes()),
              static_cast<unsigned long long>(freeHostBytes()));
    return bookLease(partitionBytes(whole_, gpu, host), gpu, host);
}

PartitionManager::Slot&
PartitionManager::checkLease(const Lease* lease, const char* op)
{
    if (lease == nullptr || !lease->active())
        panic("PartitionManager: %s of an inactive lease", op);
    auto i = static_cast<std::size_t>(lease->slot);
    if (i >= table_.size() || !table_[i].inUse)
        panic("PartitionManager: double release of slot %d (%s of a "
              "lease already reclaimed)",
              lease->slot, op);
    if (table_[i].leaseId != lease->id)
        panic("PartitionManager: stale lease for slot %d (%s of "
              "generation %llu, slot now holds generation %llu); "
              "double release would corrupt the free pool",
              lease->slot, op,
              static_cast<unsigned long long>(lease->id),
              static_cast<unsigned long long>(table_[i].leaseId));
    return table_[i];
}

void
PartitionManager::resize(Lease* lease, Bytes gpu, Bytes host)
{
    Slot& s = checkLease(lease, "resize");
    if (gpu > s.gpu && gpu - s.gpu > freeGpuBytes())
        panic("PartitionManager: resize grows slot %d by %llu GPU "
              "bytes but only %llu are free",
              lease->slot,
              static_cast<unsigned long long>(gpu - s.gpu),
              static_cast<unsigned long long>(freeGpuBytes()));
    if (host > s.host && host - s.host > freeHostBytes())
        panic("PartitionManager: resize grows slot %d by %llu host "
              "bytes but only %llu are free",
              lease->slot,
              static_cast<unsigned long long>(host - s.host),
              static_cast<unsigned long long>(freeHostBytes()));
    leasedGpu_ = leasedGpu_ - s.gpu + gpu;
    leasedHost_ = leasedHost_ - s.host + host;
    s.gpu = gpu;
    s.host = host;
    lease->sys = partitionBytes(whole_, gpu, host);
    ++resizes_;
}

PartitionManager::Lease
PartitionManager::split(Lease* lease, double fraction)
{
    if (fraction <= 0.0 || fraction >= 1.0)
        panic("PartitionManager: split fraction must be in (0, 1), "
              "got %g",
              fraction);
    Slot& s = checkLease(lease, "split");
    const Bytes carveGpu = static_cast<Bytes>(
        static_cast<double>(s.gpu) * fraction);
    const Bytes carveHost = static_cast<Bytes>(
        static_cast<double>(s.host) * fraction);
    if (carveGpu == 0 && s.gpu > 0)
        panic("PartitionManager: split of slot %d carves zero GPU "
              "bytes (lease too small for fraction %g)",
              lease->slot, fraction);
    // Shrink the parent by exactly the carved bytes (conservation),
    // then book the child straight out of the freed capacity.
    leasedGpu_ -= carveGpu;
    leasedHost_ -= carveHost;
    s.gpu -= carveGpu;
    s.host -= carveHost;
    lease->sys = partitionBytes(whole_, s.gpu, s.host);
    ++resizes_;
    return bookLease(partitionBytes(whole_, carveGpu, carveHost),
                     carveGpu, carveHost);
}

void
PartitionManager::release(Lease* lease)
{
    Slot& s = checkLease(lease, "release");
    s.inUse = false;
    s.leaseId = 0;
    leasedGpu_ -= s.gpu;
    leasedHost_ -= s.host;
    s.gpu = 0;
    s.host = 0;
    --activeLeases_;
    ++reclaimed_;
    lease->slot = -1;
    lease->id = 0;
}

}  // namespace g10
