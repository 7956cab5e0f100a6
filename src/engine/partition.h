/**
 * @file
 * GPU/host memory partition leases for jobs sharing one machine.
 *
 * A PartitionManager carves one SystemConfig into per-job partitions
 * and tracks which of them are out on lease. Capacity is a *dynamic*
 * quantity: every lease is byte-accounted against the machine, and
 * live leases can be resized or split while the free pool
 * conserves every byte. Two sizing modes:
 *
 *  - slot leases (acquire()): the machine is divided into `slots`
 *    equal partitions. The serving engine's static policy leases a
 *    slot when a job is admitted and reclaims it on departure, so a
 *    node with churn keeps handing the same partition geometry to
 *    successive jobs (which is what makes compiled plans reusable
 *    across arrivals).
 *  - byte leases (acquireBytes()): each lease takes an explicit byte
 *    capacity from the free pool. The serving engine's *elastic*
 *    partition policies use this together with resize()/split()
 *    to redistribute capacity as jobs arrive and depart.
 *
 * Only GPU and host memory are partitioned; the PCIe fabric and the
 * SSD stay fully shared (that is the experiment). Leases must be
 * released back; every lease carries a generation id, so the manager
 * panics on over-subscription, double release, and stale-lease release
 * (a copy of an already-reclaimed lease whose slot has since been
 * re-leased) instead of silently corrupting the free pool.
 */

#ifndef G10_ENGINE_PARTITION_H
#define G10_ENGINE_PARTITION_H

#include <cstdint>
#include <vector>

#include "common/system_config.h"

namespace g10 {

/**
 * A share of @p whole: the same platform with GPU/host memory scaled
 * to @p fraction (capacities only; bandwidths, latencies, and the SSD
 * are untouched). This is the one place partition arithmetic lives so
 * every engine splits memory identically.
 */
SystemConfig partitionShare(const SystemConfig& whole, double fraction);

/**
 * A share of @p whole with explicit byte capacities (the elastic
 * analogue of partitionShare): GPU and host memory are set to @p gpu
 * and @p host, everything else is untouched.
 */
SystemConfig partitionBytes(const SystemConfig& whole, Bytes gpu,
                            Bytes host);

/** Tracks leases of one machine's memory partitions. */
class PartitionManager
{
  public:
    /** One leased partition; returned to the manager via release(). */
    struct Lease
    {
        int slot = -1;         ///< manager-internal slot id
        std::uint64_t id = 0;  ///< lease generation (0 = never leased)
        SystemConfig sys;      ///< the partition's platform view

        bool active() const { return slot >= 0; }
    };

    /**
     * @param whole the shared machine (already scaled)
     * @param slots number of concurrent slot-mode leases (>= 1); also
     *              the equal-split denominator of slotSystem()
     */
    PartitionManager(const SystemConfig& whole, int slots);

    /** Number of equal partitions the slot mode divides the machine
     *  into (the concurrency cap of acquire()). */
    int slots() const { return slotCap_; }

    /** Slot-mode leases still available. */
    int freeSlots() const
    {
        return slotCap_ > activeLeases_ ? slotCap_ - activeLeases_ : 0;
    }

    bool hasFree() const { return freeSlots() > 0; }

    /** Leases currently outstanding (any mode). */
    int activeLeases() const { return activeLeases_; }

    /** The platform view an equal-slot lease grants (1/slots each). */
    const SystemConfig& slotSystem() const { return slotSys_; }

    /** Lease one equal slot; panics when none is free. */
    Lease acquire();

    /**
     * Lease an explicit byte capacity from the free pool (elastic
     * mode). Gates on the pool: asking for more than
     * freeGpuBytes()/freeHostBytes() panics.
     * Byte leases are not bounded by slots(); the slot table grows.
     */
    Lease acquireBytes(Bytes gpu, Bytes host);

    /**
     * Grow or shrink a live lease to the new byte capacity. Shrinking
     * returns the difference to the free pool; growing takes it from
     * the pool (panics when the pool cannot cover the growth). The
     * lease's sys is updated in place. Panics on stale leases.
     */
    void resize(Lease* lease, Bytes gpu, Bytes host);

    /**
     * Carve @p fraction (0 < fraction < 1) of @p lease off into a new
     * lease; @p lease shrinks by exactly the carved bytes, so the two
     * leases together hold precisely what the one held before (full
     * conservation, no free-pool round trip).
     */
    Lease split(Lease* lease, double fraction);

    /** Reclaim @p lease (panics on double/stale release); resets it. */
    void release(Lease* lease);

    // ---- Byte accounting (conservation invariants) ------------------

    Bytes totalGpuBytes() const { return whole_.gpuMemBytes; }
    Bytes totalHostBytes() const { return whole_.hostMemBytes; }

    /** Sum of all outstanding leases' GPU / host bytes. */
    Bytes leasedGpuBytes() const { return leasedGpu_; }
    Bytes leasedHostBytes() const { return leasedHost_; }

    /** total - leased, saturating at zero. */
    Bytes freeGpuBytes() const
    {
        return whole_.gpuMemBytes > leasedGpu_
            ? whole_.gpuMemBytes - leasedGpu_
            : 0;
    }
    Bytes freeHostBytes() const
    {
        return whole_.hostMemBytes > leasedHost_
            ? whole_.hostMemBytes - leasedHost_
            : 0;
    }

    /** Total leases handed out / reclaimed (for tests and reports). */
    std::uint64_t granted() const { return granted_; }
    std::uint64_t reclaimed() const { return reclaimed_; }

    /** Lease resizes (resize(), plus the shrink half of split()). */
    std::uint64_t resizes() const { return resizes_; }

  private:
    struct Slot
    {
        bool inUse = false;
        std::uint64_t leaseId = 0;  ///< generation of the current lease
        Bytes gpu = 0;              ///< leased GPU bytes
        Bytes host = 0;             ///< leased host bytes
    };

    /** Validate @p lease against the slot table; panics when it is
     *  null, inactive, double-released, or stale. Returns the slot. */
    Slot& checkLease(const Lease* lease, const char* op);

    /** Book a new lease of (@p gpu, @p host) into a free slot. */
    Lease bookLease(const SystemConfig& sys, Bytes gpu, Bytes host);

    SystemConfig whole_;
    SystemConfig slotSys_;
    std::vector<Slot> table_;
    int slotCap_ = 0;       ///< slot-mode concurrency cap
    int activeLeases_ = 0;
    Bytes leasedGpu_ = 0;
    Bytes leasedHost_ = 0;
    std::uint64_t nextLeaseId_ = 1;
    std::uint64_t granted_ = 0;
    std::uint64_t reclaimed_ = 0;
    std::uint64_t resizes_ = 0;
};

}  // namespace g10

#endif  // G10_ENGINE_PARTITION_H
