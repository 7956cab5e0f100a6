/**
 * @file
 * What a design's factory produces (DesignInstance) and what sets the
 * three G10 designs apart (G10Variant). Designs are looked up by name
 * through the PolicyRegistry (policies/registry.h); a registry entry
 * that declares a G10Variant is a G10 family member.
 */

#ifndef G10_POLICIES_DESIGN_POINT_H
#define G10_POLICIES_DESIGN_POINT_H

#include <memory>

#include "sim/runtime/policy.h"

namespace g10 {

/** A policy plus the runtime flags it requires. */
struct DesignInstance
{
    std::unique_ptr<Policy> policy;
    bool uvmExtension = false;
};

/**
 * One G10 design of Fig. 11. All three run the same compiler and
 * replay its plan; they differ only in these two facts.
 */
struct G10Variant
{
    /**
     * The compiler may evict to host memory as well as to the SSD
     * (false: G10-GDS). The only compile option that varies across
     * the family, so variants with equal values share compiled plans.
     */
    bool allowHost = true;

    /** The runtime has the unified page table (§4.5, full G10). */
    bool uvmExtension = false;
};

}  // namespace g10

#endif  // G10_POLICIES_DESIGN_POINT_H
