/**
 * @file
 * The named design points of the paper's evaluation and the
 * DesignInstance bundle a design's factory produces. Designs are
 * looked up by name through the PolicyRegistry (policies/registry.h);
 * the enum is only the built-in tag a registry entry carries.
 */

#ifndef G10_POLICIES_DESIGN_POINT_H
#define G10_POLICIES_DESIGN_POINT_H

#include <memory>

#include "sim/runtime/policy.h"

namespace g10 {

/** Every design point evaluated in §7 (PolicyInfo::builtinTag). */
enum class DesignPoint
{
    Ideal,
    BaseUvm,
    DeepUmPlus,
    FlashNeuron,
    G10Gds,
    G10Host,
    G10,
};

/** A policy plus the runtime flags it requires. */
struct DesignInstance
{
    std::unique_ptr<Policy> policy;
    bool uvmExtension = false;
};

}  // namespace g10

#endif  // G10_POLICIES_DESIGN_POINT_H
