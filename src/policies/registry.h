/**
 * @file
 * String-keyed registry of memory-management designs.
 *
 * Every design — the paper's seven built-ins and any downstream custom
 * policy — is a named factory `(trace, config) -> DesignInstance`.
 * Lookup is case-insensitive and ignores spaces/dashes/underscores, so
 * the paper legend spelling ("G10-GDS"), the CLI spelling ("g10gds"),
 * and aliases ("uvm" for "baseuvm") all resolve to the same entry.
 *
 * Custom policies register at startup (or from a test) without touching
 * this library:
 *
 *   static g10::RegisterPolicy reg({
 *       "My-Policy", "mypolicy", {"mp"},
 *       "one-line description",
 *       [](const g10::KernelTrace& t, const g10::SystemConfig& s) {
 *           g10::DesignInstance d;
 *           d.policy = std::make_unique<MyPolicy>(t, s);
 *           return d;
 *       }});
 *
 * After that, "mypolicy" works everywhere a design name is accepted:
 * the ExperimentBuilder, ExperimentConfig, mix files, and the g10sim /
 * g10multi CLIs.
 */

#ifndef G10_POLICIES_REGISTRY_H
#define G10_POLICIES_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/spec_reader.h"
#include "common/system_config.h"
#include "graph/trace.h"
#include "policies/design_point.h"

namespace g10 {

/** Factory instantiating one design for a trace/platform pair. */
using PolicyFactory = std::function<DesignInstance(
    const KernelTrace&, const SystemConfig&)>;

/** One registered design. */
struct PolicyInfo
{
    /** Display name matching the paper's legends, e.g. "G10-GDS". */
    std::string name;

    /** Canonical CLI spelling, e.g. "g10gds". */
    std::string key;

    /** Additional accepted spellings. */
    std::vector<std::string> aliases;

    /** One-line description for `--list-designs`. */
    std::string description;

    PolicyFactory factory;

    /**
     * static_cast<int>(DesignPoint) for the seven built-ins (see
     * isG10Family()); -1 for custom policies.
     */
    int builtinTag = -1;
};

/**
 * Process-wide design registry. The seven built-in design points are
 * registered on first access; additional policies may be added at any
 * time before they are looked up. Lookup is thread-safe (the parallel
 * experiment engine resolves names from worker threads).
 */
class PolicyRegistry
{
  public:
    static PolicyRegistry& instance();

    /**
     * Register a design. fatal() when any of its lookup keys collides
     * with an already-registered design.
     */
    void add(PolicyInfo info);

    /** Entry for @p name, or nullptr when unknown. */
    const PolicyInfo* find(const std::string& name) const;

    /**
     * Entry for @p name; fatal() with the list of registered designs
     * when unknown.
     */
    const PolicyInfo& resolve(const std::string& name) const;

    /** resolve() for a spec-file value: fails at its location. */
    const PolicyInfo& resolve(const SpecValue& v) const;

    /** Instantiate @p name for @p trace on @p config (or fatal()). */
    DesignInstance make(const std::string& name,
                        const KernelTrace& trace,
                        const SystemConfig& config) const;

    /** All designs, in registration order (built-ins first). */
    std::vector<const PolicyInfo*> registeredDesigns() const;

    /** Comma-joined canonical keys, for error messages and --help. */
    std::string knownNames() const;

    /**
     * Lookup normalization: lower-case, spaces/dashes/underscores
     * removed ("G10-GDS" -> "g10gds").
     */
    static std::string normalizeKey(const std::string& name);

  private:
    PolicyRegistry();  // registers the built-in design points

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<PolicyInfo>> entries_;
    std::map<std::string, const PolicyInfo*> lookup_;
};

/** Static-initialization helper for self-registering policies. */
struct RegisterPolicy
{
    explicit RegisterPolicy(PolicyInfo info)
    {
        PolicyRegistry::instance().add(std::move(info));
    }
};

/** Display name of a registered design (fatal on unknown names). */
std::string designDisplayName(const std::string& name);

/** The `design` key of mix, fleet and g10sim inputs: a registered
 *  design name, stored as written. */
template <class S>
SpecKey<S>
designKey(std::string S::*field, const char* help)
{
    return specKey<S>({"design", SpecType::Word, {}, "g10host", help},
                      [field](S& s, const SpecValue& v) {
                          PolicyRegistry::instance().resolve(v);
                          s.*field = v.text;
                      });
}

/** Canonical keys of the Fig. 11 designs, left-to-right. */
std::vector<std::string> allDesignNames();

/** Canonical keys of the sweep designs (Figs. 15-18). */
std::vector<std::string> sweepDesignNames();

}  // namespace g10

#endif  // G10_POLICIES_REGISTRY_H
