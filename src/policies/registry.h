/**
 * @file
 * String-keyed registry of memory-management designs.
 *
 * Every design — the paper's seven built-ins and any downstream custom
 * policy — is a named factory `(trace, config) -> DesignInstance`.
 * Lookup is case-insensitive and ignores spaces/dashes/underscores, so
 * the paper legend spelling ("Base UVM"), the CLI spelling ("baseuvm"),
 * and aliases ("uvm") all resolve to the same entry.
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
 *
 * A G10-family entry gives no factory; it declares its G10Variant
 * after the description instead (`..., "description", {}, false,
 * G10Variant{...}}`), and every path that compiles or wraps a G10
 * plan reads that variant.
 */

#ifndef G10_POLICIES_REGISTRY_H
#define G10_POLICIES_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/spec_reader.h"
#include "common/system_config.h"
#include "graph/trace.h"
#include "policies/design_point.h"

namespace g10 {

struct CompiledPlan;

/** Factory instantiating one design for a trace/platform pair. */
using PolicyFactory = std::function<DesignInstance(
    const KernelTrace&, const SystemConfig&)>;

/** One registered design. */
struct PolicyInfo
{
    /** Display name matching the paper's legends, e.g. "Base UVM";
     *  the only display name the design has. */
    std::string name;

    /** Canonical CLI spelling, e.g. "baseuvm". */
    std::string key;

    /** Additional accepted spellings. */
    std::vector<std::string> aliases;

    /** One-line description for `--list-designs`. */
    std::string description;

    /** Instantiates the design. G10-family entries leave it empty
     *  and add() derives it from their variant. */
    PolicyFactory factory;

    /** One of the paper's seven designs (`--list-designs`). */
    bool builtin = false;

    /**
     * Set on G10-family entries: the variant's compile options and
     * page-table flag, stated once. The factory, the serve path, the
     * plan cache and g10sim's listing all read it.
     */
    std::optional<G10Variant> g10;

    /** factory(trace, config); fatal() when it yields no policy. */
    DesignInstance make(const KernelTrace& trace,
                        const SystemConfig& config) const;

    /**
     * This family entry's instance around an already compiled (cached
     * or shared) plan: its display name and page-table flag. panic()
     * on an entry without a G10Variant.
     */
    DesignInstance instance(
        std::shared_ptr<const CompiledPlan> plan) const;
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
     * with an already-registered design, or when it has neither a
     * factory nor a G10Variant (or both).
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
     * removed ("Base UVM" -> "baseuvm").
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
