#include "registry.h"

#include <cctype>

#include "common/logging.h"
#include "policies/baselines.h"
#include "policies/g10_policy.h"

namespace g10 {

namespace {

/** Wrap a policy pointer into a DesignInstance. */
DesignInstance
instanceOf(std::unique_ptr<Policy> policy, bool uvm_extension = false)
{
    DesignInstance d;
    d.policy = std::move(policy);
    d.uvmExtension = uvm_extension;
    return d;
}

}  // namespace

PolicyRegistry&
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

PolicyRegistry::PolicyRegistry()
{
    // The paper's §7 design points, in Fig. 11 legend order. Keys are
    // the CLI spellings g10sim has always accepted.
    add({"Ideal", "ideal", {},
         "Infinite GPU memory; the normalization baseline.",
         [](const KernelTrace&, const SystemConfig&) {
             return instanceOf(std::make_unique<IdealPolicy>());
         },
         true, std::nullopt});

    add({"Base UVM", "baseuvm", {"uvm"},
         "Stock UVM: on-demand page faults, LRU eviction to host, "
         "overflow to SSD.",
         [](const KernelTrace&, const SystemConfig&) {
             return instanceOf(std::make_unique<BaseUvmPolicy>());
         },
         true, std::nullopt});

    add({"DeepUM+", "deepum", {"deepum+"},
         "UVM plus a correlation prefetcher over the next kernels' "
         "tensors (ASPLOS'23, SSD-backed).",
         [](const KernelTrace&, const SystemConfig&) {
             return instanceOf(std::make_unique<DeepUmPolicy>());
         },
         true, std::nullopt});

    add({"FlashNeuron", "flashneuron", {},
         "Direct GPU-SSD activation offloading; no host staging, no "
         "demand paging (FAST'21).",
         [](const KernelTrace& trace, const SystemConfig& config) {
             return instanceOf(
                 std::make_unique<FlashNeuronPolicy>(trace, config));
         },
         true, std::nullopt});

    // The G10 family: one compiler, three variants (Fig. 11).
    add({"G10-GDS", "g10gds", {},
         "Smart tensor migrations between GPU and SSD only "
         "(GPUDirect-Storage-style ablation).",
         {}, true,
         G10Variant{/*allowHost=*/false, /*uvmExtension=*/false}});

    add({"G10-Host", "g10host", {},
         "Smart GPU/host/SSD migrations without the unified page "
         "table (pays the host software path).",
         {}, true,
         G10Variant{/*allowHost=*/true, /*uvmExtension=*/false}});

    add({"G10", "g10", {},
         "Full G10: smart migrations plus the unified page table "
         "extension (paper §4.5).",
         {}, true,
         G10Variant{/*allowHost=*/true, /*uvmExtension=*/true}});
}

DesignInstance
PolicyInfo::make(const KernelTrace& trace,
                 const SystemConfig& config) const
{
    DesignInstance out = factory(trace, config);
    if (!out.policy)
        fatal("design '%s': factory returned a null policy",
              name.c_str());
    return out;
}

DesignInstance
PolicyInfo::instance(std::shared_ptr<const CompiledPlan> plan) const
{
    if (!g10)
        panic("design '%s' is not a G10 family member", name.c_str());
    return instanceOf(std::make_unique<G10Policy>(name, std::move(plan)),
                      g10->uvmExtension);
}

std::string
PolicyRegistry::normalizeKey(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == ' ' || c == '-' || c == '_')
            continue;
        out += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

void
PolicyRegistry::add(PolicyInfo info)
{
    if (info.key.empty())
        fatal("PolicyRegistry: design '%s' has an empty key",
              info.name.c_str());
    if (!info.factory == !info.g10)
        fatal("PolicyRegistry: design '%s' needs a factory or a "
              "G10Variant (not both)",
              info.name.c_str());

    std::lock_guard<std::mutex> lock(mutex_);
    auto owned = std::make_unique<PolicyInfo>(std::move(info));
    const PolicyInfo* entry = owned.get();
    if (entry->g10)
        owned->factory = [entry](const KernelTrace& trace,
                                 const SystemConfig& config) {
            return entry->instance(
                compileFamilyPlan(*entry->g10, trace, config));
        };

    std::vector<std::string> keys;
    keys.push_back(normalizeKey(entry->key));
    keys.push_back(normalizeKey(entry->name));
    for (const std::string& a : entry->aliases)
        keys.push_back(normalizeKey(a));

    for (const std::string& k : keys) {
        auto it = lookup_.find(k);
        if (it != lookup_.end())
            fatal("PolicyRegistry: design name '%s' already registered "
                  "by '%s' (while adding '%s')",
                  k.c_str(), it->second->name.c_str(),
                  entry->name.c_str());
    }
    for (const std::string& k : keys)
        lookup_[k] = entry;
    entries_.push_back(std::move(owned));
}

const PolicyInfo*
PolicyRegistry::find(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = lookup_.find(normalizeKey(name));
    return it == lookup_.end() ? nullptr : it->second;
}

const PolicyInfo&
PolicyRegistry::resolve(const std::string& name) const
{
    SpecValue v;
    v.key = "design";
    v.text = name;
    return resolve(v);
}

const PolicyInfo&
PolicyRegistry::resolve(const SpecValue& v) const
{
    const PolicyInfo* info = find(v.text);
    if (!info)
        v.unknown("design", "registered: " + knownNames());
    return *info;
}

DesignInstance
PolicyRegistry::make(const std::string& name, const KernelTrace& trace,
                     const SystemConfig& config) const
{
    return resolve(name).make(trace, config);
}

std::vector<const PolicyInfo*>
PolicyRegistry::registeredDesigns() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const PolicyInfo*> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_)
        out.push_back(e.get());
    return out;
}

std::string
PolicyRegistry::knownNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const auto& e : entries_) {
        if (!out.empty())
            out += ", ";
        out += e->key;
    }
    return out;
}

std::string
designDisplayName(const std::string& name)
{
    return PolicyRegistry::instance().resolve(name).name;
}

std::vector<std::string>
allDesignNames()
{
    return {"baseuvm", "flashneuron", "deepum",
            "g10gds",  "g10host",     "g10"};
}

std::vector<std::string>
sweepDesignNames()
{
    return {"baseuvm", "flashneuron", "deepum", "g10"};
}

}  // namespace g10
