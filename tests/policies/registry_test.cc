/** @file Tests for the string-keyed policy registry: built-in
 *  registration, alias resolution, error reporting, and end-to-end
 *  execution of a custom policy registered from this test (with zero
 *  edits to src/policies). */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "api/experiment.h"
#include "engine/partition.h"
#include "policies/baselines.h"
#include "policies/g10_policy.h"
#include "policies/registry.h"
#include "serve/plan_cache.h"
#include "sim/runtime/sim_runtime.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

TEST(PolicyRegistry, BuiltinsAreRegistered)
{
    auto designs = PolicyRegistry::instance().registeredDesigns();
    ASSERT_GE(designs.size(), 7u);
    // The first seven entries are the paper's design points, in
    // registration (Fig. 11 legend) order, each with a description.
    EXPECT_EQ(designs[0]->name, "Ideal");
    EXPECT_EQ(designs[1]->name, "Base UVM");
    EXPECT_EQ(designs[2]->name, "DeepUM+");
    EXPECT_EQ(designs[3]->name, "FlashNeuron");
    EXPECT_EQ(designs[4]->name, "G10-GDS");
    EXPECT_EQ(designs[5]->name, "G10-Host");
    EXPECT_EQ(designs[6]->name, "G10");
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_FALSE(designs[i]->description.empty()) << i;
        EXPECT_TRUE(designs[i]->builtin) << i;
    }
}

TEST(PolicyRegistry, AliasAndSpellingResolution)
{
    PolicyRegistry& reg = PolicyRegistry::instance();
    // Alias, CLI spelling, display name, and case/dash variants all
    // resolve to the same entry.
    const PolicyInfo* uvm = reg.find("baseuvm");
    ASSERT_NE(uvm, nullptr);
    EXPECT_EQ(reg.find("uvm"), uvm);
    EXPECT_EQ(reg.find("Base UVM"), uvm);
    EXPECT_EQ(reg.find("BASE_UVM"), uvm);

    const PolicyInfo* gds = reg.find("g10gds");
    ASSERT_NE(gds, nullptr);
    EXPECT_EQ(reg.find("g10-gds"), gds);
    EXPECT_EQ(reg.find("G10-GDS"), gds);

    EXPECT_EQ(reg.find("deepum+"), reg.find("deepum"));
    EXPECT_EQ(reg.find("nonexistent-policy"), nullptr);
}

TEST(PolicyRegistry, FamilyEntriesDeclareTheirVariant)
{
    PolicyRegistry& reg = PolicyRegistry::instance();
    // Exactly the three G10 designs declare a variant; G10-GDS alone
    // forbids host destinations, full G10 alone has the page table.
    std::vector<std::string> family;
    for (const PolicyInfo* d : reg.registeredDesigns())
        if (d->g10)
            family.push_back(d->key);
    EXPECT_EQ(family,
              (std::vector<std::string>{"g10gds", "g10host", "g10"}));
    EXPECT_FALSE(reg.resolve("g10gds").g10->allowHost);
    EXPECT_TRUE(reg.resolve("g10host").g10->allowHost);
    EXPECT_TRUE(reg.resolve("g10").g10->allowHost);
    EXPECT_FALSE(reg.resolve("g10gds").g10->uvmExtension);
    EXPECT_FALSE(reg.resolve("g10host").g10->uvmExtension);
    EXPECT_TRUE(reg.resolve("g10").g10->uvmExtension);
    EXPECT_FALSE(reg.resolve("deepum").g10.has_value());

    KernelTrace t = test::makeFwdBwdTrace(8, 4 * MiB, 500 * USEC);
    SystemConfig sys = test::tinySystem();
    DesignInstance inst = reg.make("Base UVM", t, sys);
    ASSERT_NE(inst.policy, nullptr);
    EXPECT_STREQ(inst.policy->name(), "Base UVM");
}

using Instr = std::tuple<KernelId, int, TensorId, int>;

/** Every instruction of @p plan as (kernel, kind, tensor, dest). */
std::vector<Instr>
planInstrs(const CompiledPlan& plan)
{
    std::vector<Instr> out;
    for (const MigrationInstr& m : plan.plan.instrs)
        out.emplace_back(m.issueBefore, static_cast<int>(m.kind),
                         m.tensor, static_cast<int>(m.dest));
    return out;
}

TEST(PolicyRegistry, FamilyPathsAgreeOnNameFlagAndOptions)
{
    // The registry's factory, the serve path (a PolicyInfo's instance
    // around a compilePlan plan) and compilePlan itself all read the
    // entry's variant, so they agree on the display name, the page-
    // table flag and the compile options (the plan compiled).
    ServeJobClass cls;
    cls.model = ModelKind::BertBase;
    cls.batchSize = 1;
    const unsigned scale = 64;
    KernelTrace trace = buildModelScaled(cls.model, cls.batchSize, scale);
    const SystemConfig sys = partitionShare(
        SystemConfig().scaledDown(scale), 0.25);

    PolicyRegistry& reg = PolicyRegistry::instance();
    std::map<std::string, std::vector<Instr>> planOf;
    int members = 0;
    for (const PolicyInfo* d : reg.registeredDesigns()) {
        if (!d->g10)
            continue;
        ++members;
        SCOPED_TRACE(d->key);
        DesignInstance made = reg.make(d->key, trace, sys);
        SweepPlanCache cache;
        std::shared_ptr<const CompiledPlan> compiled = compilePlan(
            *d->g10, trace, cls, scale, sys, nullptr, &cache);
        DesignInstance served = d->instance(compiled);

        EXPECT_EQ(made.policy->name(), d->name);
        EXPECT_EQ(served.policy->name(), d->name);
        EXPECT_EQ(made.uvmExtension, d->g10->uvmExtension);
        EXPECT_EQ(served.uvmExtension, d->g10->uvmExtension);

        const auto& madePlan =
            static_cast<const G10Policy&>(*made.policy).compiled();
        EXPECT_EQ(planInstrs(madePlan), planInstrs(*compiled));
        EXPECT_EQ(&static_cast<const G10Policy&>(*served.policy)
                       .compiled(),
                  compiled.get());
        bool host = false;
        for (const MigrationInstr& m : compiled->plan.instrs)
            host = host || m.dest == MemLoc::Host;
        if (!d->g10->allowHost)
            EXPECT_FALSE(host);
        planOf[d->key] = planInstrs(*compiled);
    }
    EXPECT_EQ(members, 3);
    // Equal compile options, equal plans: G10 and G10-Host share one
    // plan, and this workload makes G10-GDS's differ.
    EXPECT_EQ(planOf["g10"], planOf["g10host"]);
    EXPECT_NE(planOf["g10"], planOf["g10gds"]);
}

TEST(PolicyRegistryDeathTest, UnknownNameListsRegisteredDesigns)
{
    EXPECT_EXIT(
        PolicyRegistry::instance().resolve("no-such-design"),
        ::testing::ExitedWithCode(1),
        "unknown design 'no-such-design' \\(registered: "
        "ideal, baseuvm, deepum, flashneuron, g10gds, g10host, g10");
}

TEST(PolicyRegistryDeathTest, DuplicateRegistrationIsFatal)
{
    auto factory = [](const KernelTrace&, const SystemConfig&) {
        DesignInstance d;
        d.policy = std::make_unique<IdealPolicy>();
        return d;
    };
    EXPECT_EXIT(
        {
            PolicyRegistry::instance().add(
                {"Dup", "dup-policy", {}, "first", factory});
            PolicyRegistry::instance().add(
                {"Dup2", "dup-policy", {}, "second", factory});
        },
        ::testing::ExitedWithCode(1), "already registered");
}

TEST(PolicyRegistry, CustomEntryIsNeitherBuiltinNorFamily)
{
    PolicyRegistry::instance().add(
        {"EnumLess", "enumless", {}, "custom",
         [](const KernelTrace&, const SystemConfig&) {
             DesignInstance d;
             d.policy = std::make_unique<IdealPolicy>();
             return d;
         }});
    const PolicyInfo& info = PolicyRegistry::instance().resolve("enumless");
    EXPECT_FALSE(info.builtin);
    EXPECT_FALSE(info.g10.has_value());
}

/** A custom design defined entirely inside this test binary. */
class EvictHostPolicy : public Policy
{
  public:
    const char* name() const override { return "RegistryTestPolicy"; }
    MemLoc capacityEvictDest(SimRuntime&, TensorId) override
    {
        return MemLoc::Host;
    }
};

TEST(PolicyRegistry, CustomPolicyRunsEndToEnd)
{
    PolicyRegistry::instance().add(
        {"RegistryTestPolicy",
         "test-custom",
         {"testcustom-alias"},
         "custom policy registered by registry_test",
         [](const KernelTrace&, const SystemConfig&) {
             DesignInstance d;
             d.policy = std::make_unique<EvictHostPolicy>();
             return d;
         }});

    // Via the fluent builder (real model, heavily scaled down).
    RunResult r = Experiment()
                      .model(ModelKind::ResNet152)
                      .batch(256)
                      .scaleDown(64)
                      .design("test-custom")
                      .run();
    EXPECT_FALSE(r.stats.failed);
    EXPECT_EQ(r.stats.policyName, "RegistryTestPolicy");
    EXPECT_EQ(r.designName, "RegistryTestPolicy");
    EXPECT_GT(r.stats.measuredIterationNs, 0);

    // Via the config-struct machinery g10sim uses, through an alias.
    KernelTrace t = test::makeFwdBwdTrace(16, 8 * MiB, 1 * MSEC);
    ExperimentConfig cfg;
    cfg.sys = test::tinySystem();
    cfg.scaleDown = 1;
    cfg.design = "TestCustom_Alias";  // normalization applies
    ExecStats st = runExperimentOnTrace(t, cfg);
    EXPECT_FALSE(st.failed);
    EXPECT_EQ(st.policyName, "RegistryTestPolicy");
}

TEST(PolicyRegistry, BuilderKnobsReachRunConfig)
{
    // weightWatermark and the uvmExtension override set on an
    // ExperimentConfig must reach the run.
    KernelTrace t =
        test::makeFwdBwdTrace(24, 8 * MiB, 1 * MSEC, 24 * MiB);
    SystemConfig sys = test::tinySystem();

    auto run = [&](double watermark, int uvm) {
        ExperimentConfig cfg;
        cfg.sys = sys;
        cfg.scaleDown = 1;
        cfg.design = "g10host";
        cfg.weightWatermark = watermark;
        cfg.uvmExtension = uvm;
        return runExperimentOnTrace(t, cfg);
    };

    // Forcing the UVM extension on removes host-software overhead, so
    // a G10-Host run can only get faster (or stay equal).
    ExecStats off = run(0.85, -1);  // design default: off
    ExecStats on = run(0.85, 1);
    EXPECT_FALSE(off.failed);
    EXPECT_FALSE(on.failed);
    EXPECT_LE(on.measuredIterationNs, off.measuredIterationNs);
}

}  // namespace
}  // namespace g10
