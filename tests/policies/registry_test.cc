/** @file Tests for the string-keyed policy registry: built-in
 *  registration, alias resolution, error reporting, and end-to-end
 *  execution of a custom policy registered from this test (with zero
 *  edits to src/policies). */

#include <gtest/gtest.h>

#include <memory>

#include "api/experiment.h"
#include "policies/baselines.h"
#include "policies/g10_policy.h"
#include "policies/registry.h"
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
        EXPECT_GE(designs[i]->builtinTag, 0) << i;
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

TEST(PolicyRegistry, BuiltinTagsNameTheDesignPoint)
{
    PolicyRegistry& reg = PolicyRegistry::instance();
    EXPECT_EQ(reg.resolve("uvm").builtinTag,
              static_cast<int>(DesignPoint::BaseUvm));
    EXPECT_EQ(reg.resolve("G10-Host").builtinTag,
              static_cast<int>(DesignPoint::G10Host));
    EXPECT_TRUE(isG10Family(reg.resolve("g10gds").builtinTag));
    EXPECT_FALSE(isG10Family(reg.resolve("deepum").builtinTag));

    KernelTrace t = test::makeFwdBwdTrace(8, 4 * MiB, 500 * USEC);
    SystemConfig sys = test::tinySystem();
    DesignInstance inst = reg.make("Base UVM", t, sys);
    ASSERT_NE(inst.policy, nullptr);
    EXPECT_STREQ(inst.policy->name(), "Base UVM");
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

TEST(PolicyRegistry, CustomNameHasNoBuiltinTag)
{
    PolicyRegistry::instance().add(
        {"EnumLess", "enumless", {}, "custom",
         [](const KernelTrace&, const SystemConfig&) {
             DesignInstance d;
             d.policy = std::make_unique<IdealPolicy>();
             return d;
         }});
    const PolicyInfo& info = PolicyRegistry::instance().resolve("enumless");
    EXPECT_EQ(info.builtinTag, -1);
    EXPECT_FALSE(isG10Family(info.builtinTag));
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
