/** @file Parameterized tests over the five-model zoo (Table 1). */

#include <gtest/gtest.h>

#include "core/vitality/vitality.h"
#include "models/model_zoo.h"

namespace g10 {
namespace {

class ModelZooTest : public ::testing::TestWithParam<ModelKind>
{
  protected:
    static constexpr int kBatch = 16;
    KernelTrace trace_ = buildModel(GetParam(), kBatch);
};

TEST_P(ModelZooTest, TraceValidates)
{
    trace_.validate();
    EXPECT_EQ(trace_.batchSize(), kBatch);
    EXPECT_EQ(trace_.modelName(), modelName(GetParam()));
}

TEST_P(ModelZooTest, KernelCountInPaperRegime)
{
    // Table 1 reports 740..2318 kernels; our structural builders land
    // in the same order of magnitude.
    EXPECT_GT(trace_.numKernels(), 300u);
    EXPECT_LT(trace_.numKernels(), 6000u);
}

TEST_P(ModelZooTest, HasForwardBackwardAndOptimizer)
{
    bool has_bwd = false;
    bool has_sgd = false;
    for (const auto& k : trace_.kernels()) {
        if (k.name.find("_bwd") != std::string::npos)
            has_bwd = true;
        if (k.kind == OpKind::Optimizer)
            has_sgd = true;
    }
    EXPECT_TRUE(has_bwd);
    EXPECT_TRUE(has_sgd);
}

TEST_P(ModelZooTest, EveryWeightIsUsedAndUpdated)
{
    const auto& uses = trace_.useIndex().uses;
    for (const auto& t : trace_.tensors()) {
        if (!t.isGlobal())
            continue;
        EXPECT_FALSE(uses[static_cast<std::size_t>(t.id)].empty())
            << t.name;
    }
}

TEST_P(ModelZooTest, CalibrationMatchesPaperPerSampleTime)
{
    TimeNs expect = paperIdealPerSampleNs(GetParam()) * kBatch;
    // scaleDurations floors tiny kernels at 1 us, so allow 2% slack.
    EXPECT_NEAR(static_cast<double>(trace_.totalComputeNs()),
                static_cast<double>(expect),
                static_cast<double>(expect) * 0.02);
}

TEST_P(ModelZooTest, FootprintScalesWithBatch)
{
    KernelTrace big = buildModel(GetParam(), kBatch * 2);
    // Activations dominate: footprint should grow close to 2x.
    double ratio = static_cast<double>(big.totalTensorBytes()) /
                   static_cast<double>(trace_.totalTensorBytes());
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.2);
}

TEST_P(ModelZooTest, TensorSizesAreDiverse)
{
    // Fig. 4: sizes span tiny (sub-64KB gates/params) to huge.
    Bytes smallest = trace_.tensors()[0].bytes;
    Bytes largest = 0;
    for (const auto& t : trace_.tensors()) {
        smallest = std::min(smallest, t.bytes);
        largest = std::max(largest, t.bytes);
    }
    EXPECT_LT(smallest, 64 * KiB);
    EXPECT_GT(largest, 16 * MiB);
}

TEST_P(ModelZooTest, ActiveFractionIsSmall)
{
    // Paper O1: active tensors are a small share of total demand.
    VitalityAnalysis v(trace_, 5 * USEC);
    auto active = v.activeBytesPerKernel();
    Bytes peak_live = v.peakMemoryBytes();
    double worst = 0.0;
    double sum = 0.0;
    for (Bytes a : active) {
        double frac =
            static_cast<double>(a) / static_cast<double>(peak_live);
        worst = std::max(worst, frac);
        sum += frac;
    }
    double avg = sum / static_cast<double>(active.size());
    EXPECT_LT(avg, 0.10);  // paper: ~1% on average, <10%
    EXPECT_LT(worst, 0.75);
}

TEST_P(ModelZooTest, ScaledBuildDividesBatch)
{
    KernelTrace scaled = buildModelScaled(GetParam(), 64, 8);
    EXPECT_EQ(scaled.batchSize(), 8);
    EXPECT_EQ(scaled.numKernels(), trace_.numKernels());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelZooTest,
    ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
        return std::string(modelName(info.param));
    });

TEST(ModelFactory, NameRoundTrip)
{
    for (ModelKind m : allModels())
        EXPECT_EQ(modelKindFromName(modelName(m)), m);
    EXPECT_EQ(modelKindFromName("bert"), ModelKind::BertBase);
    EXPECT_EQ(modelKindFromName("RESNET152"), ModelKind::ResNet152);
}

TEST(ModelFactoryDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(modelKindFromName("alexnet"),
                ::testing::ExitedWithCode(1), "unknown model");
}

TEST(ModelFactory, PaperBatchSizesMatchTable)
{
    EXPECT_EQ(paperBatchSize(ModelKind::BertBase), 256);
    EXPECT_EQ(paperBatchSize(ModelKind::ViT), 1280);
    EXPECT_EQ(paperBatchSize(ModelKind::Inceptionv3), 1536);
    EXPECT_EQ(paperBatchSize(ModelKind::ResNet152), 1280);
    EXPECT_EQ(paperBatchSize(ModelKind::SENet154), 1024);
}

}  // namespace
}  // namespace g10
