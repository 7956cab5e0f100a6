/** @file Unit tests for KernelTrace and the tape-based TraceBuilder. */

#include <gtest/gtest.h>

#include "graph/trace.h"
#include "models/trace_builder.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

TEST(KernelTrace, ChainStructure)
{
    KernelTrace t = test::makeChainTrace(5, 1 * MiB, 1 * MSEC);
    EXPECT_EQ(t.numKernels(), 5u);
    EXPECT_EQ(t.numTensors(), 5u);
    EXPECT_EQ(t.totalComputeNs(), 5 * MSEC);
    t.validate();
}

TEST(KernelTrace, IdealStartTimesIncludeLaunchOverhead)
{
    KernelTrace t = test::makeChainTrace(3, 1 * MiB, 1 * MSEC);
    auto starts = t.idealStartTimes(10 * USEC);
    ASSERT_EQ(starts.size(), 4u);
    EXPECT_EQ(starts[0], 0);
    EXPECT_EQ(starts[1], 1 * MSEC + 10 * USEC);
    EXPECT_EQ(starts[2], 2 * (1 * MSEC + 10 * USEC));
    EXPECT_EQ(starts[3], 3 * (1 * MSEC + 10 * USEC));
}

TEST(KernelTrace, UseListsAreSortedPerTensor)
{
    KernelTrace t = test::makeFwdBwdTrace(4, 1 * MiB, 1 * MSEC);
    for (const auto& u : t.useIndex().uses) {
        for (std::size_t i = 1; i < u.size(); ++i)
            EXPECT_LT(u[i - 1], u[i]);
    }
}

TEST(KernelTrace, UseIndexCountsEachTensorOncePerKernel)
{
    // k1 updates `a` in place (input and output); k2 reads `a` and
    // names scratch `ws` twice as workspace.
    KernelTrace t;
    TensorId a = t.addTensor("a", 1 * MiB, TensorKind::Activation);
    TensorId ws = t.addTensor("ws", 2 * MiB, TensorKind::Workspace);
    TensorId out = t.addTensor("out", 1 * MiB, TensorKind::Activation);
    Kernel k0;
    k0.name = "k0";
    k0.durationNs = 1;
    k0.outputs = {a};
    t.addKernel(std::move(k0));
    Kernel k1;
    k1.name = "k1";
    k1.durationNs = 1;
    k1.inputs = {a};
    k1.outputs = {a};
    t.addKernel(std::move(k1));
    Kernel k2;
    k2.name = "k2";
    k2.durationNs = 1;
    k2.inputs = {a, a};
    k2.outputs = {out};
    k2.workspace = {ws, ws};
    t.addKernel(std::move(k2));
    t.validate();

    const TraceUseIndex& idx = t.useIndex();
    auto slice = [&](std::size_t k) {
        return std::vector<TensorId>(
            idx.kernelTensors.begin() + idx.kernelTensorsOff[k],
            idx.kernelTensors.begin() + idx.kernelTensorsOff[k + 1]);
    };
    ASSERT_EQ(idx.kernelTensorsOff.size(), 4u);
    EXPECT_EQ(slice(0), std::vector<TensorId>({a}));
    EXPECT_EQ(slice(1), std::vector<TensorId>({a}));
    EXPECT_EQ(slice(2), std::vector<TensorId>({a, ws, out}));
    EXPECT_EQ(idx.uses[static_cast<std::size_t>(a)],
              std::vector<KernelId>({0, 1, 2}));
    EXPECT_EQ(idx.uses[static_cast<std::size_t>(ws)],
              std::vector<KernelId>({2}));
    EXPECT_EQ(idx.uses[static_cast<std::size_t>(out)],
              std::vector<KernelId>({2}));
    // The working set counts `a` and `ws` once each.
    EXPECT_EQ(t.peakKernelWorkingSet(1), 4 * MiB);
}

TEST(KernelTrace, ScaleDurations)
{
    KernelTrace t = test::makeChainTrace(4, 1 * MiB, 1 * MSEC);
    t.scaleDurations(2.5);
    EXPECT_EQ(t.totalComputeNs(), 10 * MSEC);
    t.scaleDurations(1e-12);  // floors at 1 us
    EXPECT_EQ(t.kernel(0).durationNs, 1000);
}

TEST(KernelTrace, PeakKernelWorkingSet)
{
    KernelTrace t = test::makeChainTrace(3, 2 * MiB, 1 * MSEC);
    // Largest kernel touches input + output = 4 MiB.
    EXPECT_EQ(t.peakKernelWorkingSet(1), 4 * MiB);
    // Page rounding: each 2 MiB tensor takes one whole 3 MiB page.
    EXPECT_EQ(t.peakKernelWorkingSet(3 * MiB), 6 * MiB);
}

TEST(KernelTraceDeath, ValidateCatchesReadBeforeWrite)
{
    KernelTrace t;
    TensorId a = t.addTensor("a", 1 * MiB, TensorKind::Activation);
    Kernel k;
    k.name = "bad";
    k.inputs = {a};  // never written
    k.durationNs = 1;
    TensorId out = t.addTensor("o", 1 * MiB, TensorKind::Activation);
    k.outputs = {out};
    t.addKernel(std::move(k));
    EXPECT_DEATH(t.validate(), "before any");
}

TEST(KernelTraceDeath, ValidateCatchesOutOfRangeTensor)
{
    for (int slot = 0; slot < 3; ++slot) {
        KernelTrace t = test::makeChainTrace(2, 1 * MiB, 1 * MSEC);
        Kernel k;
        k.name = "bad";
        k.durationNs = 1;
        k.outputs = {0};
        std::vector<TensorId>* lists[] = {&k.inputs, &k.outputs,
                                          &k.workspace};
        lists[slot]->push_back(7);
        t.addKernel(std::move(k));
        EXPECT_DEATH(t.validate(), "references bad tensor 7") << slot;
    }
}

TEST(KernelTraceDeath, BadTensorIdPanics)
{
    KernelTrace t = test::makeChainTrace(2, 1 * MiB, 1 * MSEC);
    EXPECT_DEATH(t.tensor(99), "out of range");
    EXPECT_DEATH(t.kernel(99), "out of range");
}

// ---- TraceBuilder (autograd tape) ----

TEST(TraceBuilder, EmitsBackwardInReverseOrder)
{
    TraceBuilder b("m", 1, CostModel());
    TensorId x = b.input("x", 1 * MiB);
    TensorId w1 = b.weight("w1", 1 * MiB);
    TensorId w2 = b.weight("w2", 1 * MiB);

    OpSpec op1;
    op1.kind = OpKind::Gemm;
    op1.name = "fc1";
    op1.inputs = {x};
    op1.weights = {w1};
    op1.outBytes = 1 * MiB;
    op1.flops = 1e6;
    TensorId h = b.op(op1);

    OpSpec op2 = op1;
    op2.name = "fc2";
    op2.inputs = {h};
    op2.weights = {w2};
    TensorId y = b.op(op2);

    b.loss(y);
    KernelTrace t = b.finish();
    t.validate();

    // Expected kernel order: load, fc1, fc2, loss_fwd, loss_bwd,
    // fc2_bwd, fc1_bwd, sgd_w1, sgd_w2.
    std::vector<std::string> names;
    for (const auto& k : t.kernels())
        names.push_back(k.name);
    ASSERT_EQ(names.size(), 9u);
    EXPECT_EQ(names[1], "fc1");
    EXPECT_EQ(names[2], "fc2");
    EXPECT_EQ(names[5], "fc2_bwd");
    EXPECT_EQ(names[6], "fc1_bwd");
    EXPECT_EQ(names[7], "sgd_w1");
    EXPECT_EQ(names[8], "sgd_w2");
}

TEST(TraceBuilder, GradAccumulationAtJoins)
{
    // x feeds two consumers -> backward must emit a grad_accum kernel.
    TraceBuilder b("m", 1, CostModel());
    TensorId x = b.input("x", 1 * MiB);
    TensorId w = b.weight("w", 1 * MiB);

    OpSpec mk;
    mk.kind = OpKind::Gemm;
    mk.name = "pre";
    mk.inputs = {x};
    mk.weights = {w};
    mk.outBytes = 1 * MiB;
    mk.flops = 1e6;
    TensorId h = b.op(mk);

    OpSpec c1 = mk;
    c1.name = "left";
    c1.inputs = {h};
    c1.weights = {};
    TensorId l = b.op(c1);
    OpSpec c2 = mk;
    c2.name = "right";
    c2.inputs = {h};
    c2.weights = {};
    TensorId r = b.op(c2);

    OpSpec joined;
    joined.kind = OpKind::Elementwise;
    joined.name = "join";
    joined.inputs = {l, r};
    joined.outBytes = 1 * MiB;
    joined.gradPassthrough = true;
    TensorId y = b.op(joined);

    b.loss(y);
    KernelTrace t = b.finish();
    bool found_accum = false;
    for (const auto& k : t.kernels())
        if (k.name.find("grad_accum") != std::string::npos)
            found_accum = true;
    EXPECT_TRUE(found_accum);
}

TEST(TraceBuilder, PassthroughEmitsNoBackwardKernel)
{
    TraceBuilder b("m", 1, CostModel());
    TensorId x = b.input("x", 1 * MiB);
    OpSpec pre;
    pre.kind = OpKind::Gemm;
    pre.name = "pre";
    pre.inputs = {x};
    pre.outBytes = 1 * MiB;
    pre.flops = 1e6;
    TensorId h = b.op(pre);

    OpSpec add;
    add.kind = OpKind::Elementwise;
    add.name = "addition";
    add.inputs = {h, h};
    add.outBytes = 1 * MiB;
    add.gradPassthrough = true;
    TensorId y = b.op(add);
    b.loss(y);
    KernelTrace t = b.finish();
    for (const auto& k : t.kernels())
        EXPECT_EQ(k.name.find("addition_bwd"), std::string::npos);
}

TEST(TraceBuilder, SavedSideOutputLivesUntilBackward)
{
    TraceBuilder b("m", 1, CostModel());
    TensorId x = b.input("x", 1 * MiB);
    OpSpec drop;
    drop.kind = OpKind::Elementwise;
    drop.name = "drop";
    drop.inputs = {x};
    drop.inputSavedForBwd = {false};
    drop.outBytes = 1 * MiB;
    drop.extraSavedBytes = 256 * KiB;  // the mask
    TensorId y = b.op(drop);
    b.loss(y);
    KernelTrace t = b.finish();
    t.validate();

    // Find the mask tensor and check it is read by the backward kernel.
    TensorId mask = kInvalidTensor;
    for (const auto& ten : t.tensors())
        if (ten.name == "drop_saved")
            mask = ten.id;
    ASSERT_NE(mask, kInvalidTensor);
    const auto& uses = t.useIndex().uses;
    EXPECT_EQ(uses[static_cast<std::size_t>(mask)].size(), 2u);
}

TEST(TraceBuilder, WorkspaceLivesOnlyInItsKernel)
{
    TraceBuilder b("m", 1, CostModel());
    TensorId x = b.input("x", 1 * MiB);
    OpSpec conv;
    conv.kind = OpKind::Conv2d;
    conv.name = "conv";
    conv.inputs = {x};
    conv.outBytes = 1 * MiB;
    conv.flops = 1e6;
    conv.workspaceBytes = 8 * MiB;
    TensorId y = b.op(conv);
    b.loss(y);
    KernelTrace t = b.finish();

    TensorId ws = kInvalidTensor;
    for (const auto& ten : t.tensors())
        if (ten.kind == TensorKind::Workspace && ten.name == "conv_ws")
            ws = ten.id;
    ASSERT_NE(ws, kInvalidTensor);
    const auto& uses = t.useIndex().uses;
    EXPECT_EQ(uses[static_cast<std::size_t>(ws)].size(), 1u);
}

TEST(TraceBuilderDeath, FinishWithoutLossPanics)
{
    TraceBuilder b("m", 1, CostModel());
    b.input("x", 1 * MiB);
    EXPECT_DEATH(b.finish(), "loss");
}

}  // namespace
}  // namespace g10
