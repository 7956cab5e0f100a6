/**
 * @file
 * Shared helpers for the test suite: tiny hand-checkable traces and a
 * random-trace generator for property tests.
 */

#ifndef G10_TESTS_TEST_UTIL_H
#define G10_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/system_config.h"
#include "graph/trace.h"

namespace g10::test {

/**
 * A linear chain: k kernels, each producing one tensor consumed by the
 * next kernel (classic forward pass). Kernel i runs @p dur_ns, tensors
 * are @p bytes each.
 */
inline KernelTrace
makeChainTrace(int num_kernels, Bytes bytes, TimeNs dur_ns)
{
    KernelTrace t;
    t.setModelName("chain");
    t.setBatchSize(1);
    TensorId prev = kInvalidTensor;
    for (int i = 0; i < num_kernels; ++i) {
        TensorId out = t.addTensor("t" + std::to_string(i), bytes,
                                   TensorKind::Activation);
        Kernel k;
        k.name = "k" + std::to_string(i);
        k.durationNs = dur_ns;
        if (prev != kInvalidTensor)
            k.inputs = {prev};
        k.outputs = {out};
        t.addKernel(std::move(k));
        prev = out;
    }
    return t;
}

/**
 * A forward+backward "hourglass": n forward kernels each produce an
 * activation; n backward kernels consume them in reverse order. Every
 * activation therefore has one inactive period whose length grows with
 * how early it was produced -- the canonical G10 workload shape.
 */
inline KernelTrace
makeFwdBwdTrace(int n, Bytes bytes, TimeNs dur_ns,
                Bytes weight_bytes = 0)
{
    KernelTrace t;
    t.setModelName("fwdbwd");
    t.setBatchSize(1);

    std::vector<TensorId> acts;
    TensorId w = kInvalidTensor;
    if (weight_bytes > 0)
        w = t.addTensor("w", weight_bytes, TensorKind::Weight);

    TensorId prev = kInvalidTensor;
    for (int i = 0; i < n; ++i) {
        TensorId a = t.addTensor("a" + std::to_string(i), bytes,
                                 TensorKind::Activation);
        Kernel k;
        k.name = "fwd" + std::to_string(i);
        k.durationNs = dur_ns;
        if (prev != kInvalidTensor)
            k.inputs = {prev};
        if (w != kInvalidTensor)
            k.inputs.push_back(w);
        k.outputs = {a};
        t.addKernel(std::move(k));
        acts.push_back(a);
        prev = a;
    }
    TensorId grad = t.addTensor("g", bytes, TensorKind::ActivationGrad);
    {
        Kernel k;
        k.name = "loss";
        k.durationNs = dur_ns;
        k.inputs = {acts.back()};
        k.outputs = {grad};
        t.addKernel(std::move(k));
    }
    for (int i = n - 1; i >= 0; --i) {
        TensorId g2 = t.addTensor("g" + std::to_string(i), bytes,
                                  TensorKind::ActivationGrad);
        Kernel k;
        k.name = "bwd" + std::to_string(i);
        k.durationNs = dur_ns;
        k.inputs = {acts[static_cast<std::size_t>(i)], grad};
        if (w != kInvalidTensor)
            k.inputs.push_back(w);
        k.outputs = {g2};
        t.addKernel(std::move(k));
        grad = g2;
    }
    return t;
}

/** Random but structurally valid trace for property tests. */
inline KernelTrace
makeRandomTrace(Rng& rng, int num_kernels, int max_live = 6,
                Bytes min_bytes = 64 * KiB, Bytes max_bytes = 8 * MiB)
{
    KernelTrace t;
    t.setModelName("random");
    t.setBatchSize(1);
    std::vector<TensorId> live;
    for (int i = 0; i < num_kernels; ++i) {
        Kernel k;
        k.name = "k" + std::to_string(i);
        k.durationNs = rng.uniformInt(50 * USEC, 3 * MSEC);
        // Read up to two live tensors.
        for (int r = 0; r < 2 && !live.empty(); ++r) {
            auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            k.inputs.push_back(live[idx]);
            // Sometimes retire the tensor from the live set (it may
            // still be referenced later as an input of this kernel).
            if (rng.bernoulli(0.4))
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(idx));
        }
        TensorId out = t.addTensor(
            "t" + std::to_string(i),
            static_cast<Bytes>(rng.uniformInt(
                static_cast<std::int64_t>(min_bytes),
                static_cast<std::int64_t>(max_bytes))),
            TensorKind::Activation);
        k.outputs = {out};
        t.addKernel(std::move(k));
        live.push_back(out);
        while (live.size() > static_cast<std::size_t>(max_live))
            live.erase(live.begin());
    }
    return t;
}

/** A small platform that keeps unit tests fast and hand-checkable. */
inline SystemConfig
tinySystem()
{
    SystemConfig sys;
    sys.gpuMemBytes = 64 * MiB;
    sys.hostMemBytes = 512 * MiB;
    sys.ssdCapacityBytes = 4ULL * GiB;
    return sys;
}

/** Write @p lines to a fresh temp spec file named after @p tag and
 *  return its path. */
inline std::string
writeSpecLines(const std::string& tag, const std::vector<std::string>& lines)
{
    std::string path = ::testing::TempDir() + "g10_" + tag + "_" +
                       std::to_string(::getpid()) + ".spec";
    std::ofstream f(path);
    for (const std::string& line : lines)
        f << line << "\n";
    return path;
}

/** @p lines with any `key = ...` line dropped and `key = value`
 *  appended. */
inline std::vector<std::string>
withKey(std::vector<std::string> lines, const std::string& key,
        const std::string& value)
{
    std::vector<std::string> out;
    for (const std::string& line : lines)
        if (line.rfind(key + " =", 0) != 0)
            out.push_back(line);
    out.push_back(key + " = " + value);
    return out;
}

}  // namespace g10::test

#endif  // G10_TESTS_TEST_UTIL_H
