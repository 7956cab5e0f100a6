/**
 * @file
 * The g10sim config file: one experiment, the equivalent of the paper
 * artifact's `gpg <config>` input. `g10sim --help` lists the keys.
 */

#ifndef G10_API_SIM_CONFIG_H
#define G10_API_SIM_CONFIG_H

#include <cstdint>
#include <string>

#include "common/spec_reader.h"
#include "common/system_config.h"
#include "models/model_zoo.h"

namespace g10 {

/** Everything a g10sim config file sets. */
struct SimConfig
{
    ModelKind model = ModelKind::ResNet152;

    /** A saved .trace file to replay instead of model/batch. */
    std::string tracePath;

    /** Paper-scale batch size; 0 = the model's Fig. 11 batch. */
    int batchSize = 0;

    /** 1/N platform scale. */
    unsigned scaleDown = 16;

    /** The platform at 1/scaleDown; the platform keys override the
     *  scaled values. */
    SystemConfig sys = SystemConfig().scaledDown(16);

    /** Registered design name. */
    std::string design = "g10";

    /** Replay count; the last iteration is measured. */
    int iterations = 2;

    /** Kernel-time noise fraction (0.2 = +-20%). */
    double timingErrorPct = 0.0;

    std::uint64_t seed = 42;

    /** Fraction of GPU memory weights may fill. */
    double weightWatermark = 0.85;

    /** 0|1 forces the unified page table off/on; -1 = the design's. */
    int uvmExtension = -1;

    /** Print the first N kernels of the instrumented program. */
    int listing = 0;
};

/** The config-file format. */
const SpecFormat<SimConfig>& simConfigFormat();

/** Parse a config file; malformed input is fatal (exit 1) with
 *  file/line diagnostics. */
SimConfig parseSimConfig(const std::string& path);

}  // namespace g10

#endif  // G10_API_SIM_CONFIG_H
