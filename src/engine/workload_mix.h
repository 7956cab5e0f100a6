/**
 * @file
 * Multi-tenant workload descriptions: one JobSpec per co-located DNN
 * training job, a WorkloadMix grouping N of them on one shared
 * GPU + host DRAM + SSD platform, and a strict `key = value` mix-file
 * parser for the CLI (`g10multi <mix>` / `g10sim --mix <mix>`).
 */

#ifndef G10_ENGINE_WORKLOAD_MIX_H
#define G10_ENGINE_WORKLOAD_MIX_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/spec_reader.h"
#include "common/system_config.h"
#include "common/types.h"
#include "models/model_zoo.h"
#include "policies/registry.h"

namespace g10 {

/** One tenant: a DNN training job entering the shared machine. */
struct JobSpec
{
    /** Display name; defaults to "<model>-<batch>#<index>". */
    std::string name;

    ModelKind model = ModelKind::ResNet152;

    /** Paper-scale batch size; 0 = the model's Fig. 11 batch. */
    int batchSize = 0;

    /**
     * Memory-management design this job runs under, by PolicyRegistry
     * name (built-in or registered custom policy).
     */
    std::string design = "g10";

    /**
     * Scheduling weight (>= 1). Under MixSched::Priority a job with
     * priority p receives ~p times the kernel-interleaving share of a
     * priority-1 job (stride scheduling over the jobs' virtual times).
     */
    int priority = 1;

    /** Simulated time at which the job arrives. */
    TimeNs arrivalNs = 0;

    /** Training iterations to replay; the last one is measured. */
    int iterations = 2;

    /**
     * Relative share of the partitioned GPU/host memory (normalized
     * across the mix). 1.0 everywhere = equal split.
     */
    double memWeight = 1.0;
};

/** How the engine interleaves kernels across tenants. */
enum class MixSched
{
    RoundRobin,  ///< fair: always step the job furthest behind in time
    Priority,    ///< stride scheduling weighted by JobSpec::priority
};

/** Display name for a scheduling mode. */
const char* mixSchedName(MixSched sched);

/** N jobs consolidated onto one simulated machine. */
struct WorkloadMix
{
    std::vector<JobSpec> jobs;

    /** Platform before scaling (Table 2 defaults). */
    SystemConfig sys;

    /** Divide batches and capacities by this factor (1 = paper scale). */
    unsigned scaleDown = 16;

    MixSched sched = MixSched::RoundRobin;

    /** Base RNG seed; job i derives seed + i. */
    std::uint64_t seed = 42;

    /**
     * Also run every job alone on the full (unpartitioned) machine to
     * report per-job slowdown under consolidation.
     */
    bool isolatedBaseline = true;
};

/** The mix-file format (`g10multi --help` lists the keys). */
const SpecFormat<WorkloadMix>& mixFileFormat();

/**
 * Parse a mix file (mixFileFormat()). Unknown keys, malformed values,
 * and empty mixes are fatal (exit 1) with file/line diagnostics.
 * Example:
 *
 *   scale = 16
 *   sched = priority
 *   job = ResNet152 batch=512 design=g10 priority=1 arrival_ms=0
 *   job = BERT batch=128 design=g10 priority=2 iterations=2 weight=1.5
 */
WorkloadMix parseMixFile(const std::string& path);

}  // namespace g10

#endif  // G10_ENGINE_WORKLOAD_MIX_H
