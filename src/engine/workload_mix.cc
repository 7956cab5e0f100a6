#include "workload_mix.h"

namespace g10 {

const char*
mixSchedName(MixSched sched)
{
    switch (sched) {
      case MixSched::RoundRobin: return "round-robin";
      case MixSched::Priority: return "priority";
    }
    return "?";
}

const SpecFormat<WorkloadMix>&
mixFileFormat()
{
    using M = WorkloadMix;
    using J = JobSpec;
    using T = SpecType;
    static const SpecFormat<M> format = [] {
        SpecFormat<M> f{"mix file", {}, {}};
        f.keys = {
            fieldKey(kScaleKey, &M::scaleDown),
            specKey<M>({"sched", T::Word, {}, "priority",
                        "roundrobin | priority"},
                       [](M& m, const SpecValue& v) {
                           if (v.text == "roundrobin" ||
                               v.text == "round-robin")
                               m.sched = MixSched::RoundRobin;
                           else if (v.text == "priority")
                               m.sched = MixSched::Priority;
                           else
                               v.unknown(v.key.c_str(),
                                         "roundrobin | priority");
                       }),
            fieldKey(kSeedKey, &M::seed),
            fieldKey({"isolated", T::Int, {}, "0",
                      "nonzero: per-job isolated baselines"},
                     &M::isolatedBaseline),
        };
        for (SpecKey<M>& k : platformKeys(&M::sys))
            f.keys.push_back(std::move(k));
        f.lines.push_back(specLine<M, J>(
            {"job", "<Model>", "job", "one tenant"},
            {
                fieldKey(kBatchKey, &J::batchSize),
                designKey(&J::design, "memory-management design"),
                fieldKey(kPriorityKey, &J::priority),
                specKey<J>({"arrival_ms", T::Number, within(0), "2",
                            "arrival time"},
                           [](J& j, const SpecValue& v) {
                               j.arrivalNs = static_cast<TimeNs>(
                                   v.d * static_cast<double>(MSEC));
                           }),
                fieldKey(kIterationsKey, &J::iterations),
                fieldKey(kWeightKey, &J::memWeight),
                fieldKey(kNameKey, &J::name),
            },
            [](M& m, J job, const SpecLineArgs& args) {
                job.model = modelKindOf(args.head(0, "model"));
                if (job.batchSize <= 0)
                    job.batchSize = paperBatchSize(job.model);
                m.jobs.push_back(std::move(job));
            }));
        return f;
    }();
    return format;
}

WorkloadMix
parseMixFile(const std::string& path)
{
    WorkloadMix mix;
    readSpecFile(path, mixFileFormat(), mix);
    if (mix.jobs.empty())
        SpecLoc{path}.fail("mix defines no jobs");
    return mix;
}

}  // namespace g10
