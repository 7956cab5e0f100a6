#include "sim_config.h"

#include "policies/registry.h"

namespace g10 {

const SpecFormat<SimConfig>&
simConfigFormat()
{
    using C = SimConfig;
    using T = SpecType;
    static const SpecFormat<C> format = [] {
        // Keys bind in table order: scale re-derives the platform
        // before the platform keys override it.
        SpecKey<C> scale = fieldKey(kScaleKey, &C::scaleDown);
        scale.set = [set = scale.set](C& c, const SpecValue& v) {
            set(c, v);
            c.sys = SystemConfig().scaledDown(c.scaleDown);
        };
        SpecFormat<C> f{"config", {}, {}};
        f.keys = {
            specKey<C>({"model", T::Word, {}, "BERT",
                        "BERT | ViT | Inceptionv3 | ResNet152 | SENet154"},
                       [](C& c, const SpecValue& v) {
                           c.model = modelKindOf(v);
                       }),
            fieldKey({"trace", T::Text, {}, "resnet.trace",
                      "saved .trace file (overrides model/batch)"},
                     &C::tracePath),
            fieldKey(kBatchKey, &C::batchSize),
            scale,
            designKey(&C::design, "registered design (see --list-designs)"),
            fieldKey(kIterationsKey, &C::iterations),
            fieldKey({"timing_error", T::Number, within(0, 1), "0.2",
                      "kernel-time noise fraction"},
                     &C::timingErrorPct),
            fieldKey(kSeedKey, &C::seed),
            fieldKey({"weight_watermark", T::Number, within(0.01, 1), "0.5",
                      "weight-placement cap (default 0.85)"},
                     &C::weightWatermark),
            fieldKey({"uvm_extension", T::Int, within(0, 1), "1",
                      "override the design's unified page table"},
                     &C::uvmExtension),
            fieldKey({"listing", T::Int, within(0, 1 << 20), "10",
                      "print the first N kernels of the plan the "
                      "design replays"},
                     &C::listing),
        };
        for (SpecKey<C>& k : platformKeys(&C::sys))
            f.keys.push_back(std::move(k));
        return f;
    }();
    return format;
}

SimConfig
parseSimConfig(const std::string& path)
{
    SimConfig cfg;
    readSpecFile(path, simConfigFormat(), cfg);
    return cfg;
}

}  // namespace g10
