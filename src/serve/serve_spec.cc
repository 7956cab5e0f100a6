#include "serve_spec.h"

#include "policies/registry.h"

namespace g10 {

const char*
partitionPolicyName(PartitionPolicy policy)
{
    switch (policy) {
      case PartitionPolicy::Static:
        return "static";
      case PartitionPolicy::Proportional:
        return "proportional";
      case PartitionPolicy::OnDemand:
        return "ondemand";
    }
    return "?";
}

bool
partitionPolicyFromName(const std::string& name, PartitionPolicy* out)
{
    if (name == "static")
        *out = PartitionPolicy::Static;
    else if (name == "proportional")
        *out = PartitionPolicy::Proportional;
    else if (name == "ondemand")
        *out = PartitionPolicy::OnDemand;
    else
        return false;
    return true;
}

ServeJobClass
resolvedClass(ServeJobClass cls)
{
    if (cls.batchSize <= 0)
        cls.batchSize = paperBatchSize(cls.model);
    if (cls.name.empty())
        cls.name = std::string(modelName(cls.model)) + "-" +
                   std::to_string(cls.batchSize);
    return cls;
}

std::vector<ServeJobClass>
demoClassMix()
{
    std::vector<ServeJobClass> mix(3);
    mix[0].batchSize = 512;
    mix[1].batchSize = 256;
    mix[1].weight = 2.0;
    mix[2].model = ModelKind::BertBase;
    for (ServeJobClass& c : mix)
        c = resolvedClass(c);
    return mix;
}

SpecFormat<ScenarioSpec>
scenarioFormat(bool traceArrivals)
{
    using S = ScenarioSpec;
    using T = SpecType;
    const char* arrivals =
        traceArrivals ? "poisson | bursty | trace" : "poisson | bursty";
    SpecFormat<S> f{"scenario", {}, {}};
    f.keys = {
        fieldKey(kScaleKey, &S::scaleDown),
        fieldKey(kSeedKey, &S::seed),
        fieldKey({"slots", T::Int, within(1), "3",
                  "concurrent partition slots"},
                 &S::slots),
        specKey<S>({"partition_policy", T::Word, {}, "ondemand",
                    "static | proportional | ondemand"},
                   [](S& s, const SpecValue& v) {
                       if (!partitionPolicyFromName(v.text,
                                                    &s.partitionPolicy))
                           v.unknown(v.key.c_str(),
                                     "static | proportional | ondemand");
                   }),
        fieldKey({"resize_hysteresis", T::Number, within(0, 1, true), "0.5",
                  "min relative growth worth a resize"},
                 &S::resizeHysteresis),
        fieldKey({"queue", T::Int, within(0), "4", "admission queue bound"},
                 &S::queueCapacity),
        specKey<S>({"admission", T::Word, {}, "sjf", "fifo | sjf | priority"},
                   [](S& s, const SpecValue& v) {
                       if (!admitPolicyFromName(v.text, &s.admit))
                           v.unknown(v.key.c_str(), "fifo | sjf | priority");
                   }),
        specKey<S>({"starvation_ms", T::Number, {}, "250",
                    "priority starvation guard (<= 0: off)"},
                   [](S& s, const SpecValue& v) {
                       s.starvationNs = static_cast<TimeNs>(
                           v.d * static_cast<double>(MSEC));
                   }),
        fieldKey({"slo_factor", T::Number, above(0), "2.5",
                  "SLO = factor x unloaded latency"},
                 &S::sloFactor),
        fieldKey({"requests", T::Int, within(1), "12", "offered requests"},
                 &S::requests),
        specKey<S>({"arrival", T::Word, {}, "bursty", arrivals},
                   [arrivals, traceArrivals](S& s, const SpecValue& v) {
                       if (!arrivalKindFromName(v.text, &s.arrival.kind))
                           v.unknown(v.key.c_str(), arrivals);
                       if (!traceArrivals &&
                           s.arrival.kind == ArrivalKind::Trace)
                           v.at.fail("fleet arrivals must be poisson or "
                                     "bursty (trace arrivals are "
                                     "per-node)");
                   }),
        specKey<S>({"burst_on_ms", T::Number, above(0), "20",
                    "bursty ON window"},
                   [](S& s, const SpecValue& v) {
                       s.arrival.burstOnSec = v.d / 1e3;
                   }),
        specKey<S>({"burst_off_ms", T::Number, within(0), "100",
                    "bursty OFF window"},
                   [](S& s, const SpecValue& v) {
                       s.arrival.burstOffSec = v.d / 1e3;
                   }),
        fieldKey({"rate_lo", T::Number, above(0), "0.2",
                  "first knee-search probe rate (default 0.05)"},
                 &S::rateLo),
        fieldKey({"rate_hi", T::Number, above(0), "9",
                  "knee-search ceiling (default: unbounded)"},
                 &S::rateHi),
        fieldKey({"rate_probes", T::Int, within(2), "6",
                  "max knee-search probes per lane"},
                 &S::rateProbes),
        fieldKey({"speculate", T::OnOff, {}, "off",
                  "speculative parallel knee probes (wall-clock only)"},
                 &S::speculativeProbes),
    };
    for (SpecKey<S>& k : platformKeys(&S::sys))
        f.keys.push_back(std::move(k));

    using C = ServeJobClass;
    f.lines.push_back(specLine<S, C>(
        {"class", "<Model>", "class", "one job class of the arrival mix"},
        {
            fieldKey(kBatchKey, &C::batchSize),
            fieldKey(kIterationsKey, &C::iterations),
            fieldKey(kPriorityKey, &C::priority),
            fieldKey(kWeightKey, &C::weight),
            fieldKey(kNameKey, &C::name),
        },
        [](S& s, C cls, const SpecLineArgs& args) {
            cls.model = modelKindOf(args.head(0, "model"));
            s.classes.push_back(resolvedClass(cls));
        }));
    return f;
}

const SpecFormat<ServeSpec>&
serveFileFormat()
{
    using S = ServeSpec;
    using T = SpecType;
    static const SpecFormat<S> format = [] {
        SpecFormat<S> f =
            inheritFormat<S>("serve file", scenarioFormat(true));
        f.keys.push_back(fieldKey({"max_active", T::Int, within(0), "4",
                                   "elastic concurrency cap (0 = derive)"},
                                  &S::maxActive));
        f.keys.push_back(specKey<S>(
            {"trace", T::Text, {}, "requests.arr",
             "arrival-trace file (arrival = trace)"},
            [](S& s, const SpecValue& v) {
                s.arrival.tracePath = v.text;
            }));
        f.keys.push_back(specKey<S>(
            {"rates", T::Numbers, above(0), "5,10,20",
             "offered req/s sweep (trace: multipliers), or auto", "auto",
             true},
            [](S& s, const SpecValue& v) {
                s.ratesAuto = v.keyword;
                s.rates = v.numbers;
            }));
        f.keys.push_back(
            fieldKey({"sweep_cache", T::OnOff, {}, "off",
                      "cross-probe plan-compile cache (wall-clock only)"},
                     &S::sweepPlanCache));
        f.keys.push_back(specKey<S>(
            {"designs", T::Words, {}, "baseuvm,g10",
             "designs to sweep (registered names)", nullptr, true},
            [](S& s, const SpecValue& v) {
                PolicyRegistry::instance().resolve(v);
                s.designs.push_back(v.text);
            }));
        return f;
    }();
    return format;
}

void
checkScenarioSpec(const ScenarioSpec& spec, const SpecLoc& at)
{
    if (spec.requests < 1)
        at.fail("requests must be >= 1");
    if (spec.rateLo > 0.0 && spec.rateHi > 0.0 && spec.rateHi < spec.rateLo)
        at.fail("rate_hi must be >= rate_lo");
}

void
checkServeSpec(const ServeSpec& spec, const SpecLoc& at)
{
    if (spec.designs.empty())
        at.fail("serve sweep needs at least one design");
    if (spec.rates.empty() && !spec.ratesAuto)
        at.fail("serve sweep needs at least one arrival rate (or "
                "rates = auto)");
    if (spec.slots < 1)
        at.fail("serve sweep needs slots >= 1");
    if (spec.maxActive > 0 && spec.maxActive < spec.slots)
        at.fail("max_active (%d) must be >= slots (%d)", spec.maxActive,
                spec.slots);
    checkScenarioSpec(spec, at);
    if (spec.arrival.kind == ArrivalKind::Trace) {
        if (spec.arrival.tracePath.empty())
            at.fail("'arrival = trace' needs 'trace = <file>'");
        if (!spec.classes.empty())
            at.fail("'class =' lines are only for poisson/bursty "
                    "arrivals (trace files carry their own requests)");
    } else if (spec.classes.empty()) {
        at.fail("serve sweep needs at least one job class");
    }
}

ServeSpec
parseServeFile(const std::string& path)
{
    ServeSpec spec;
    readSpecFile(path, serveFileFormat(), spec);
    checkServeSpec(spec, SpecLoc{path});
    return spec;
}

ServeSpec
demoServeSpec(unsigned scale)
{
    ServeSpec spec;
    spec.scaleDown = scale;
    spec.slots = 2;
    spec.queueCapacity = 4;
    spec.requests = 12;
    spec.rates = {0.2, 0.6, 1.8};
    spec.designs = {"baseuvm", "deepum", "g10"};
    spec.classes = demoClassMix();
    return spec;
}

}  // namespace g10
