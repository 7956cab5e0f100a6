#include "arrival.h"

#include <cmath>

#include "common/logging.h"

namespace g10 {

const char*
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Bursty: return "bursty";
      case ArrivalKind::Trace: return "trace";
    }
    return "?";
}

bool
arrivalKindFromName(const std::string& name, ArrivalKind* out)
{
    if (name == "poisson")
        *out = ArrivalKind::Poisson;
    else if (name == "bursty")
        *out = ArrivalKind::Bursty;
    else if (name == "trace")
        *out = ArrivalKind::Trace;
    else
        return false;
    return true;
}

double
unitInterval(std::mt19937_64& engine)
{
    // Top 53 bits of one draw, shifted into (0, 1]: the +1 excludes 0
    // so -log(u) is always finite. mt19937_64's output sequence is
    // fully specified by the standard, so this is portable.
    return static_cast<double>((engine() >> 11) + 1) * 0x1p-53;
}

std::vector<TimeNs>
generateArrivals(const ArrivalSpec& spec, double rate_per_sec,
                 int count, std::uint64_t seed)
{
    if (spec.kind == ArrivalKind::Trace)
        fatal("generateArrivals: trace arrivals replay the parsed "
              "file; they are not generated");
    if (rate_per_sec <= 0.0)
        fatal("arrival rate must be > 0, got %g", rate_per_sec);
    if (count < 1)
        fatal("arrival count must be >= 1, got %d", count);
    if (spec.kind == ArrivalKind::Bursty &&
        (spec.burstOnSec <= 0.0 || spec.burstOffSec < 0.0))
        fatal("bursty arrivals need burst_on > 0 and burst_off >= 0");

    std::mt19937_64 engine(seed);
    std::vector<TimeNs> out;
    out.reserve(static_cast<std::size_t>(count));

    // Exponential inter-arrival gaps accumulate on the process's
    // *active* clock; Bursty then maps active time onto the wall
    // clock by inserting the OFF windows.
    double active_sec = 0.0;
    for (int i = 0; i < count; ++i) {
        active_sec += -std::log(unitInterval(engine)) / rate_per_sec;
        double wall_sec = active_sec;
        if (spec.kind == ArrivalKind::Bursty) {
            double cycles = std::floor(active_sec / spec.burstOnSec);
            wall_sec = cycles * (spec.burstOnSec + spec.burstOffSec) +
                       (active_sec - cycles * spec.burstOnSec);
        }
        out.push_back(static_cast<TimeNs>(wall_sec * 1e9));
    }
    return out;
}

const SpecFormat<std::vector<TraceRequest>>&
arrivalTraceFormat()
{
    using Trace = std::vector<TraceRequest>;
    using R = TraceRequest;
    static const SpecFormat<Trace> format = [] {
        SpecFormat<Trace> f{"arrival trace", {}, {}};
        f.lines.push_back(specLine<Trace, R>(
            {"req", "<arrival_ms> <Model>", "request",
             "one request; arrival times are non-decreasing"},
            {
                fieldKey(kBatchKey, &R::batchSize),
                fieldKey(kIterationsKey, &R::iterations),
                fieldKey(kPriorityKey, &R::priority),
            },
            [](Trace& out, R req, const SpecLineArgs& args) {
                req.arrivalNs = static_cast<TimeNs>(
                    args.number(0, "arrival time", within(0)) *
                    static_cast<double>(MSEC));
                req.model = modelKindOf(args.head(1, "model"));
                if (!out.empty() && req.arrivalNs < out.back().arrivalNs)
                    args.at.fail("arrival times must be non-decreasing");
                out.push_back(req);
            }));
        return f;
    }();
    return format;
}

std::vector<TraceRequest>
parseArrivalTrace(const std::string& path)
{
    std::vector<TraceRequest> out;
    readSpecFile(path, arrivalTraceFormat(), out);
    if (out.empty())
        SpecLoc{path}.fail("arrival trace defines no requests");
    return out;
}

}  // namespace g10
