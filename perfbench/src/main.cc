/**
 * @file
 * g10perf: one process of the benchmark; perfbench/run.py drives it.
 *
 *   g10perf --workload NAME --seed N --serve-spec FILE --fleet-spec FILE
 *           --reference
 *       prints the digest of a sequential reference run.
 *
 *   g10perf ... --expect DIGEST --seconds S [--trace 0|1] [--spans FILE]
 *       sets up (inputs plus one warm-up op), then runs ops back to
 *       back for S seconds, checking each op's simulated output against
 *       DIGEST, and prints the raw per-op samples as one JSON line.
 *       With --trace 1 every untraced op is followed by a traced one
 *       that records spans and per-layer metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"

#include "bench.h"

namespace perfbench {

HostSample
hostNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    HostSample s;
    s.userS = static_cast<double>(ru.ru_utime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    s.sysS = static_cast<double>(ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    s.minflt = ru.ru_minflt;
    s.maxRssKb = ru.ru_maxrss;
    return s;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

int
SpanLog::open(const std::string& name)
{
    spans_.push_back(Span{name, wallNow(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
SpanLog::close(int index)
{
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = wallNow();
    current_ = s.parent;
}

std::map<std::string, double>
SpanLog::selfSecondsByLayer() const
{
    // Children of one span never overlap (one thread records spans),
    // so the covered part is the sum of their durations.
    std::vector<double> childS(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            childS[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string& n = spans_[i].name;
        out[n.substr(0, n.find('.'))] +=
            spans_[i].end - spans_[i].start - childS[i];
    }
    return out;
}

void
SpanLog::writeJson(const std::string& path) const
{
    std::ofstream os(path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    os << "{\"schema\": \"g10perf.spans.v1\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": "
                      "%.9f, \"end_s\": %.9f, \"parent\": %d}",
                      i ? "," : "", i, s.name.c_str(), s.start - t0,
                      s.end - t0, s.parent);
        os << buf;
    }
    os << "\n], \"self_s\": {";
    bool first = true;
    for (const auto& [layer, self] : selfSecondsByLayer()) {
        os << (first ? "" : ", ") << "\"" << layer << "\": " << self;
        first = false;
    }
    os << "}}\n";
}

namespace {

struct Args
{
    std::string workload;
    bool reference = false;
    std::string expect;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
    WorkloadInputs inputs;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "g10perf: " << why << "\n"
              << "usage: g10perf --workload NAME --seed N --serve-spec FILE "
                 "--fleet-spec FILE\n"
                 "               (--reference | --expect DIGEST --seconds S "
                 "[--trace 0|1] [--spans FILE])\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--reference") {
            a.reference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.inputs.seed = std::stoull(v);
        else if (k == "--expect")
            a.expect = v;
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--serve-spec")
            a.inputs.serveSpecPath = v;
        else if (k == "--fleet-spec")
            a.inputs.fleetSpecPath = v;
        else
            usage("unknown argument " + k);
    }
    if (!a.reference && a.expect.empty())
        usage("one of --reference or --expect is required");
    return a;
}

/** Runs one op and checks its digest against the reference. */
class OpRunner
{
  public:
    OpRunner(Workload& wl, std::string expected)
        : wl_(wl), expected_(std::move(expected))
    {}

    /** Untraced op; false when it threw or its output mismatched. */
    bool
    untraced(std::ostream& row)
    {
        const HostSample h0 = hostNow();
        const double t0 = wallNow();
        try {
            wl_.run();
        } catch (const std::exception& e) {
            std::cerr << "g10perf: op failed: " << e.what() << "\n";
            return false;
        }
        const double wall = wallNow() - t0;
        const HostSample h1 = hostNow();
        char buf[160];
        std::snprintf(buf, sizeof buf, "[%.9f, %.6f, %.6f, %ld]", wall,
                      h1.cpuS() - h0.cpuS(), h1.sysS - h0.sysS,
                      h1.minflt - h0.minflt);
        row << buf;
        return check();
    }

    /** Traced op: its layer metrics and its wall time net of extras. */
    bool
    traced(SpanLog& log, std::ostream& row)
    {
        LayerMetrics m;
        double extraS = 0.0;
        const double t0 = wallNow();
        const int op = log.open("op");
        try {
            wl_.runTraced(log, &m, &extraS);
        } catch (const std::exception& e) {
            log.close(op);
            std::cerr << "g10perf: traced op failed: " << e.what() << "\n";
            return false;
        }
        log.close(op);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9f", wallNow() - t0 - extraS);
        row << "{\"net_s\": " << buf << ", \"layers\": {";
        bool first = true;
        for (const auto& [name, value] : m) {
            std::snprintf(buf, sizeof buf, "%.9g", value);
            row << (first ? "" : ", ") << "\"" << name << "\": " << buf;
            first = false;
        }
        row << "}}";
        return check();
    }

  private:
    bool
    check() const
    {
        const std::string got = wl_.digest();
        if (got == expected_)
            return true;
        std::cerr << "g10perf: output digest " << got << " != reference "
                  << expected_ << "\n";
        return false;
    }

    Workload& wl_;
    std::string expected_;
};

/**
 * One measuring process: set-up (inputs plus one warm-up op), then
 * ops until --seconds is spent. Prints one JSON line of raw samples;
 * perfbench/run.py pools them across processes.
 */
int
measure(Workload& wl, const Args& args, double t0)
{
    OpRunner runner(wl, args.expect);
    std::ostringstream warm;
    std::uint64_t attempted = 1;
    std::uint64_t failed = runner.untraced(warm) ? 0 : 1;
    const double setupS = wallNow() - t0;

    std::ostringstream ops, traced;
    std::size_t nOps = 0, nTraced = 0;
    SpanLog log;
    const double start = wallNow();
    double roundS = 0.0;
    std::size_t rounds = 0;
    do {
        std::ostringstream row;
        ++attempted;
        if (runner.untraced(row))
            ops << (nOps++ ? ", " : "") << row.str();
        else
            ++failed;
        if (args.trace) {
            row.str("");
            ++attempted;
            if (runner.traced(log, row))
                traced << (nTraced++ ? ", " : "") << row.str();
            else
                ++failed;
        }
        // Stop when the next op would more likely end past the budget
        // than before it.
        roundS = (wallNow() - start) / static_cast<double>(++rounds);
    } while (wallNow() - start + roundS / 2 < args.seconds &&
             failed * 2 <= attempted);

    if (!args.spans.empty())
        log.writeJson(args.spans);
    std::cout << "{\"setup_s\": " << setupS << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"peak_rss_mb\": "
              << static_cast<double>(hostNow().maxRssKb) / 1024.0
              << ", \"ops\": [" << ops.str() << "], \"traced\": ["
              << traced.str() << "], \"self_s\": {";
    bool first = true;
    for (const auto& [layer, self] : log.selfSecondsByLayer()) {
        std::cout << (first ? "" : ", ") << "\"" << layer << "\": " << self;
        first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    g10::setLogLevel(g10::LogLevel::Warn);
    std::cout.precision(9);
    const double t0 = wallNow();
    const Args args = parseArgs(argc, argv);
    try {
        std::unique_ptr<Workload> wl =
            makeWorkload(args.workload, args.inputs);
        if (!wl)
            usage("unknown workload " + args.workload);
        if (!args.reference)
            return measure(*wl, args, t0);
        std::cout << "{\"reference\": \"" << wl->reference() << "\"}"
                  << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "g10perf: " << e.what() << "\n";
        return 1;
    }
}
