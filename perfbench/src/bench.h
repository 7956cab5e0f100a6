/**
 * @file
 * Shared pieces of the g10perf benchmark program: host clocks, a result digest,
 * in-memory spans for the traced run, and the Workload interface the
 * four named workloads implement.
 *
 * Every time here is host (simulator) time. Simulated time only ever
 * enters through a digest, which is how each op's output is checked.
 */

#ifndef G10_PERFBENCH_BENCH_H
#define G10_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in seconds. */
inline double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** Process-wide host counters (all threads): CPU, faults, peak RSS. */
struct HostSample
{
    double userS = 0.0;
    double sysS = 0.0;
    long minflt = 0;
    long maxRssKb = 0;

    double cpuS() const { return userS + sysS; }
};

HostSample hostNow();

/** Linear-interpolated quantile @p q in [0, 1] of @p v (0 if empty). */
double quantile(std::vector<double> v, double q);

/** FNV-1a over a canonical byte stream of simulated results. */
class Digest
{
  public:
    Digest& bytes(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
        return *this;
    }
    Digest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
    Digest& i64(std::int64_t v) { return bytes(&v, sizeof v); }
    Digest& str(const std::string& s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::string hex() const;

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/**
 * Spans of the traced run: name, start, end and the enclosing span,
 * kept in memory and written out when the run ends. A null log (the
 * timed runs) records nothing.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    int open(const std::string& name);
    void close(int index);

    /**
     * Self time per layer: each span's duration minus what its child
     * spans cover, summed by the name's prefix before the first '.'.
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as JSON (seconds relative to the first). */
    void writeJson(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    int current_ = -1;
};

/**
 * Run @p fn inside a span named @p name when @p log is non-null;
 * returns its wall seconds either way.
 */
template <typename Fn>
double
timed(SpanLog* log, const std::string& name, Fn&& fn)
{
    const int idx = log ? log->open(name) : -1;
    const double t0 = wallNow();
    fn();
    const double dt = wallNow() - t0;
    if (log)
        log->close(idx);
    return dt;
}

/** Per-layer metrics of one traced op, by metric name. */
using LayerMetrics = std::map<std::string, double>;

/** One named workload (see perfbench/README.md for the list). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Digest of a sequential reference run (one worker, no
     * speculation) on the same inputs; part of set-up.
     */
    virtual std::string reference() = 0;

    /** The timed op. Its results stay readable through digest(). */
    virtual void run() = 0;

    /**
     * The op once more with per-layer instrumentation around the
     * calls into each module. Fills @p out; @p extraS receives the
     * wall seconds of work done only to measure or verify (staged
     * recompiles, a second untraced replay), so it can be taken out
     * of the tracing-overhead ratio.
     */
    virtual void runTraced(SpanLog& log, LayerMetrics* out,
                           double* extraS) = 0;

    /** Digest of the last run()'s or runTraced()'s simulated output. */
    virtual std::string digest() const = 0;
};

/** Inputs the workloads read, generated from the seed by run.py. */
struct WorkloadInputs
{
    std::uint64_t seed = 42;
    std::string serveSpecPath;  ///< knee_search
    std::string fleetSpecPath;  ///< fleet_trace
};

/**
 * The workload called @p name with its inputs parsed (part of set-up);
 * nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadInputs& in);

}  // namespace perfbench

#endif  // G10_PERFBENCH_BENCH_H
