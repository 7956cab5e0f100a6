/**
 * @file
 * Shared argv handling for the g10 CLIs: the common flags
 * (--help, --format <f>, --list-designs, and the observability
 * surface --trace/--metrics/--log-level), `--demo [scale]` and
 * `--workers N`, tool-specific boolean and value flags, scenario
 * override flags, and positional collection — so the tools cannot
 * drift apart.
 *
 * An override flag sets one key of the tool's spec format: its value
 * binds through that key's SpecKey, so the flag takes the key's
 * grammar, choices and diagnostics, and its --help line is the key's
 * help text. kServeOverrides and kFleetOverrides below are the only
 * place a flag is tied to its key.
 *
 * runMixCli is the one mix run behind `g10sim --mix` and `g10multi`.
 */

#ifndef G10_TOOLS_CLI_UTIL_H
#define G10_TOOLS_CLI_UTIL_H

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "api/report.h"
#include "common/logging.h"
#include "common/parse_util.h"
#include "common/spec_reader.h"
#include "engine/multi_tenant.h"
#include "obs/chrome_trace.h"
#include "obs/tracer.h"

namespace g10::tools {

/** A flag that overrides one key of the tool's spec format. */
struct OverrideFlag
{
    const char* flag;
    const char* key;
};

/** g10serve: serve-file keys settable from the command line. */
inline const std::vector<OverrideFlag> kServeOverrides{
    {"--partition", "partition_policy"},
    {"--sweep-cache", "sweep_cache"},
    {"--speculate", "speculate"},
};

/** g10fleet: fleet-file keys settable from the command line.
 *  `--placement` replaces the file's placements list. */
inline const std::vector<OverrideFlag> kFleetOverrides{
    {"--placement", "placements"},
    {"--speculate", "speculate"},
};

/** Parsed command line. */
struct CliArgs
{
    ReportFormat format = ReportFormat::Table;
    bool help = false;
    bool listDesigns = false;

    /** `--trace <path>`: Chrome trace-event output; empty = off. */
    std::string tracePath;

    /** `--metrics`: print a g10.metrics.v1 document after the report. */
    bool metrics = false;

    /** `--workers N`; 0 = one per hardware thread. */
    unsigned workers = 0;

    /** The scale of `--demo [scale]` (range of kScaleKey); 0 = the
     *  tool's default. */
    unsigned demoScale = 0;

    /** Tool-specific boolean flags seen (e.g. "--mix", "--demo"). */
    std::set<std::string> flags;

    /** Value and override flags seen (e.g. "--attribution-diff"). */
    std::map<std::string, std::string> values;

    std::vector<std::string> positional;

    /** Non-empty when an unknown option was seen (caller prints usage). */
    std::string error;

    bool has(const std::string& flag) const { return flags.count(flag); }

    /** Value of a value flag; @p def when the flag was not given. */
    std::string
    valueOf(const std::string& flag, const std::string& def = "") const
    {
        auto it = values.find(flag);
        return it != values.end() ? it->second : def;
    }
};

/**
 * Parse argv. Flags may appear in any position; `--format`, `--trace`,
 * and `--log-level` consume the next argument (fatal when missing or
 * invalid; `--log-level` takes effect immediately), as does every
 * flag in @p valueFlags and @p overrides. Options outside the common
 * set, @p boolFlags, @p valueFlags and @p overrides set `error`
 * instead of aborting so the tool can print its own usage text.
 *
 * Two tool flags mean the same everywhere: `--workers` (in
 * @p valueFlags) must be a positive integer, and `--demo` (in
 * @p boolFlags) takes the one positional argument, if any, as its
 * scale.
 */
inline CliArgs
parseCliArgs(int argc, char** argv,
             const std::set<std::string>& boolFlags = {},
             const std::set<std::string>& valueFlags = {},
             const std::vector<OverrideFlag>& overrides = {})
{
    auto isOverride = [&](const std::string& arg) {
        return std::any_of(overrides.begin(), overrides.end(),
                           [&](const OverrideFlag& o) {
                               return arg == o.flag;
                           });
    };
    CliArgs out;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            out.help = true;
        } else if (arg == "--format") {
            if (i + 1 >= argc)
                fatal("--format needs a value (table|json|csv)");
            out.format = reportFormatFromName(argv[++i]);
        } else if (arg == "--list-designs") {
            out.listDesigns = true;
        } else if (arg == "--trace") {
            if (i + 1 >= argc)
                fatal("--trace needs an output path");
            out.tracePath = argv[++i];
        } else if (arg == "--metrics") {
            out.metrics = true;
        } else if (arg == "--log-level") {
            if (i + 1 >= argc)
                fatal("--log-level needs a value "
                      "(silent|warn|info|debug)");
            LogLevel lvl = LogLevel::Warn;
            if (!logLevelFromName(argv[++i], &lvl))
                fatal("unknown --log-level '%s' "
                      "(silent|warn|info|debug)",
                      argv[i]);
            setLogLevel(lvl);
        } else if (boolFlags.count(arg)) {
            out.flags.insert(arg);
        } else if (valueFlags.count(arg) || isOverride(arg)) {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            out.values[arg] = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            out.error = "unknown option '" + arg + "'";
            return out;
        } else {
            out.positional.push_back(arg);
        }
    }

    if (out.values.count("--workers")) {
        long long v = 0;
        if (!parseIntStrict(out.values["--workers"], &v) || v < 1)
            fatal("--workers must be a positive integer, got '%s'",
                  out.values["--workers"].c_str());
        if (v > std::numeric_limits<unsigned>::max())
            fatal("--workers is too large, got '%s'",
                  out.values["--workers"].c_str());
        out.workers = static_cast<unsigned>(v);
    }
    if (out.has("--demo") && !out.positional.empty()) {
        if (out.positional.size() > 1) {
            out.error = "--demo takes at most one scale";
            return out;
        }
        out.demoScale = static_cast<unsigned>(
            parseSpecValue(kScaleKey, SpecLoc{"--demo"},
                           out.positional[0])
                .i);
        out.positional.clear();
    }
    return out;
}

/** The key @p o overrides in @p format. */
template <class S>
const SpecKey<S>&
overrideKey(const SpecFormat<S>& format, const OverrideFlag& o)
{
    for (const SpecKey<S>& k : format.keys)
        if (std::string(k.name) == o.key)
            return k;
    panic("%s overrides no key '%s' of the %s", o.flag, o.key,
          format.what);
}

/** Print one --help line per override flag, from its key:
 *  `--flag <sample>   <key>: <help>`. */
template <class S>
void
printOverrideFlags(std::ostream& os, const SpecFormat<S>& format,
                   const std::vector<OverrideFlag>& overrides)
{
    for (const OverrideFlag& o : overrides) {
        const SpecKey<S>& k = overrideKey(format, o);
        std::string lhs = std::string(o.flag) + " " + k.sample;
        lhs.resize(std::max<std::size_t>(lhs.size(), 24), ' ');
        os << "  " << lhs << " " << k.name << ": " << k.help << "\n";
    }
}

/** Bind every override flag given on the command line into @p spec
 *  through its key; a malformed value fails as `<flag>: ...`. */
template <class S>
void
applyOverrides(S& spec, const SpecFormat<S>& format,
               const std::vector<OverrideFlag>& overrides,
               const CliArgs& args)
{
    for (const OverrideFlag& o : overrides) {
        auto it = args.values.find(o.flag);
        if (it != args.values.end())
            bindSpecKey(spec, overrideKey(format, o), it->second,
                        SpecLoc{o.flag});
    }
}

/** The observability boilerplate shared by the CLIs: a buffering sink
 *  + registry, handed to producers as one Tracer when any of
 *  --trace/--metrics (or g10sim's --attribution) is active. */
struct CliObservers
{
    MemoryTraceSink sink;
    CounterRegistry counters;
    Tracer tracer{&sink, &counters};

    bool wantEvents = false;    ///< collect the event stream
    bool wantCounters = false;  ///< print metrics afterwards

    /** nullptr when observability is off — producers stay on the
     *  zero-overhead path. */
    Tracer* tracerOrNull()
    {
        return wantEvents || wantCounters ? &tracer : nullptr;
    }
};

/** Write the collected events as Chrome trace-event JSON to @p path
 *  (fatal when the file cannot be opened). */
inline void
writeTraceFile(const std::string& path, const MemoryTraceSink& sink,
               const std::map<int, std::string>& processNames = {})
{
    std::ofstream f(path);
    if (!f)
        fatal("cannot open trace output '%s'", path.c_str());
    writeChromeTrace(f, sink.events(), processNames);
    if (!f)
        fatal("error writing trace output '%s'", path.c_str());
    inform("wrote %zu trace events to %s", sink.events().size(),
           path.c_str());
}

/**
 * Run @p mix and print it in args.format, with --trace (one track
 * group per job) and --metrics; @p tool heads the table report.
 * Returns the printMixResult exit code.
 */
inline int
runMixCli(const WorkloadMix& mix, const CliArgs& args, const char* tool)
{
    if (args.format == ReportFormat::Table)
        std::cout << "# " << tool << ": " << mix.jobs.size()
                  << " jobs on one GPU+SSD, scale 1/" << mix.scaleDown
                  << ", sched " << mixSchedName(mix.sched) << "\n\n";
    MultiTenantSim sim(mix);

    CliObservers obs;
    obs.wantEvents = !args.tracePath.empty();
    obs.wantCounters = args.metrics;
    sim.setTracer(obs.tracerOrNull());

    MixResult res = sim.run();
    int code = printMixResult(std::cout, res, args.format);
    if (!args.tracePath.empty()) {
        std::map<int, std::string> names;
        for (std::size_t i = 0; i < res.jobs.size(); ++i)
            names[static_cast<int>(i)] = res.jobs[i].name;
        writeTraceFile(args.tracePath, obs.sink, names);
    }
    if (args.metrics)
        writeMetricsJson(std::cout, obs.counters);
    return code;
}

}  // namespace g10::tools

#endif  // G10_TOOLS_CLI_UTIL_H
