/** @file Spec-reader tests: one parameterized case per key-table entry
 *  of every `key = value` format (serve, fleet, mix, g10sim config,
 *  `.arr`), plus the platform-key ranges every format now shares. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "api/sim_config.h"
#include "engine/workload_mix.h"
#include "fleet/fleet_spec.h"
#include "serve/arrival.h"
#include "serve/serve_spec.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

using test::withKey;
using test::writeSpecLines;

/** One table entry of one format, with a file that accepts it. */
struct KeyCase
{
    std::string id;  ///< "<format>_<key>" or "<format>_<line>_<attr>"
    SpecKeyInfo info;

    /** A valid file without the key. */
    std::vector<std::string> base;

    /** Empty for scalar keys; else the payload line the attribute is
     *  appended to ("class = ResNet152"). */
    std::string line;

    std::function<void(const std::string&)> parse;

    /** The file with the entry set to @p value, and its line number. */
    std::vector<std::string> with(const std::string& value,
                                  std::size_t* lineno) const
    {
        std::vector<std::string> out =
            line.empty() ? withKey(base, info.name, value) : base;
        if (!line.empty())
            out.push_back(line + " " + info.name + "=" + value);
        *lineno = out.size();
        return out;
    }
};

void
PrintTo(const KeyCase& c, std::ostream* os)
{
    *os << c.id;
}

template <class S>
void
addCases(std::vector<KeyCase>* out, const char* format,
         const SpecFormat<S>& fmt, std::vector<std::string> base,
         const std::vector<std::string>& lineHeads,
         std::function<void(const std::string&)> parse)
{
    for (const SpecKeyInfo& k : fmt.keys)
        out->push_back({std::string(format) + "_" + k.name, k, base, "",
                        parse});
    for (std::size_t l = 0; l < fmt.lines.size(); ++l)
        for (const SpecKeyInfo& k : fmt.lines[l].attrs)
            out->push_back({std::string(format) + "_" +
                                fmt.lines[l].name + "_" + k.name,
                            k, base, lineHeads.at(l), parse});
}

std::vector<KeyCase>
allKeyCases()
{
    std::vector<KeyCase> out;
    addCases(&out, "serve", serveFileFormat(),
             {"rates = 1", "designs = g10", "class = ResNet152"},
             {"class = ResNet152"},
             [](const std::string& p) { parseServeFile(p); });
    addCases(&out, "fleet", fleetFileFormat(),
             {"rate = 1", "placements = jsq", "class = ResNet152",
              "node = n0"},
             {"class = ResNet152", "node = extra"},
             [](const std::string& p) { parseFleetFile(p); });
    addCases(&out, "mix", mixFileFormat(), {"job = BERT"},
             {"job = BERT"},
             [](const std::string& p) { parseMixFile(p); });
    addCases(&out, "config", simConfigFormat(), {}, {},
             [](const std::string& p) { parseSimConfig(p); });
    addCases(&out, "arr", arrivalTraceFormat(), {"req = 0 ResNet152"},
             {"req = 5 BERT"},
             [](const std::string& p) { parseArrivalTrace(p); });
    return out;
}

/** Escape regex metacharacters of a temp path. */
std::string
pathRegex(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (std::string("\\.^$|()[]{}*+?").find(c) != std::string::npos)
            out += '\\';
        out += c;
    }
    return out;
}

/** A value of @p info's type that fails to parse; empty when every
 *  token is accepted (Text). */
std::string
malformedValue(const SpecKeyInfo& info)
{
    switch (info.type) {
      case SpecType::Int: return "12x";
      case SpecType::Number: return "fast";
      case SpecType::OnOff: return "maybe";
      case SpecType::Word:
      case SpecType::Words: return "no_such_value";
      case SpecType::Numbers: return "1,fast";
      case SpecType::Text: return "";
    }
    return "";
}

/** A well-formed value outside @p info's range; empty when the range
 *  is unbounded. */
std::string
outOfRangeValue(const SpecKeyInfo& info)
{
    const SpecRange& r = info.range;
    const bool numeric = info.type == SpecType::Int ||
                         info.type == SpecType::Number ||
                         info.type == SpecType::Numbers;
    double v = 0.0;
    if (!numeric)
        return "";
    if (std::isfinite(r.lo))
        v = r.lo - 1.0;
    else if (std::isfinite(r.hi))
        v = r.hi + 1.0;
    else
        return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  info.type == SpecType::Int ? "%.0f" : "%.15g", v);
    return buf;
}

class SpecKeyTable : public ::testing::TestWithParam<KeyCase>
{
  protected:
    /** The file with the entry set to @p value must exit 1 naming its
     *  path:line and @p what. */
    void expectRejected(const std::string& value, const std::string& what,
                        const char* tag)
    {
        const KeyCase& c = GetParam();
        std::size_t lineno = 0;
        std::string path =
            writeSpecLines(c.id + "_" + tag, c.with(value, &lineno));
        EXPECT_EXIT(c.parse(path), ::testing::ExitedWithCode(1),
                    pathRegex(path) + ":" + std::to_string(lineno) + ":.*" +
                        what)
            << c.info.name << " = " << value;
        std::remove(path.c_str());
    }
};

TEST_P(SpecKeyTable, AcceptsSampleRejectsBadValues)
{
    const KeyCase& c = GetParam();
    std::size_t lineno = 0;
    std::vector<std::string> lines = c.with(c.info.sample, &lineno);
    std::string path = writeSpecLines(c.id + "_ok", lines);
    EXPECT_EXIT(
        {
            c.parse(path);
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    std::remove(path.c_str());

    const std::string malformed = malformedValue(c.info);
    if (!malformed.empty())
        expectRejected(malformed, c.info.name, "malformed");
    const std::string outOfRange = outOfRangeValue(c.info);
    if (!outOfRange.empty())
        expectRejected(outOfRange,
                       std::string("'") + c.info.name + "' must be",
                       "range");

    if (c.line.empty()) {  // payload attributes may repeat
        lines.push_back(lines.back());
        path = writeSpecLines(c.id + "_dup", lines);
        EXPECT_EXIT(c.parse(path), ::testing::ExitedWithCode(1),
                    pathRegex(path) + ":" + std::to_string(lineno + 1) +
                        ": duplicate key '" + c.info.name + "'");
        std::remove(path.c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryFormat, SpecKeyTable, ::testing::ValuesIn(allKeyCases()),
    [](const ::testing::TestParamInfo<KeyCase>& p) { return p.param.id; });

// ---- Platform keys: one declaration, g10sim's ranges everywhere -----

TEST(PlatformKeysDeath, ServeFileRejectsZeroSsdBandwidth)
{
    std::string path = writeSpecLines(
        "serve_ssd0",
        {"rates = 1", "designs = g10", "class = ResNet152", "ssd_gbps = 0"});
    EXPECT_EXIT(parseServeFile(path), ::testing::ExitedWithCode(1),
                pathRegex(path) + ":4: 'ssd_gbps' must be");
    std::remove(path.c_str());
}

TEST(PlatformKeysDeath, FleetFileRejectsNegativePcieBandwidth)
{
    std::string path = writeSpecLines(
        "fleet_pcie", {"rate = 1", "placements = jsq", "class = ResNet152",
                       "node = n0", "pcie_gbps = -3"});
    EXPECT_EXIT(parseFleetFile(path), ::testing::ExitedWithCode(1),
                pathRegex(path) + ":5: 'pcie_gbps' must be");
    std::remove(path.c_str());
}

TEST(PlatformKeysDeath, MixFileRejectsNegativeHostMemory)
{
    std::string path =
        writeSpecLines("mix_host", {"job = BERT", "host_mem_gb = -5"});
    EXPECT_EXIT(parseMixFile(path), ::testing::ExitedWithCode(1),
                pathRegex(path) + ":2: 'host_mem_gb' must be");
    std::remove(path.c_str());
}

TEST(PlatformKeys, ZeroHostMemoryStaysMeaningful)
{
    // Fig. 17's no-host-staging point: host_mem_gb = 0 is accepted.
    std::string path = writeSpecLines(
        "serve_host0",
        {"rates = 1", "designs = g10", "class = ResNet152",
         "host_mem_gb = 0"});
    ServeSpec spec = parseServeFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(spec.sys.hostMemBytes, 0u);
}

TEST(SimConfig, PlatformKeysOverrideTheScaledPlatform)
{
    // The platform keys bind after `scale` wherever they appear.
    std::string path = writeSpecLines(
        "config_order", {"gpu_mem_gb = 2", "scale = 64", "model = BERT"});
    SimConfig cfg = parseSimConfig(path);
    std::remove(path.c_str());
    EXPECT_EQ(cfg.scaleDown, 64u);
    EXPECT_EQ(cfg.model, ModelKind::BertBase);
    EXPECT_EQ(cfg.sys.gpuMemBytes, static_cast<Bytes>(2e9));
    EXPECT_EQ(cfg.sys.hostMemBytes,
              SystemConfig().scaledDown(64).hostMemBytes);
}

TEST(SpecFormats, HelpListsEveryKey)
{
    std::ostringstream os;
    printSpecFormat(os, fleetFileFormat());
    for (const SpecKey<FleetSpec>& k : fleetFileFormat().keys)
        EXPECT_NE(os.str().find(std::string(k.name) + " = "),
                  std::string::npos)
            << k.name;
    EXPECT_NE(os.str().find("families="), std::string::npos);
}

}  // namespace
}  // namespace g10
