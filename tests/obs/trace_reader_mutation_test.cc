/** @file Differential mutation test for the streaming Chrome-trace
 *  reader and the JSON cursor under it. Seed documents come from
 *  writeChromeTrace and FileTraceSink (a Tracer stream touching every
 *  emission, a traced fleet demo) plus a hand-written document that
 *  reaches the grammar's corners; seeded byte flips, truncations,
 *  deleted and duplicated lines, and deleted and spliced byte spans
 *  turn each into thousands of mutants. For every mutant:
 *    - readChromeTrace and the original DOM-walking reader
 *      (trace_reader_reference.h) both accept with field-by-field
 *      equal TraceDocuments, or both reject with the same message;
 *    - parseJson and the original recursive-descent parser
 *      (json_parser_reference.h) build equal trees or report the same
 *      error at the same byte.
 *  The mutant budget is fixed, so the test is deterministic. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "engine/experiment_engine.h"
#include "fleet/fleet_sim.h"
#include "obs/analysis/trace_reader.h"
#include "obs/chrome_trace.h"
#include "obs/file_trace_sink.h"
#include "obs/tracer.h"
#include "tests/json_value.h"  // JsonValue for the verbatim reference parser
#include "tests/common/json_parser_reference.h"
#include "tests/obs/trace_reader_reference.h"

namespace g10 {
namespace {

/** One of each Tracer emission, across several pids and tracks. */
MemoryTraceSink
richStream()
{
    MemoryTraceSink sink;
    Tracer t(&sink, nullptr);
    t.kernelSpan(0, "layer1_0_c_conv", 3, 1000, 500, true, 450, 620);
    t.stallSpan(0, StallCause::Alloc, 3, 1500, 120, true);
    t.stallSpan(0, StallCause::Data, 3, 1620, 50, false);
    t.transfer(0, TransferCause::Prefetch, MemLoc::Ssd, MemLoc::Gpu,
               4096, 1200, 1800);
    t.evictionPick(1, 42, MemLoc::Host, 8192, 2000);
    t.ssdGc(1, 2, 7, 2100);
    t.budgetResize(1, 1000, 800, 200, 2200);
    t.admission(2, "resnet-hi", 3000, 3100, 1 << 20, true);
    t.departure(2, "resnet-hi", 3000, 9000, false, 5000, false);
    t.rejection(3, "bert-lo", 3200);
    t.partitionEvent("resize", 2, 1 << 19, 3300);
    t.warmReplan(2, 5, 1, 3400);
    t.queueDepth(4, 3050);
    t.kernelSpan(0, "late \"kernel\"\n", 7, 2'000'000'000'000'789,
                 12'345, true, 12'000, 12'345);
    return sink;
}

std::string
tempPath(const std::string& tag)
{
    return ::testing::TempDir() + "g10_mutation_" + tag + "_" +
           std::to_string(::getpid()) + ".json";
}

std::string
slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** @p events streamed through a FileTraceSink, read back as text. */
std::string
fileSinkDocument(const std::vector<TraceEvent>& events)
{
    const std::string path = tempPath("sink");
    {
        FileTraceSink file(path);
        file.setProcessName(0, "train-job");
        for (const TraceEvent& ev : events)
            file.onEvent(ev);
    }
    std::string text = slurp(path);
    std::remove(path.c_str());
    return text;
}

/**
 * Accepted by both readers, and reaching what the writers never
 * emit: escapes in keys and values, repeated record and args keys
 * (first wins; every args member counts), unknown keys, a non-object
 * "args", non-string "detail", exponents and fractions in pid/ts, a
 * second "traceEvents" member, and an array nested one level short of
 * the 128-level limit.
 */
std::string
edgeDocument()
{
    const std::string nest =
        std::string(125, '[') + "1" + std::string(125, ']');
    return "{\"displayTimeUnit\": \"ms\", \"other\": [1, {\"a\": null}],\n"
           "\"traceEvents\": [\n"
           "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"j\\u00e9b \\\"0\\\"\",\"name\":\"no\"},"
           "\"extra\":true},\n"
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,"
           "\"args\":{\"name\":\"kernel\"}},\n"
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0.5e1,"
           "\"tid\":2,\"args\":{\"name\":\"pcie.in\"}},\n"
           "{\"n\\u0061me\":\"k\\\\1\\/\",\"cat\":\"kernel\",\"ph\":\"X\","
           "\"ts\":1.5e3,\"dur\":2,\"pid\":0,\"tid\":1,\"ph\":\"i\","
           "\"args\":{\"k\":3,\"detail\":\"a\",\"detail\":7,"
           "\"measured\":-2.5e1}},\n"
           "{\"name\":\"x\",\"cat\":\"xfer\",\"ph\":\"i\",\"ts\":-0.001,"
           "\"s\":\"t\",\"pid\":5,\"tid\":2,\"args\":[1,2],"
           "\"args\":{\"bytes\":1}},\n"
           "{\"name\":\"deep\",\"cat\":\"ssd\",\"ph\":\"i\",\"ts\":1E-3,"
           "\"pid\":0,\"tid\":1,\"nest\":" + nest + ",\"args\":{}}\n"
           "], \"traceEvents\": 5, \"tail\": \"\\t\\b\\f\\r\\n\"}\n";
}

bool
sameTree(const JsonValue& a, const JsonValue& b)
{
    if (a.kind != b.kind || a.boolean != b.boolean || a.str != b.str ||
        a.items.size() != b.items.size() ||
        a.members.size() != b.members.size())
        return false;
    // Bitwise, so NaN-free doubles compare exactly.
    if (a.number != b.number)
        return false;
    for (std::size_t i = 0; i < a.items.size(); ++i)
        if (!sameTree(a.items[i], b.items[i]))
            return false;
    for (std::size_t i = 0; i < a.members.size(); ++i)
        if (a.members[i].first != b.members[i].first ||
            !sameTree(a.members[i].second, b.members[i].second))
            return false;
    return true;
}

bool
sameEvent(const TraceEvent& a, const TraceEvent& b)
{
    if (a.kind != b.kind || a.category != b.category ||
        a.track != b.track || a.name != b.name || a.pid != b.pid ||
        a.ts != b.ts || a.dur != b.dur || a.detail != b.detail ||
        a.args.size() != b.args.size())
        return false;
    for (std::size_t j = 0; j < a.args.size(); ++j)
        if (a.args[j].key != b.args[j].key ||
            a.args[j].value != b.args[j].value)
            return false;
    return true;
}

bool
sameDocument(const TraceDocument& a, const TraceDocument& b)
{
    if (a.processNames != b.processNames ||
        a.events.size() != b.events.size())
        return false;
    for (std::size_t i = 0; i < a.events.size(); ++i)
        if (!sameEvent(a.events[i], b.events[i]))
            return false;
    return true;
}

/** What the readers made of the mutants of one seed. */
struct Verdicts
{
    int accepted = 0;
    int syntax = 0;  ///< "not valid JSON: ..."
    int record = 0;  ///< "record N: ..."
    int other = 0;   ///< no traceEvents array
};

/** @p v is a whole number in [-@p limit, @p limit). */
bool
isInteger(const JsonValue* v, double limit)
{
    return v && v->isNumber() && v->number >= -limit &&
           v->number < limit && std::trunc(v->number) == v->number;
}

/** @p v is a microsecond time whose nanoseconds fall outside TimeNs. */
bool
isOutsideTimeNs(const JsonValue* v)
{
    return v && v->isNumber() &&
           !(v->number * 1e3 >= -0x1p63 && v->number * 1e3 < 0x1p63);
}

/**
 * The one place the reader departs from the reference on purpose: it
 * rejects a pid or tid that is not an int, an arg that is not an
 * int64 and a ts or dur outside TimeNs range, which the reference
 * casts and rounds unchecked. True when @p err is such a rejection of
 * record N, the reference accepted or rejected record N or a later
 * one, and record N of @p tree (the document's first traceEvents)
 * really holds such a number.
 */
bool
rejectsOnPurpose(const JsonValue& tree, const std::string& err, bool refOk,
                 const std::string& refErr)
{
    std::size_t n = 0;
    int used = 0;
    if (std::sscanf(err.c_str(), "record %zu: %n", &n, &used) != 1 ||
        used == 0)
        return false;
    const std::string why = err.substr(static_cast<std::size_t>(used));
    std::size_t refN = 0;
    if (!refOk && (std::sscanf(refErr.c_str(), "record %zu:", &refN) != 1 ||
                   refN < n))
        return false;
    const JsonValue* records = tree.find("traceEvents");
    if (!records || !records->isArray() || n >= records->items.size())
        return false;
    const JsonValue& rec = records->items[n];
    if (why == "pid/tid is not a 32-bit integer")
        return !isInteger(rec.find("pid"), 0x1p31) ||
               !isInteger(rec.find("tid"), 0x1p31);
    if (why == "ts/dur is outside the TimeNs range")
        return isOutsideTimeNs(rec.find("ts")) ||
               isOutsideTimeNs(rec.find("dur"));
    const std::string prefix = "arg '";
    const std::string suffix = "' is not a 64-bit integer";
    if (why.size() <= prefix.size() + suffix.size() ||
        why.compare(0, prefix.size(), prefix) != 0 ||
        why.compare(why.size() - suffix.size(), suffix.size(), suffix) != 0)
        return false;
    const std::string key = why.substr(
        prefix.size(), why.size() - prefix.size() - suffix.size());
    const JsonValue* args = rec.find("args");
    if (!args)
        return false;
    for (const auto& [k, v] : args->members)
        if (k == key && v.isNumber() && !isInteger(&v, 0x1p63))
            return true;
    return false;
}

/** Both pairs of readers agree on @p text; tallies the verdict. */
::testing::AssertionResult
agree(const std::string& text, Verdicts* tally)
{
    JsonValue tree, refTree;
    std::string treeErr, refTreeErr;
    const bool treeOk = parseJson(text, &tree, &treeErr);
    const bool refTreeOk =
        test::referenceParseJson(text, &refTree, &refTreeErr);
    if (treeOk != refTreeOk || treeErr != refTreeErr ||
        (treeOk && !sameTree(tree, refTree)))
        return ::testing::AssertionFailure()
               << "parseJson " << (treeOk ? "accepts" : treeErr)
               << " | reference " << (refTreeOk ? "accepts" : refTreeErr);

    TraceDocument doc, refDoc;
    std::string err, refErr;
    const bool ok = readChromeTrace(text, &doc, &err);
    const bool refOk = test::referenceReadChromeTrace(text, &refDoc, &refErr);
    if (!ok && rejectsOnPurpose(tree, err, refOk, refErr)) {
        ++tally->record;
        return ::testing::AssertionSuccess();
    }
    if (ok != refOk || err != refErr || (ok && !sameDocument(doc, refDoc)))
        return ::testing::AssertionFailure()
               << "readChromeTrace " << (ok ? "accepts" : err)
               << " | reference " << (refOk ? "accepts" : refErr);
    if (ok)
        ++tally->accepted;
    else if (err.rfind("not valid JSON: ", 0) == 0)
        ++tally->syntax;
    else if (err.rfind("record ", 0) == 0)
        ++tally->record;
    else
        ++tally->other;
    return ::testing::AssertionSuccess();
}

/** A byte a mutation writes: mostly JSON's structural and number
 *  characters, sometimes any byte. */
char
mutationByte(std::mt19937_64& rng)
{
    static const std::string kBytes = "{}[]:,\"\\ \n0123456789-+.eEtfnulx";
    if (rng() % 4 == 0)
        return static_cast<char>(rng() % 256);
    return kBytes[rng() % kBytes.size()];
}

/** Letters of the trace names and phases, so a changed letter can
 *  form another valid name or phase ("i" -> "X"). */
const std::string kLetters = "abcdeiklmnprstuvxMX";

/** [begin, end) of the line holding byte @p pos. */
std::pair<std::size_t, std::size_t>
lineAround(const std::string& s, std::size_t pos)
{
    const std::size_t nl = pos == 0 ? std::string::npos
                                    : s.rfind('\n', pos - 1);
    const std::size_t end = s.find('\n', pos);
    return {nl == std::string::npos ? 0 : nl + 1,
            end == std::string::npos ? s.size() : end + 1};
}

/**
 * Replace the first string or number literal at or after @p pos with
 * another token: a value of another type, a fraction where an integer
 * was, or a name the reader treats specially.
 */
void
swapToken(std::string& m, std::size_t pos, std::mt19937_64& rng)
{
    static const char* const kTokens[] = {
        "7", "-2.5", "0.7", "1e2", "null", "true", "{}", "[1]",
        "{\"name\":\"kernel\"}", "\"x\"", "\"M\"", "\"X\"", "\"i\"",
        "\"process_name\"", "\"thread_name\"", "\"process_namex\"",
        "\"name\"", "\"detail\"", "\"args\"", "\"traceEvents\""};
    std::size_t begin = pos;
    while (begin < m.size() && m[begin] != '"' && m[begin] != '-' &&
           !(m[begin] >= '0' && m[begin] <= '9'))
        ++begin;
    if (begin == m.size())
        return;
    std::size_t end = begin + 1;
    if (m[begin] == '"') {
        while (end < m.size() && m[end] != '"')
            end += m[end] == '\\' ? 2 : 1;
        end = std::min(end + 1, m.size());
    } else {
        while (end < m.size() && std::strchr("0123456789.eE+-", m[end]))
            ++end;
    }
    m.replace(begin, end - begin, kTokens[rng() % std::size(kTokens)]);
}

/** One to three seeded mutations of @p seed. */
std::string
mutate(const std::string& seed, std::mt19937_64& rng)
{
    std::string m = seed;
    const int ops = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < ops && !m.empty(); ++k) {
        const std::size_t pos = rng() % m.size();
        const std::size_t len = 1 + rng() % 48;
        switch (rng() % 13) {
          case 0:
          case 1:
          case 2:  // byte flips
            for (std::size_t i = 0, n = 1 + rng() % 3; i < n; ++i)
                m[(pos + i * 7) % m.size()] = mutationByte(rng);
            break;
          case 3:
          case 4:  // a digit or letter replaced by another: still JSON
            for (std::size_t i = pos; i < m.size() && i < pos + 64; ++i) {
                if (m[i] >= '0' && m[i] <= '9') {
                    m[i] = static_cast<char>('0' + rng() % 10);
                    break;
                }
                if (m[i] >= 'a' && m[i] <= 'z') {
                    m[i] = kLetters[rng() % kLetters.size()];
                    break;
                }
            }
            break;
          case 5:
          case 6:
          case 7:  // a string or number swapped for another token
            swapToken(m, pos, rng);
            break;
          case 8:  // truncation
            m.resize(pos);
            break;
          case 9: {  // deleted line
            const auto [b, e] = lineAround(m, pos);
            m.erase(b, e - b);
            break;
          }
          case 10: {  // duplicated line
            const auto [b, e] = lineAround(m, pos);
            m.insert(b, m.substr(b, e - b));
            break;
          }
          case 11:  // deleted span
            m.erase(pos, len);
            break;
          default:  // a span copied elsewhere: repeated keys, records
            m.insert(rng() % (m.size() + 1), m.substr(pos, len));
            break;
        }
    }
    return m;
}

/** @p count mutants of @p seed through agree(); the seed itself must
 *  be accepted. */
Verdicts
fuzz(const std::string& seed, int count, std::uint64_t rngSeed)
{
    Verdicts tally;
    EXPECT_TRUE(agree(seed, &tally));
    EXPECT_EQ(tally.accepted, 1) << "seed document rejected";
    std::mt19937_64 rng(rngSeed);
    for (int i = 0; i < count; ++i) {
        const std::string m = mutate(seed, rng);
        const ::testing::AssertionResult same = agree(m, &tally);
        if (!same) {
            ADD_FAILURE() << "mutant " << i << " (" << m.size()
                          << " bytes): " << same.message()
                          << (m.size() <= 4096 ? "\n" + m : "");
            break;
        }
    }
    return tally;
}

/** A 40-digit mantissa, more digits than a double can hold. */
const std::string kLongMantissa = "1234567890123456789012345678901234567890";

/** Both acceptance and each kind of rejection were reached. */
void
expectCoverage(const Verdicts& v)
{
    EXPECT_GT(v.accepted, 1);
    EXPECT_GT(v.syntax, 0);
    EXPECT_GT(v.record, 0);
}

TEST(TraceReaderMutation, WriterDocument)
{
    std::ostringstream os;
    writeChromeTrace(os, richStream().events(),
                     {{0, "train-job"}, {2, "req \"two\""}});
    expectCoverage(fuzz(os.str(), 4000, 1));
}

TEST(TraceReaderMutation, FileTraceSinkDocument)
{
    expectCoverage(fuzz(fileSinkDocument(richStream().events()), 4000, 2));
}

TEST(TraceReaderMutation, EdgeDocument)
{
    const Verdicts v = fuzz(edgeDocument(), 4000, 3);
    expectCoverage(v);
    EXPECT_GT(v.other, 0);
}

TEST(TraceReaderMutation, HandWrittenCornersAgree)
{
    // Documents a mutant rarely hits, each checked as is.
    const std::string lane =
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,"
        "\"args\":{\"name\":\"kernel\"}}";
    const std::string event =
        "{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"i\",\"ts\":1,"
        "\"pid\":0,\"tid\":1";
    auto doc = [&](const std::string& records) {
        return "{\"traceEvents\": [" + records + "]}";
    };
    const std::vector<std::string> corners = {
        "[]", "5", "{}", "{\"traceEvents\": {}}",
        "{\"traceEvents\": 1, \"traceEvents\": [" + lane + "]}",
        "{\"traceEvents\": [" + lane + "], \"traceEvents\": 1}",
        doc(lane + ", 7"),
        doc(lane + ", 7, {"),
        doc(lane + ", {\"ph\": \"C\"}, [1,]"),
        doc("{\"ph\":\"M\",\"name\":\"process_namex\",\"pid\":0,"
            "\"tid\":0,\"args\":{\"name\":\"p\"}}"),
        doc("{\"ph\":\"M\",\"name\":7,\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"p\"}}"),
        doc("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"p\"}}"),
        doc("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
            "\"tid\":0,\"args\":{\"name\":\"p\",\"name\":\"q\"}}"),
        doc("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
            "\"tid\":1,\"args\":[{\"name\":\"kernel\"}]}"),
        doc(lane + "," + event + ",\"args\":{\"detail\":{\"a\":1}}}"),
        doc(lane + "," + event + ",\"args\":{\"detail\":null,\"k\":1}}"),
        doc(lane + "," + event + ",\"args\":{\"k\":\"1\"}}"),
        doc(lane + "," + event + ",\"args\":7}"),
        doc(lane + "," + event + ",\"pid\":1.9}"),
        doc(lane + ",{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"X\","
                   "\"ts\":1,\"pid\":0,\"tid\":1}"),
        doc(lane + ",{\"name\":7,\"cat\":\"kernel\",\"ph\":\"i\","
                   "\"ts\":1,\"pid\":0,\"tid\":1}"),
        doc(lane + ",{\"ph\":7}"),
        doc(lane + "," + event + "} x"),
        doc(lane + "," + event + "}") + " \n\t ",
        doc(std::string(200, '[') + std::string(200, ']')),
        doc("\"\\ud83d\\ude00\\u00\""),
        doc("\"a\x01b\""),
        doc("-"), doc("1."), doc("1e+"), doc("01"), doc("tru"), doc("nul"),
        // Number corners: past double range both ways, subnormal, -0
        // and a mantissa longer than any double holds.
        doc("1e400, -1e400, 1e-400, 4.9e-324, -0, -0.0e5, " + kLongMantissa),
        doc(lane + ",{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"X\","
                   "\"ts\":1e-400,\"dur\":4.9e-324,\"pid\":-0,\"tid\":1,"
                   "\"args\":{\"k\":-0}}"),
        doc(lane + ",{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"i\","
                   "\"ts\":0." + kLongMantissa + ",\"pid\":0,\"tid\":1}"),
    };
    Verdicts tally;
    for (const std::string& text : corners)
        EXPECT_TRUE(agree(text, &tally)) << text;
    expectCoverage(tally);
    EXPECT_GT(tally.other, 0);

    // The cursor reads numbers with from_chars and falls back to
    // strtod only where from_chars rejects a literal (out of range):
    // every corner reads bit for bit as strtod reads it.
    for (const std::string& literal :
         {std::string("1e400"), std::string("-1e400"), std::string("1e-400"),
          std::string("-1e-400"), std::string("4.9e-324"),
          std::string("2.4e-324"), std::string("-0"), std::string("0"),
          std::string("1.7976931348623157e308"), std::string("1.8e308"),
          kLongMantissa, "-" + kLongMantissa + "e-20",
          "0." + kLongMantissa, std::string("2.5E+3")}) {
        JsonCursor cur(literal);
        double got = 0.0;
        ASSERT_TRUE(cur.number(&got) && cur.finish()) << literal;
        const double want = std::strtod(literal.c_str(), nullptr);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << literal << ": " << got << " vs " << want;
    }

    // Numbers the reference casts to int or rounds to int64 unchecked:
    // the reader rejects them where the reference accepts. A pid out of
    // int range makes the reference's cast undefined, so that case does
    // not run the reference. The JSON parsers still agree.
    struct Rejected
    {
        std::string text;
        std::string error;
        bool referenceDefined;
    };
    const std::string pidTid = "pid/tid is not a 32-bit integer";
    const std::string timeRange = "ts/dur is outside the TimeNs range";
    const std::vector<Rejected> rejected = {
        {doc("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2.7,"
             "\"tid\":0,\"args\":{\"name\":\"p\"}}"),
         "record 0: " + pidTid, true},
        {doc("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
             "\"tid\":1,\"args\":{\"name\":\"kernel\"}},"
             "{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"i\",\"ts\":1,"
             "\"pid\":1.9,\"tid\":1}"),
         "record 1: " + pidTid, true},
        {doc("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1e10,"
             "\"tid\":1,\"args\":{\"name\":\"kernel\"}}"),
         "record 0: " + pidTid, false},
        {doc(lane + "," + event + ",\"args\":{\"k\":1e400}}"),
         "record 1: arg 'k' is not a 64-bit integer", true},
        {doc(lane + "," + event + ",\"args\":{\"k\":0.5}}"),
         "record 1: arg 'k' is not a 64-bit integer", true},
        {doc(lane + ",{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"X\","
                    "\"ts\":1e400,\"dur\":1e300,\"pid\":0,\"tid\":1}"),
         "record 1: " + timeRange, true},
        {doc(lane + ",{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"X\","
                    "\"ts\":1,\"dur\":-1e16,\"pid\":0,\"tid\":1}"),
         "record 1: " + timeRange, true},
        {doc(lane + ",{\"name\":\"k\",\"cat\":\"kernel\",\"ph\":\"i\","
                    "\"ts\":9223372036854775.808,\"pid\":0,\"tid\":1}"),
         "record 1: " + timeRange, true},
    };
    for (const Rejected& r : rejected) {
        JsonValue tree, refTree;
        std::string treeErr, refTreeErr;
        EXPECT_TRUE(parseJson(r.text, &tree, &treeErr)) << r.text;
        EXPECT_TRUE(test::referenceParseJson(r.text, &refTree, &refTreeErr));
        EXPECT_TRUE(sameTree(tree, refTree)) << r.text;
        TraceDocument doc, refDoc;
        std::string err, refErr;
        EXPECT_FALSE(readChromeTrace(r.text, &doc, &err)) << r.text;
        EXPECT_EQ(err, r.error) << r.text;
        if (r.referenceDefined) {
            EXPECT_TRUE(
                test::referenceReadChromeTrace(r.text, &refDoc, &refErr))
                << r.text;
        }
    }
}

TEST(TraceReaderMutation, TracedFleetDemoDocument)
{
    // A g10fleet --demo run streamed through FileTraceSink: every
    // serve, transfer and stall record kind, ~2k events.
    MemoryTraceSink mem;
    FleetObsRequest obs;
    obs.sink = &mem;
    ExperimentEngine engine(1);
    FleetSim(demoFleetSpec(4096)).run(engine, obs);
    ASSERT_GT(mem.events().size(), 1000u);
    expectCoverage(fuzz(fileSinkDocument(mem.events()), 150, 4));
}

}  // namespace
}  // namespace g10
