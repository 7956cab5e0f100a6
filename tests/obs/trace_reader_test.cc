/** @file Round-trip tests for Chrome-trace re-ingestion: a
 *  MemoryTraceSink stream exported with writeChromeTrace and parsed
 *  back with readChromeTrace is field-by-field identical (golden
 *  equality), including nanosecond timestamps past the precision of
 *  %.12g doubles, category/track/arg-key enums, process names, and
 *  the streaming FileTraceSink document. The name tables invert
 *  exactly, and malformed documents — unknown names included — are
 *  rejected with a diagnostic, not a crash. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "obs/analysis/trace_reader.h"
#include "obs/chrome_trace.h"
#include "obs/file_trace_sink.h"
#include "obs/tracer.h"

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
    // A timestamp past ~16 simulated minutes: %.12g on microseconds
    // would round this; the exact-decimal writer must not.
    t.kernelSpan(0, "late_kernel", 7, 2'000'000'000'000'789, 12'345,
                 true, 12'000, 12'345);
    return sink;
}

void
expectEventsIdentical(const std::vector<TraceEvent>& a,
                      const std::vector<TraceEvent>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].category, b[i].category);
        EXPECT_EQ(a[i].track, b[i].track);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].pid, b[i].pid);
        EXPECT_EQ(a[i].ts, b[i].ts);
        EXPECT_EQ(a[i].dur, b[i].dur);
        EXPECT_EQ(a[i].detail, b[i].detail);
        ASSERT_EQ(a[i].args.size(), b[i].args.size());
        for (std::size_t j = 0; j < a[i].args.size(); ++j) {
            EXPECT_EQ(a[i].args[j].key, b[i].args[j].key) << j;
            EXPECT_EQ(a[i].args[j].value, b[i].args[j].value) << j;
        }
    }
}

TEST(TraceReader, RoundTripsTheWholeEmissionSurface)
{
    MemoryTraceSink sink = richStream();
    const std::map<int, std::string> names = {{0, "train-job"},
                                              {2, "req two"}};
    std::ostringstream os;
    writeChromeTrace(os, sink.events(), names);

    TraceDocument doc;
    std::string err;
    ASSERT_TRUE(readChromeTrace(os.str(), &doc, &err)) << err;
    expectEventsIdentical(sink.events(), doc.events);

    // Named pids round-trip; unnamed ones carry the default label.
    EXPECT_EQ(doc.processNames.at(0), "train-job");
    EXPECT_EQ(doc.processNames.at(2), "req two");
    EXPECT_EQ(doc.processNames.at(1), "job 1");
}

TEST(TraceReader, FileTraceSinkDocumentRoundTripsToo)
{
    // The streaming sink interleaves metadata lazily; the reader must
    // accept M records anywhere before the lane's first event.
    MemoryTraceSink mem = richStream();
    const std::string path = ::testing::TempDir() + "g10_reader_" +
                             std::to_string(::getpid()) + ".json";
    {
        FileTraceSink file(path);
        file.setProcessName(0, "train-job");
        for (const TraceEvent& ev : mem.events())
            file.onEvent(ev);
        file.finish();
    }

    TraceDocument doc;
    std::string err;
    ASSERT_TRUE(readChromeTraceFile(path, &doc, &err)) << err;
    std::remove(path.c_str());
    expectEventsIdentical(mem.events(), doc.events);
    EXPECT_EQ(doc.processNames.at(0), "train-job");
}

/** Every value's name parses back to that value and names are
 *  unique; with @p sorted, names also ascend in value order. */
template <typename E>
void
expectNameTable(bool sorted)
{
    const auto& names = TraceNames<E>::kNames;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < std::size(names); ++i) {
        SCOPED_TRACE(names[i]);
        const E value = static_cast<E>(i);
        E parsed{};
        ASSERT_TRUE(parseTraceName(traceName(value), &parsed));
        EXPECT_EQ(parsed, value);
        EXPECT_TRUE(seen.insert(std::string(names[i])).second)
            << "duplicate name";
        if (sorted && i > 0)
            EXPECT_LT(std::string(names[i - 1]), names[i]);
    }
    E parsed{};
    EXPECT_FALSE(parseTraceName("no.such.name", &parsed));
}

TEST(TraceReader, NameTablesInvertAndTracksAreSorted)
{
    expectNameTable<TraceCategory>(false);
    // Sorted tracks keep the exporters' (pid, track) tid order equal
    // to the order of the lanes' names.
    expectNameTable<TraceTrack>(true);
    expectNameTable<TraceArgKey>(false);
}

TEST(TraceReader, RejectsMalformedDocuments)
{
    TraceDocument doc;
    std::string err;

    EXPECT_FALSE(readChromeTrace("{not json", &doc, &err));
    EXPECT_NE(err.find("not valid JSON"), std::string::npos);

    EXPECT_FALSE(readChromeTrace("{\"foo\": 1}", &doc, &err));
    EXPECT_NE(err.find("traceEvents"), std::string::npos);

    // An event whose lane was never announced.
    EXPECT_FALSE(readChromeTrace(
        "{\"traceEvents\": [{\"name\": \"k\", \"cat\": \"kernel\", "
        "\"ph\": \"X\", \"ts\": 1, \"dur\": 1, \"pid\": 0, "
        "\"tid\": 1}]}",
        &doc, &err));
    EXPECT_NE(err.find("thread_name"), std::string::npos);

    // Phases the in-repo writers never emit are an error, not a skip.
    EXPECT_FALSE(readChromeTrace(
        "{\"traceEvents\": [{\"name\": \"c\", \"cat\": \"kernel\", "
        "\"ph\": \"C\", \"ts\": 1, \"pid\": 0, \"tid\": 1}]}",
        &doc, &err));
    EXPECT_NE(err.find("unsupported phase"), std::string::npos);

    // Names outside trace_event.h's tables are errors that name them.
    const std::string lane =
        "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, "
        "\"tid\": 1, \"args\": {\"name\": \"kernel\"}}";
    EXPECT_FALSE(readChromeTrace(
        "{\"traceEvents\": [" + lane +
            ", {\"name\": \"k\", \"cat\": \"gpu.kernel\", "
            "\"ph\": \"X\", \"ts\": 1, \"dur\": 1, \"pid\": 0, "
            "\"tid\": 1}]}",
        &doc, &err));
    EXPECT_NE(err.find("record 1: unknown category 'gpu.kernel'"),
              std::string::npos)
        << err;

    EXPECT_FALSE(readChromeTrace(
        "{\"traceEvents\": [{\"ph\": \"M\", \"name\": "
        "\"thread_name\", \"pid\": 0, \"tid\": 1, \"args\": "
        "{\"name\": \"nvlink\"}}]}",
        &doc, &err));
    EXPECT_NE(err.find("record 0: unknown track 'nvlink'"),
              std::string::npos)
        << err;

    EXPECT_FALSE(readChromeTrace(
        "{\"traceEvents\": [" + lane +
            ", {\"name\": \"k\", \"cat\": \"kernel\", "
            "\"ph\": \"X\", \"ts\": 1, \"dur\": 1, \"pid\": 0, "
            "\"tid\": 1, \"args\": {\"k\": 0, \"kk\": 1}}]}",
        &doc, &err));
    EXPECT_NE(err.find("record 1: unknown arg key 'kk'"),
              std::string::npos)
        << err;

    EXPECT_FALSE(readChromeTraceFile("/nonexistent/trace.json", &doc,
                                     &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);

    // A directory opens but cannot be read.
    EXPECT_FALSE(readChromeTraceFile(".", &doc, &err));
    EXPECT_NE(err.find("error reading '.'"), std::string::npos) << err;
}

}  // namespace
}  // namespace g10
