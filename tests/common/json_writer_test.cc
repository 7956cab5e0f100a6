/** @file Unit tests for the JSON writer and the validating parser. */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "common/json_writer.h"
#include "tests/json_value.h"

namespace g10 {
namespace {

std::string
write(const std::function<void(JsonWriter&)>& fn, int indent = 0)
{
    std::ostringstream os;
    JsonWriter w(os, indent);
    fn(w);
    return os.str();
}

TEST(JsonWriter, CompactObject)
{
    std::string s = write([](JsonWriter& w) {
        w.beginObject();
        w.field("a", std::int64_t{1});
        w.field("b", "two");
        w.field("c", true);
        w.key("d");
        w.null();
        w.endObject();
    });
    EXPECT_EQ(s, "{\"a\":1,\"b\":\"two\",\"c\":true,\"d\":null}");
}

TEST(JsonWriter, NestedArraysAndObjects)
{
    std::string s = write([](JsonWriter& w) {
        w.beginObject();
        w.key("xs");
        w.beginArray();
        w.value(std::int64_t{1});
        w.beginObject();
        w.field("k", 2.5);
        w.endObject();
        w.beginArray();
        w.endArray();
        w.endArray();
        w.endObject();
    });
    EXPECT_EQ(s, "{\"xs\":[1,{\"k\":2.5},[]]}");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    std::string s = write([](JsonWriter& w) {
        w.value(std::string("a\"b\\c\nd\te\x01!"));
    });
    EXPECT_EQ(s, "\"a\\\"b\\\\c\\nd\\te\\u0001!\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    std::string s = write([](JsonWriter& w) {
        w.beginArray();
        w.value(std::nan(""));
        w.value(HUGE_VAL);
        w.value(1.5);
        w.endArray();
    });
    EXPECT_EQ(s, "[null,null,1.5]");
}

TEST(JsonWriter, PrettyPrintingIsValidJson)
{
    std::string s = write(
        [](JsonWriter& w) {
            w.beginObject();
            w.field("x", std::int64_t{1});
            w.key("ys");
            w.beginArray();
            w.value("a");
            w.value("b");
            w.endArray();
            w.endObject();
        },
        2);
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(s, &v, &err)) << err << "\n" << s;
    EXPECT_EQ(v.at("x").number, 1.0);
    ASSERT_EQ(v.at("ys").items.size(), 2u);
    EXPECT_EQ(v.at("ys").items[1].str, "b");
}

TEST(JsonWriter, LargeDocumentIsInTheStreamWhenItCloses)
{
    // Well past the 64 KiB flush size: the text reaches the stream in
    // pieces while the document is open, all of it by the time the
    // top-level value closes, and byte for byte as the items written
    // one document at a time.
    auto item = [](JsonWriter& w, int i) {
        w.beginObject();
        w.field("i", static_cast<std::int64_t>(i));
        w.field("name", "item \"" + std::to_string(i) + "\"\n");
        w.key("xs").beginArray().value(0.5).null().endArray();
        w.endObject();
    };
    std::string expected = "{\"items\":[";
    for (int i = 0; i < 4000; ++i) {
        if (i > 0)
            expected += ',';
        expected += write([&](JsonWriter& w) { item(w, i); });
    }
    expected += "]}";
    ASSERT_GT(expected.size(), 3u * 64 * 1024);

    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject().key("items").beginArray();
    item(w, 0);
    EXPECT_TRUE(os.str().empty());  // small: still buffered
    for (int i = 1; i < 4000; ++i)
        item(w, i);
    const std::string partial = os.str();
    EXPECT_GE(partial.size(), 64u * 1024);
    EXPECT_EQ(expected.compare(0, partial.size(), partial), 0);
    w.endArray().endObject();
    EXPECT_EQ(os.str(), expected);
}

TEST(JsonParser, ParsesScalarsAndStructures)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(
        " { \"n\": -1.25e2, \"t\": true, \"f\": false, \"z\": null, "
        "\"s\": \"hi\\u0041\", \"a\": [1, 2, 3] } ",
        &v));
    EXPECT_DOUBLE_EQ(v.at("n").number, -125.0);
    EXPECT_TRUE(v.at("t").boolean);
    EXPECT_FALSE(v.at("f").boolean);
    EXPECT_EQ(v.at("z").kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.at("s").str, "hiA");
    ASSERT_EQ(v.at("a").items.size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").items[2].number, 3.0);
}

TEST(JsonParser, RejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{", &v, &err));
    EXPECT_FALSE(parseJson("{\"a\": }", &v, &err));
    EXPECT_FALSE(parseJson("[1,]", &v, &err));
    EXPECT_FALSE(parseJson("01", &v, &err));
    EXPECT_FALSE(parseJson("\"unterminated", &v, &err));
    EXPECT_FALSE(parseJson("true false", &v, &err));  // trailing
    EXPECT_FALSE(parseJson("nul", &v, &err));
}

TEST(JsonParser, StringRoundTripsThroughWriterEscaping)
{
    std::string hostile = "quote\" slash\\ newline\n tab\t ctrl\x02";
    std::string doc = write([&](JsonWriter& w) {
        w.beginObject();
        w.field("s", hostile);
        w.endObject();
    });
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(doc, &v, &err)) << err;
    EXPECT_EQ(v.at("s").str, hostile);
}

}  // namespace
}  // namespace g10
