/**
 * @file
 * Test-only reference JSON parser: the original recursive-descent
 * JsonParser kept verbatim, building a JsonValue tree directly from
 * the text. The differential mutation test requires parseJson (a tree
 * builder over JsonCursor) to accept the same documents, build the
 * same trees and report the same errors at the same byte offsets, so
 * it must not be "fixed" or optimized.
 */

#ifndef G10_TESTS_COMMON_JSON_PARSER_REFERENCE_H
#define G10_TESTS_COMMON_JSON_PARSER_REFERENCE_H

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/json_writer.h"

namespace g10 {
namespace test {

/** Cursor over the input text with error reporting. */
struct JsonParser
{
    const std::string& text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string& msg)
    {
        if (error.empty())
            error = msg + " at byte " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char* word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += len;
        return true;
    }

    bool
    parseString(std::string* out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out->clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("dangling escape");
            char e = text[pos++];
            switch (e) {
              case '"': *out += '"'; break;
              case '\\': *out += '\\'; break;
              case '/': *out += '/'; break;
              case 'b': *out += '\b'; break;
              case 'f': *out += '\f'; break;
              case 'n': *out += '\n'; break;
              case 'r': *out += '\r'; break;
              case 't': *out += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // UTF-8 encode (surrogate pairs are passed through as
                // two 3-byte sequences; the writer never emits them).
                if (cp < 0x80) {
                    *out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    *out += static_cast<char>(0xC0 | (cp >> 6));
                    *out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    *out += static_cast<char>(0xE0 | (cp >> 12));
                    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    *out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default: return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue* out, int depth)
    {
        if (depth > 128)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            ++pos;
            out->kind = JsonValue::Kind::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                std::string k;
                if (!parseString(&k))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->members.emplace_back(std::move(k), std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out->kind = JsonValue::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                JsonValue v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->items.push_back(std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parseString(&out->str);
        }
        if (c == 't') {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return literal("false", 5);
        }
        if (c == 'n') {
            out->kind = JsonValue::Kind::Null;
            return literal("null", 4);
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            std::size_t start = pos;
            if (consume('-')) {}
            if (pos >= text.size() || !std::isdigit(
                    static_cast<unsigned char>(text[pos])))
                return fail("malformed number");
            if (text[pos] == '0') {
                ++pos;
            } else {
                while (pos < text.size() &&
                       std::isdigit(
                           static_cast<unsigned char>(text[pos])))
                    ++pos;
            }
            if (consume('.')) {
                if (pos >= text.size() || !std::isdigit(
                        static_cast<unsigned char>(text[pos])))
                    return fail("malformed fraction");
                while (pos < text.size() &&
                       std::isdigit(
                           static_cast<unsigned char>(text[pos])))
                    ++pos;
            }
            if (pos < text.size() &&
                (text[pos] == 'e' || text[pos] == 'E')) {
                ++pos;
                if (pos < text.size() &&
                    (text[pos] == '+' || text[pos] == '-'))
                    ++pos;
                if (pos >= text.size() || !std::isdigit(
                        static_cast<unsigned char>(text[pos])))
                    return fail("malformed exponent");
                while (pos < text.size() &&
                       std::isdigit(
                           static_cast<unsigned char>(text[pos])))
                    ++pos;
            }
            out->kind = JsonValue::Kind::Number;
            out->number =
                std::strtod(text.substr(start, pos - start).c_str(),
                            nullptr);
            return true;
        }
        return fail("unexpected character");
    }
};

inline bool
referenceParseJson(const std::string& text, JsonValue* out,
                   std::string* err = nullptr)
{
    JsonParser p{text, 0, {}};
    JsonValue v;
    if (!p.parseValue(&v, 0)) {
        if (err)
            *err = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing garbage at byte " + std::to_string(p.pos);
        return false;
    }
    *out = std::move(v);
    return true;
}

}  // namespace test
}  // namespace g10

#endif  // G10_TESTS_COMMON_JSON_PARSER_REFERENCE_H
