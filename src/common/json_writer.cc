#include "json_writer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "common/logging.h"

namespace g10 {

// ------------------------------------------------------------- writer

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(os), indent_(indent)
{
    buf_.reserve(kInitialBytes);
}

JsonWriter::~JsonWriter()
{
    if (!stack_.empty())
        panic("JsonWriter destroyed with %zu unclosed container(s)",
              stack_.size());
}

void
JsonWriter::prefix(bool isKey)
{
    if (stack_.empty()) {
        if (isKey)
            panic("JsonWriter: key() outside any object");
        if (done_)
            panic("JsonWriter: second top-level value");
        return;
    }
    Level& level = stack_.back();
    if (level.isObject && !isKey && !keyPending_)
        panic("JsonWriter: object member needs key() first");
    if (!level.isObject && isKey)
        panic("JsonWriter: key() inside an array");
    if (keyPending_)
        return;  // the value right after its key: no comma/indent

    if (level.hasItems)
        buf_ += ',';
    level.hasItems = true;
    if (indent_ > 0)
        newline();
}

void
JsonWriter::newline()
{
    buf_ += '\n';
    buf_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void
JsonWriter::settle()
{
    if (!stack_.empty() && buf_.size() < kFlushBytes)
        return;
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
JsonWriter::endValue()
{
    keyPending_ = false;
    if (stack_.empty())
        done_ = true;
    settle();
}

void
JsonWriter::open(bool isObject)
{
    keyPending_ = false;
    stack_.push_back({isObject, false});
    settle();
}

void
JsonWriter::close(bool isObject, char bracket, const char* what)
{
    if (stack_.empty() || stack_.back().isObject != isObject ||
        keyPending_)
        panic("JsonWriter: %s", what);
    const bool had = stack_.back().hasItems;
    stack_.pop_back();
    if (had && indent_ > 0)
        newline();
    buf_ += bracket;
    endValue();
}

JsonWriter&
JsonWriter::beginObject()
{
    prefix(false);
    buf_ += '{';
    open(true);
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    close(true, '}', "endObject() does not match an open object");
    return *this;
}

JsonWriter&
JsonWriter::beginArray()
{
    prefix(false);
    buf_ += '[';
    open(false);
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    close(false, ']', "endArray() does not match an open array");
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view k)
{
    if (keyPending_)
        panic("JsonWriter: key('%.*s') while another key is pending",
              static_cast<int>(k.size()), k.data());
    prefix(true);
    appendQuoted(k);
    buf_ += indent_ > 0 ? ": " : ":";
    keyPending_ = true;
    settle();
    return *this;
}

JsonWriter&
JsonWriter::value(std::string_view v)
{
    prefix(false);
    appendQuoted(v);
    endValue();
    return *this;
}

JsonWriter&
JsonWriter::value(double v)
{
    prefix(false);
    if (!std::isfinite(v)) {
        buf_ += "null";
    } else {
        char buf[64];
        const int n = std::snprintf(buf, sizeof buf, "%.12g", v);
        buf_.append(buf, static_cast<std::size_t>(n));
    }
    endValue();
    return *this;
}

JsonWriter&
JsonWriter::value(bool v)
{
    prefix(false);
    buf_ += v ? "true" : "false";
    endValue();
    return *this;
}

namespace {

template <typename Int>
void
appendInteger(std::string& out, Int v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

/** Bytes a JSON string literal cannot hold raw: controls, '"', '\\'. */
constexpr bool
needsEscape(unsigned char c)
{
    return c < 0x20 || c == '"' || c == '\\';
}

}  // namespace

JsonWriter&
JsonWriter::value(std::int64_t v)
{
    prefix(false);
    appendInteger(buf_, v);
    endValue();
    return *this;
}

JsonWriter&
JsonWriter::value(std::uint64_t v)
{
    prefix(false);
    appendInteger(buf_, v);
    endValue();
    return *this;
}

JsonWriter&
JsonWriter::rawNumber(std::string_view token)
{
    prefix(false);
    buf_ += token;
    endValue();
    return *this;
}

JsonWriter&
JsonWriter::null()
{
    prefix(false);
    buf_ += "null";
    endValue();
    return *this;
}

void
JsonWriter::appendQuoted(std::string_view s)
{
    buf_ += '"';
    std::size_t run = 0;  // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (!needsEscape(c))
            continue;
        buf_.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"': buf_ += "\\\""; break;
          case '\\': buf_ += "\\\\"; break;
          case '\b': buf_ += "\\b"; break;
          case '\f': buf_ += "\\f"; break;
          case '\n': buf_ += "\\n"; break;
          case '\r': buf_ += "\\r"; break;
          case '\t': buf_ += "\\t"; break;
          default: {
            static const char kHex[] = "0123456789abcdef";
            const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
            buf_.append(esc, sizeof esc);
          }
        }
    }
    buf_.append(s, run, s.size() - run);
    buf_ += '"';
}

// ------------------------------------------------------------- cursor

bool
JsonCursor::fail(const char* msg)
{
    if (error_.empty())
        error_ = std::string(msg) + " at byte " + std::to_string(pos_);
    return false;
}

void
JsonCursor::skipWs()
{
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
        ++pos_;
}

bool
JsonCursor::consume(char c)
{
    if (pos_ < text_.size() && text_[pos_] == c) {
        ++pos_;
        return true;
    }
    return false;
}

bool
JsonCursor::atValue(char* c)
{
    if (!ok())
        return false;
    if (depth_ > 128)
        return fail("nesting too deep");
    skipWs();
    if (pos_ >= text_.size())
        return fail("unexpected end of input");
    *c = text_[pos_];
    return true;
}

bool
JsonCursor::peek(JsonToken* token)
{
    char c = 0;
    if (!atValue(&c))
        return false;
    switch (c) {
      case '{': *token = JsonToken::Object; return true;
      case '[': *token = JsonToken::Array; return true;
      case '"': *token = JsonToken::String; return true;
      case 't': *token = JsonToken::True; return true;
      case 'f': *token = JsonToken::False; return true;
      case 'n': *token = JsonToken::Null; return true;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
            *token = JsonToken::Number;
            return true;
        }
        return fail("unexpected character");
    }
}

bool
JsonCursor::beginObject()
{
    char c = 0;
    if (!atValue(&c))
        return false;
    if (c != '{')
        return fail("expected '{'");
    ++pos_;
    ++depth_;
    first_ = true;
    return true;
}

bool
JsonCursor::beginArray()
{
    char c = 0;
    if (!atValue(&c))
        return false;
    if (c != '[')
        return fail("expected '['");
    ++pos_;
    ++depth_;
    first_ = true;
    return true;
}

bool
JsonCursor::close()
{
    --depth_;
    first_ = false;  // the closed container was its parent's item
    return false;
}

bool
JsonCursor::nextMember(std::string_view* key)
{
    if (!ok())
        return false;
    skipWs();
    if (first_) {
        first_ = false;
        if (consume('}'))
            return close();
    } else if (consume(',')) {
        skipWs();
    } else if (consume('}')) {
        return close();
    } else {
        return fail("expected ',' or '}'");
    }
    if (!readString(key))
        return false;
    skipWs();
    if (!consume(':'))
        return fail("expected ':'");
    return true;
}

bool
JsonCursor::nextItem()
{
    if (!ok())
        return false;
    skipWs();
    if (first_) {
        first_ = false;
        return !consume(']') || close();
    }
    if (consume(','))
        return true;
    if (consume(']'))
        return close();
    return fail("expected ',' or ']'");
}

bool
JsonCursor::string(std::string_view* out)
{
    char c = 0;
    return atValue(&c) && readString(out);
}

bool
JsonCursor::number(double* out)
{
    char c = 0;
    return atValue(&c) && readNumber(out);
}

bool
JsonCursor::literal()
{
    char c = 0;
    if (!atValue(&c))
        return false;
    const char* word = c == 't' ? "true" : c == 'f' ? "false" : "null";
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0)
        return fail(c == 't'   ? "expected 'true'"
                    : c == 'f' ? "expected 'false'"
                               : "expected 'null'");
    pos_ += len;
    return true;
}

bool
JsonCursor::skipValue()
{
    JsonToken token = JsonToken::Null;
    if (!peek(&token))
        return false;
    std::string_view key;
    switch (token) {
      case JsonToken::Object:
        beginObject();
        while (nextMember(&key))
            skipValue();
        return ok();
      case JsonToken::Array:
        beginArray();
        while (nextItem())
            skipValue();
        return ok();
      case JsonToken::String: return readString(nullptr);
      case JsonToken::Number: return readNumber(nullptr);
      default: return literal();
    }
}

bool
JsonCursor::finish()
{
    if (!ok())
        return false;
    skipWs();
    return pos_ == text_.size() || fail("trailing garbage");
}

bool
JsonCursor::readString(std::string_view* out)
{
    if (!consume('"'))
        return fail("expected '\"'");
    const std::size_t start = pos_;
    // Fast path: a run with no escape is viewed in place.
    while (pos_ < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20)
            break;
        ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '"') {
        if (out)
            *out = std::string_view(text_).substr(start, pos_ - start);
        ++pos_;
        return true;
    }
    if (out)
        scratch_.assign(text_, start, pos_ - start);
    auto put = [&](char ch) {
        if (out)
            scratch_ += ch;
    };
    while (pos_ < text_.size()) {
        char c = text_[pos_++];
        if (c == '"') {
            if (out)
                *out = scratch_;
            return true;
        }
        if (static_cast<unsigned char>(c) < 0x20)
            return fail("raw control character in string");
        if (c != '\\') {
            put(c);
            continue;
        }
        if (pos_ >= text_.size())
            return fail("dangling escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': put('"'); break;
          case '\\': put('\\'); break;
          case '/': put('/'); break;
          case 'b': put('\b'); break;
          case 'f': put('\f'); break;
          case 'n': put('\n'); break;
          case 'r': put('\r'); break;
          case 't': put('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size())
                return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
                char h = text_[pos_++];
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
                put(static_cast<char>(cp));
            } else if (cp < 0x800) {
                put(static_cast<char>(0xC0 | (cp >> 6)));
                put(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
                put(static_cast<char>(0xE0 | (cp >> 12)));
                put(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                put(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: return fail("unknown escape");
        }
    }
    return fail("unterminated string");
}

bool
JsonCursor::readNumber(double* out)
{
    const std::size_t start = pos_;
    auto digit = [&] {
        return pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9';
    };
    consume('-');
    if (!digit())
        return fail("malformed number");
    if (text_[pos_] == '0') {
        ++pos_;
    } else {
        while (digit())
            ++pos_;
    }
    if (consume('.')) {
        if (!digit())
            return fail("malformed fraction");
        while (digit())
            ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (!digit())
            return fail("malformed exponent");
        while (digit())
            ++pos_;
    }
    if (!out)
        return true;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // from_chars rounds correctly, as strtod does, but leaves a
    // literal past double range unread; strtod reads it as ±inf or 0.
    if (std::from_chars(first, last, *out).ec != std::errc()) {
        scratch_.assign(first, last);
        *out = std::strtod(scratch_.c_str(), nullptr);
    }
    return true;
}

}  // namespace g10
