/**
 * @file
 * Minimal dependency-free JSON support: a streaming writer
 * (pretty-printed, RFC 8259 escaping) used by the report layer and the
 * trace exporters, and JsonCursor, the library's one JSON tokenizer —
 * a pull cursor the Chrome-trace reader walks in one pass with no
 * document tree.
 */

#ifndef G10_COMMON_JSON_WRITER_H
#define G10_COMMON_JSON_WRITER_H

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace g10 {

/**
 * Streaming JSON emitter. Call begin/end/key/value in document order;
 * commas, indentation, and string escaping are handled internally.
 * The text collects in a buffer that goes to the stream in one write
 * when the top-level value closes, and in 64 KiB pieces before that
 * while a large document is being written. So the whole document is
 * in the stream once its last end call returns, and a caller may
 * write raw text to the stream only between documents, never inside
 * one.
 * Nesting errors (a value without a pending key inside an object, or
 * unbalanced begin/end) are programming errors and panic().
 *
 * Non-finite doubles are emitted as `null` so the output always parses.
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level; 0 = compact one-line. */
    explicit JsonWriter(std::ostream& os, int indent = 2);

    /** All containers must be closed by the time this runs. */
    ~JsonWriter();

    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();

    /** Member key; must be directly inside an object. */
    JsonWriter& key(std::string_view k);

    JsonWriter& value(std::string_view v);
    /** Without it a literal would bind to value(bool). */
    JsonWriter& value(const char* v) { return value(std::string_view(v)); }
    JsonWriter& value(double v);
    JsonWriter& value(bool v);
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& null();

    /**
     * Emit @p token verbatim as a number value. The caller guarantees
     * it is a valid JSON number literal; used where value(double)'s
     * %.12g would lose precision (exact decimal microsecond
     * timestamps in the chrome-trace writer). @p token is copied
     * before the call returns, so it may live in a stack buffer.
     */
    JsonWriter& rawNumber(std::string_view token);

    /** key(k) + value(v) in one call. */
    template <typename T>
    JsonWriter&
    field(std::string_view k, T&& v)
    {
        key(k);
        return value(std::forward<T>(v));
    }

  private:
    /** Buffered text past which a call hands it to the stream. */
    static constexpr std::size_t kFlushBytes = 64 * 1024;

    /** Buffer reserved up front: one allocation holds a small
     *  document, such as one streamed trace record. */
    static constexpr std::size_t kInitialBytes = 512;

    /** One open container. */
    struct Level
    {
        bool isObject;
        bool hasItems;  ///< emitted anything yet?
    };

    /** Comma/newline/indent bookkeeping before any value or key. */
    void prefix(bool isKey);

    /** Newline plus indentation for the current nesting level. */
    void newline();

    /** Append @p s as a quoted, escaped JSON string literal: each run
     *  that needs no escape is copied whole. */
    void appendQuoted(std::string_view s);

    /** Open a container after its bracket was appended. */
    void open(bool isObject);

    /** Close the innermost container of the given kind with @p bracket,
     *  or panic with @p what when it does not match. */
    void close(bool isObject, char bracket, const char* what);

    /** Close a value (the top-level one ends the document). */
    void endValue();

    /** End of a public call: hand the buffer to the stream when the
     *  document is complete or the buffer passed kFlushBytes. */
    void settle();

    std::ostream& os_;
    int indent_;
    std::vector<Level> stack_;
    bool keyPending_ = false;
    bool done_ = false;  ///< one top-level value already written
    std::string buf_;    ///< text not yet written to os_
};

/** Kind of the value a JsonCursor is positioned on. */
enum class JsonToken { Object, Array, String, Number, True, False, Null };

/**
 * Pull tokenizer over one JSON document (RFC 8259; at most 128 nested
 * containers). The caller walks the document in order: peek() at each
 * value, then consume it with the matching call or skipValue(); open
 * containers with beginObject()/beginArray() and step through them
 * with nextMember()/nextItem(), which return false when the container
 * closes; finish() after the top-level value.
 *
 * Errors are sticky: the first malformed byte records
 * "<message> at byte <offset>" in error(), and that call and every
 * later one return false — so a loop over members or items ends at
 * the first error as well as at the container's end, and one ok()
 * check after the walk tells the two apart.
 */
class JsonCursor
{
  public:
    /** @p text must outlive the cursor. */
    explicit JsonCursor(const std::string& text) : text_(text) {}
    JsonCursor(std::string&&) = delete;

    /** Classify the next value, skipping whitespace before it. */
    bool peek(JsonToken* token);

    bool beginObject();
    bool beginArray();

    /**
     * Advance to the open object's next member: reads its key into
     * @p key (as string() reads a value) and leaves the cursor on the
     * member's value. False once the object has closed.
     */
    bool nextMember(std::string_view* key);

    /** Advance to the open array's next item; false once it closed. */
    bool nextItem();

    /** Read a string value, escapes decoded. @p out views the text
     *  itself when the literal has no escape (see viewsText()), else
     *  a decoded copy that is valid until the next call. */
    bool string(std::string_view* out);

    /** True when @p s (from string() or nextMember()) lies in the
     *  text, so it stays valid as long as the text does. */
    bool viewsText(std::string_view s) const
    {
        return std::less_equal<const char*>()(text_.data(), s.data()) &&
               std::less_equal<const char*>()(s.data(),
                                              text_.data() + text_.size());
    }

    /** Read a number value, correctly rounded (std::from_chars; a
     *  literal out of double range reads as strtod reads it: ±inf, or
     *  0 on underflow). */
    bool number(double* out);

    /** Consume the true, false or null the cursor is on. */
    bool literal();

    /** Consume the next value, validating it, without decoding it. */
    bool skipValue();

    /** After the top-level value: only whitespace may remain. */
    bool finish();

    bool ok() const { return error_.empty(); }
    const std::string& error() const { return error_; }

  private:
    bool fail(const char* msg);
    void skipWs();
    bool consume(char c);

    /** Depth check, whitespace and end-of-input check before a value;
     *  on success @p c is the value's first byte. */
    bool atValue(char* c);

    /** String literal at pos_; @p out null validates only. */
    bool readString(std::string_view* out);

    /** Number literal at pos_; @p out null validates only. */
    bool readNumber(double* out);

    /** Close the innermost container. */
    bool close();

    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0;        ///< containers open around the cursor
    bool first_ = false;   ///< innermost container has no item yet
    std::string scratch_;  ///< decoded escaped strings, number text
    std::string error_;
};

}  // namespace g10

#endif  // G10_COMMON_JSON_WRITER_H
