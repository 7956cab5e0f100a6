/**
 * @file
 * A JSON document tree for tests: JsonValue and parseJson(), built over
 * the library's JsonCursor. Tests use it to check what the report layer
 * and the trace exporters wrote; the library itself reads documents
 * with the cursor and builds no tree.
 */

#ifndef G10_TESTS_JSON_VALUE_H
#define G10_TESTS_JSON_VALUE_H

#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"

namespace g10 {

/**
 * Parsed JSON document node. A deliberately small tree representation:
 * numbers are doubles (adequate for every field the report layer
 * writes), object member order is preserved.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;  ///< Kind::Array
    std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue* find(const std::string& k) const;

    /** find() that fails loudly (panic) — convenient in tests. */
    const JsonValue& at(const std::string& k) const;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
};

/**
 * Parse one complete JSON document (trailing whitespace allowed,
 * trailing garbage rejected) into a JsonValue tree built over
 * JsonCursor.
 *
 * @param err when non-null, receives a message with the byte offset of
 *        the first error
 * @return false on malformed input
 */
bool parseJson(const std::string& text, JsonValue* out,
               std::string* err = nullptr);

}  // namespace g10

#endif  // G10_TESTS_JSON_VALUE_H
