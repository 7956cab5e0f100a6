#include "tests/json_value.h"

#include <string_view>

#include "common/logging.h"

namespace g10 {

const JsonValue*
JsonValue::find(const std::string& k) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto& m : members)
        if (m.first == k)
            return &m.second;
    return nullptr;
}

const JsonValue&
JsonValue::at(const std::string& k) const
{
    const JsonValue* v = find(k);
    if (!v)
        panic("JsonValue: missing member '%s'", k.c_str());
    return *v;
}

namespace {

bool
buildValue(JsonCursor& cur, JsonValue* out)
{
    JsonToken token = JsonToken::Null;
    if (!cur.peek(&token))
        return false;
    std::string_view text;
    switch (token) {
      case JsonToken::Object:
        out->kind = JsonValue::Kind::Object;
        cur.beginObject();
        while (cur.nextMember(&text)) {
            out->members.emplace_back(std::string(text), JsonValue{});
            if (!buildValue(cur, &out->members.back().second))
                return false;
        }
        return cur.ok();
      case JsonToken::Array:
        out->kind = JsonValue::Kind::Array;
        cur.beginArray();
        while (cur.nextItem())
            if (!buildValue(cur, &out->items.emplace_back()))
                return false;
        return cur.ok();
      case JsonToken::String:
        out->kind = JsonValue::Kind::String;
        if (!cur.string(&text))
            return false;
        out->str.assign(text);
        return true;
      case JsonToken::Number:
        out->kind = JsonValue::Kind::Number;
        return cur.number(&out->number);
      case JsonToken::Null:
        return cur.literal();
      default:
        out->kind = JsonValue::Kind::Bool;
        out->boolean = token == JsonToken::True;
        return cur.literal();
    }
}

}  // namespace

bool
parseJson(const std::string& text, JsonValue* out, std::string* err)
{
    JsonCursor cur(text);
    JsonValue v;
    if (!buildValue(cur, &v) || !cur.finish()) {
        if (err)
            *err = cur.error();
        return false;
    }
    *out = std::move(v);
    return true;
}

}  // namespace g10
