#include "spec_reader.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/parse_util.h"

namespace g10 {

void
SpecLoc::fail(const char* fmt, ...) const
{
    char msg[2048];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    va_end(args);
    if (line > 0)
        fatal("%s:%zu: %s", path.c_str(), line, msg);
    if (!path.empty())
        fatal("%s: %s", path.c_str(), msg);
    fatal("%s", msg);
}

std::string
SpecRange::describe() const
{
    const bool hasLo = lo > -std::numeric_limits<double>::infinity();
    const bool hasHi = hi < std::numeric_limits<double>::infinity();
    char buf[96] = "";
    if (hasLo && hasHi)
        std::snprintf(buf, sizeof(buf), "in %c%.15g, %.15g%c",
                      loOpen ? '(' : '[', lo, hi, hiOpen ? ')' : ']');
    else if (hasLo)
        std::snprintf(buf, sizeof(buf), "%s %.15g", loOpen ? ">" : ">=", lo);
    else if (hasHi)
        std::snprintf(buf, sizeof(buf), "%s %.15g", hiOpen ? "<" : "<=", hi);
    return buf;
}

namespace {

/** @p text as a number in @p range; @p what names it in diagnostics. */
double
numberIn(const SpecLoc& at, const char* what, const std::string& text,
         const SpecRange& range)
{
    double v = 0.0;
    if (!parseDoubleStrict(text, &v))
        at.fail("'%s' needs a number, got '%s'", what, text.c_str());
    if (!range.contains(v))
        at.fail("'%s' must be %s, got %s", what, range.describe().c_str(),
                text.c_str());
    return v;
}

/** Split a comma list; empty items are malformed. */
std::vector<std::string>
splitList(const SpecLoc& at, const char* key, const std::string& text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (;;) {
        std::size_t comma = text.find(',', pos);
        out.push_back(text.substr(pos, comma - pos));
        if (out.back().empty())
            at.fail("'%s' has an empty list item in '%s'", key,
                    text.c_str());
        if (comma == std::string::npos)
            return out;
        pos = comma + 1;
    }
}

}  // namespace

SpecValue
parseSpecValue(const SpecKeyInfo& info, const SpecLoc& at,
               const std::string& text)
{
    SpecValue v;
    v.at = at;
    v.key = info.name;
    v.text = text;
    if (info.keyword != nullptr && text == info.keyword) {
        v.keyword = true;
        return v;
    }
    switch (info.type) {
      case SpecType::Int:
        if (!parseIntStrict(text, &v.i))
            at.fail("'%s' needs an integer, got '%s'", info.name,
                    text.c_str());
        if (!info.range.contains(static_cast<double>(v.i)))
            at.fail("'%s' must be %s, got %s", info.name,
                    info.range.describe().c_str(), text.c_str());
        break;
      case SpecType::Number:
        v.d = numberIn(at, info.name, text, info.range);
        break;
      case SpecType::OnOff:
        if (text != "on" && text != "off")
            at.fail("'%s' must be 'on' or 'off', got '%s'", info.name,
                    text.c_str());
        v.on = text == "on";
        break;
      case SpecType::Word:
      case SpecType::Text:
        break;
      case SpecType::Words:
        v.items = splitList(at, info.name, text);
        break;
      case SpecType::Numbers:
        for (const std::string& item : splitList(at, info.name, text))
            v.numbers.push_back(numberIn(at, info.name, item, info.range));
        break;
    }
    return v;
}

void
SpecValue::unknown(const char* noun, const std::string& choices) const
{
    if (key == noun)
        at.fail("unknown %s '%s' (%s)", noun, text.c_str(),
                choices.c_str());
    at.fail("unknown %s '%s' in '%s' (%s)", noun, text.c_str(),
            key.c_str(), choices.c_str());
}

SpecValue
SpecLineArgs::head(std::size_t i, const char* what) const
{
    SpecValue v;
    v.at = at;
    v.key = what;
    v.text = heads.at(i);
    return v;
}

double
SpecLineArgs::number(std::size_t i, const char* what,
                     const SpecRange& range) const
{
    return numberIn(at, what, heads.at(i), range);
}

std::vector<SpecEntry>
scanSpecFile(const std::string& path, const char* what,
             const std::vector<SpecKeyInfo>& keys,
             const std::vector<SpecLineInfo>& lines)
{
    std::ifstream f(path);
    if (!f)
        SpecLoc{}.fail("cannot open %s '%s'", what, path.c_str());

    std::string expected;
    for (const SpecLineInfo& l : lines)
        expected += std::string(expected.empty() ? "" : ", ") + l.name;
    for (const SpecKeyInfo& k : keys)
        expected += std::string(expected.empty() ? "" : ", ") + k.name;

    std::vector<SpecEntry> out;
    std::set<std::string> seen;  // scalar keys may not repeat
    std::string text;
    std::size_t lineno = 0;
    while (std::getline(f, text)) {
        ++lineno;
        const SpecLoc at{path, lineno};
        std::stringstream ss(text.substr(0, text.find('#')));
        std::vector<std::string> toks;
        for (std::string tok; ss >> tok;)
            toks.push_back(tok);
        if (toks.empty())
            continue;  // blank / comment-only line
        if (toks.size() < 2 || toks[1] != "=")
            at.fail("expected 'key = value'");

        SpecEntry e;
        e.key = toks[0];
        e.args.at = at;
        for (std::size_t k = 0; k < lines.size(); ++k) {
            if (e.key != lines[k].name)
                continue;
            e.lineKind = static_cast<int>(k);
            std::stringstream usage(lines[k].heads);
            std::size_t nheads = 0;
            for (std::string w; usage >> w;)
                ++nheads;
            if (toks.size() < 2 + nheads)
                at.fail("'%s =' needs '%s'", lines[k].name, lines[k].heads);
            e.args.heads.assign(toks.begin() + 2,
                                toks.begin() + 2 + nheads);
            for (std::size_t t = 2 + nheads; t < toks.size(); ++t) {
                const std::string& tok = toks[t];
                std::size_t eq = tok.find('=');
                if (eq == std::string::npos || eq == 0 ||
                    eq + 1 >= tok.size())
                    at.fail("%s attribute '%s' is not key=value",
                            lines[k].noun, tok.c_str());
                e.args.attrs.emplace_back(tok.substr(0, eq),
                                          tok.substr(eq + 1));
            }
        }
        if (e.lineKind < 0) {
            bool known = false;
            for (const SpecKeyInfo& k : keys)
                known = known || e.key == k.name;
            if (!known)
                at.fail("unknown key '%s' (expected %s)", e.key.c_str(),
                        expected.c_str());
            if (toks.size() < 3)
                at.fail("'%s =' is missing a value", e.key.c_str());
            if (toks.size() > 3)
                at.fail("trailing garbage '%s' after value",
                        toks[3].c_str());
            if (!seen.insert(e.key).second)
                at.fail("duplicate key '%s'", e.key.c_str());
            e.value = toks[2];
        }
        out.push_back(std::move(e));
    }
    return out;
}

namespace {

void
printKeys(std::ostream& os, const std::vector<SpecKeyInfo>& keys,
          const char* indent, const char* eq)
{
    for (const SpecKeyInfo& k : keys) {
        std::string lhs = std::string(k.name) + eq + k.sample;
        lhs.resize(std::max<std::size_t>(lhs.size(), 24), ' ');
        os << indent << lhs << ' ' << k.help;
        std::string range = k.range.describe();
        if (!range.empty())
            os << ", " << range;
        os << "\n";
    }
}

}  // namespace

void
printSpecKeys(std::ostream& os, const std::vector<SpecKeyInfo>& keys,
              const std::vector<SpecLineInfo>& lines)
{
    printKeys(os, keys, "  ", " = ");
    for (const SpecLineInfo& l : lines) {
        os << "  " << l.name << " = " << l.heads << " [k=v ...]   "
           << l.help << "\n";
        printKeys(os, l.attrs, "      ", "=");
    }
}

}  // namespace g10
