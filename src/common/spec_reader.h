/**
 * @file
 * The one reader behind every `key = value` input format: g10sim
 * configs, mix files, serve and fleet files, and `.arr` arrival traces.
 *
 * A format is a table (SpecFormat). Each scalar key is one SpecKey:
 * its name, value grammar (type and range), a sample value, one help
 * line, and the binding that stores the parsed value into the format's
 * struct. Repeated payload lines such as `class = <Model> k=v ...` are
 * SpecLines whose `k=v` attributes are a key table of their own. The
 * tables drive parsing, validation, `--help` key lists and the
 * table-driven parser tests.
 *
 * The reader owns comment stripping, tokenizing, unknown / duplicate
 * key rejection, trailing-garbage checks, strict number parsing and
 * range checks. Every diagnostic goes through SpecLoc::fail() as
 * `path:line: ...` (or `path: ...` for whole-file checks) and exits 1.
 *
 * Scalar keys are bound in table order after the whole file has been
 * scanned, so a binding may rely on the keys listed before it (g10sim
 * applies `scale` before the platform keys). Payload lines are bound in
 * file order.
 */

#ifndef G10_COMMON_SPEC_READER_H
#define G10_COMMON_SPEC_READER_H

#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/system_config.h"

namespace g10 {

/** Where a spec token came from. line 0 = the file as a whole. */
struct SpecLoc
{
    std::string path;
    std::size_t line = 0;

    /** Report a malformed input as `path:line: <message>` and exit 1. */
    [[noreturn]] void fail(const char* fmt, ...) const
        __attribute__((format(printf, 2, 3)));
};

/** Value grammar of a key. */
enum class SpecType
{
    Int,      ///< strict integer within the key's range
    Number,   ///< strict double within the key's range
    OnOff,    ///< `on` | `off`
    Word,     ///< one word the binding validates (enum, design, model)
    Text,     ///< any one token (a path or a display name)
    Words,    ///< comma list of words the binding validates
    Numbers,  ///< comma list of numbers, each within the key's range
};

/** Numeric bounds of a key; unbounded by default. NaN never fits. */
struct SpecRange
{
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool loOpen = false;
    bool hiOpen = false;

    bool contains(double v) const
    {
        return (loOpen ? v > lo : v >= lo) && (hiOpen ? v < hi : v <= hi);
    }

    /** ">= 1", "> 0", "in [0, 1)", or "" when unbounded. */
    std::string describe() const;
};

/** [lo, hi], or [lo, hi) when @p hiOpen. */
inline SpecRange
within(double lo, double hi = std::numeric_limits<double>::infinity(),
       bool hiOpen = false)
{
    return {lo, hi, false, hiOpen};
}

/** (lo, +inf) */
inline SpecRange
above(double lo)
{
    return {lo, std::numeric_limits<double>::infinity(), true, false};
}

/** One parsed value, as handed to a key's binding. */
struct SpecValue
{
    SpecLoc at;
    std::string key;

    /** The raw token; the item for each Words element. */
    std::string text;

    long long i = 0;                 ///< Int
    double d = 0.0;                  ///< Number
    bool on = false;                 ///< OnOff
    std::vector<std::string> items;  ///< Words
    std::size_t item = 0;            ///< Words: index of text in items
    std::vector<double> numbers;     ///< Numbers

    /** The token was the key's keyword (e.g. `rates = auto`). */
    bool keyword = false;

    /** Fail on an unrecognized word: "unknown <noun> '<text>'
     *  (<choices>)", naming the key too when it is not the noun. */
    [[noreturn]] void unknown(const char* noun,
                              const std::string& choices) const;
};

/** A key's declaration, without the binding (docs and tests). */
struct SpecKeyInfo
{
    const char* name = nullptr;
    SpecType type = SpecType::Text;
    SpecRange range;

    /** A valid, non-default value: shown in --help, exercised by the
     *  table-driven tests. */
    const char* sample = nullptr;

    const char* help = nullptr;

    /** A word accepted in place of the typed value (`auto`). */
    const char* keyword = nullptr;

    /** A file of the format must set the key. */
    bool required = false;
};

/** A key declaration plus its binding into the format's struct @p S. */
template <class S>
struct SpecKey : SpecKeyInfo
{
    /** Store a value into the struct. Words keys are called once per
     *  item, with the item in SpecValue::text; a key whose list
     *  replaces a default clears it at item 0. */
    std::function<void(S&, const SpecValue&)> set;
};

template <class S>
using SpecKeys = std::vector<SpecKey<S>>;

/** Declare a key of @p S from its info and binding. */
template <class S, class F>
SpecKey<S>
specKey(const SpecKeyInfo& info, F set)
{
    SpecKey<S> k;
    static_cast<SpecKeyInfo&>(k) = info;
    k.set = std::move(set);
    return k;
}

/** Declare a key stored straight into @p field: integers from Int,
 *  doubles from Number, bools from OnOff (or a nonzero Int), strings
 *  from Text. */
template <class S, class T>
SpecKey<S>
fieldKey(const SpecKeyInfo& info, T S::*field)
{
    return specKey<S>(info, [field](S& s, const SpecValue& v) {
        if constexpr (std::is_same_v<T, bool>)
            s.*field = v.on || v.i != 0;
        else if constexpr (std::is_floating_point_v<T>)
            s.*field = v.d;
        else if constexpr (std::is_same_v<T, std::string>)
            s.*field = v.text;
        else if (static_cast<long long>(static_cast<T>(v.i)) != v.i)
            v.at.fail("'%s' is too large, got %lld", v.key.c_str(), v.i);
        else
            s.*field = static_cast<T>(v.i);
    });
}

/** Parse one value of @p info's grammar (never binds). */
SpecValue parseSpecValue(const SpecKeyInfo& info, const SpecLoc& at,
                         const std::string& text);

/** Parse @p text as key @p k and bind it into @p out. */
template <class S>
void
bindSpecKey(S& out, const SpecKey<S>& k, const std::string& text,
            const SpecLoc& at)
{
    SpecValue v = parseSpecValue(k, at, text);
    if (k.type != SpecType::Words || v.keyword)
        return k.set(out, v);
    for (v.item = 0; v.item < v.items.size(); ++v.item) {
        v.text = v.items[v.item];
        k.set(out, v);
    }
}

/** The positional and `k=v` tokens of one payload line. */
struct SpecLineArgs
{
    SpecLoc at;
    std::vector<std::string> heads;
    std::vector<std::pair<std::string, std::string>> attrs;

    /** Head @p i as a number in @p range; @p what names it. */
    double number(std::size_t i, const char* what,
                  const SpecRange& range) const;

    /** Head @p i as a word value named @p what. */
    SpecValue head(std::size_t i, const char* what) const;
};

/** A payload line's declaration, without the binding. */
struct SpecLineInfo
{
    const char* name = nullptr;

    /** Usage of the positional tokens ("<Model>"); one per word. */
    const char* heads = nullptr;

    /** Attribute noun in diagnostics ("unknown class attribute"). */
    const char* noun = nullptr;

    const char* help = nullptr;

    /** The `k=v` attribute keys (docs and tests). */
    std::vector<SpecKeyInfo> attrs = {};
};

/** A repeated `name = <heads> k=v ...` line of the format for @p S. */
template <class S>
struct SpecLine : SpecLineInfo
{
    std::function<void(S&, const SpecLineArgs&)> add;
};

/**
 * Declare a payload line whose `k=v` attributes fill an @p Item through
 * @p attrs; @p add then reads the heads and stores the item.
 */
template <class S, class Item>
SpecLine<S>
specLine(SpecLineInfo info, SpecKeys<Item> attrs,
         std::function<void(S&, Item, const SpecLineArgs&)> add)
{
    SpecLine<S> line;
    info.attrs.assign(attrs.begin(), attrs.end());
    static_cast<SpecLineInfo&>(line) = info;
    line.add = [attrs = std::move(attrs), add = std::move(add),
                noun = info.noun](S& out, const SpecLineArgs& args) {
        Item item{};
        for (const auto& [key, text] : args.attrs) {
            auto k = attrs.begin();
            while (k != attrs.end() && key != k->name)
                ++k;
            if (k == attrs.end()) {
                std::string expected;
                for (const SpecKey<Item>& a : attrs)
                    expected += std::string(expected.empty() ? "" : ", ") +
                                a.name;
                args.at.fail("unknown %s attribute '%s' (expected %s)",
                             noun, key.c_str(), expected.c_str());
            }
            bindSpecKey(item, *k, text, args.at);
        }
        add(out, std::move(item), args);
    };
    return line;
}

/** One input format. */
template <class S>
struct SpecFormat
{
    /** "serve file": diagnostics say "cannot open serve file ...". */
    const char* what;
    SpecKeys<S> keys;
    std::vector<SpecLine<S>> lines;
};

/** A base struct's format re-declared for the derived struct @p S. */
template <class S, class Base>
SpecFormat<S>
inheritFormat(const char* what, const SpecFormat<Base>& base)
{
    SpecFormat<S> out{what, {}, {}};
    for (const SpecKey<Base>& k : base.keys)
        out.keys.push_back(specKey<S>(k, k.set));
    for (const SpecLine<Base>& l : base.lines) {
        SpecLine<S> line;
        static_cast<SpecLineInfo&>(line) = l;
        line.add = l.add;
        out.lines.push_back(std::move(line));
    }
    return out;
}

/** One scanned line of a file (the format-independent pass). */
struct SpecEntry
{
    /** Index into the format's lines; -1 for a scalar key. */
    int lineKind = -1;
    std::string key;
    std::string value;  ///< scalar keys
    SpecLineArgs args;  ///< location; heads and attrs of payload lines
};

/**
 * Tokenize @p path: strip comments, split `key = value` and payload
 * lines, reject unknown keys, duplicates, missing values and trailing
 * garbage. @p keys and @p lines are what the format accepts.
 */
std::vector<SpecEntry> scanSpecFile(const std::string& path,
                                    const char* what,
                                    const std::vector<SpecKeyInfo>& keys,
                                    const std::vector<SpecLineInfo>& lines);

/**
 * Read @p path into @p out (pre-set to the format's defaults): scalar
 * keys bind in table order, payload lines in file order.
 */
template <class S>
void
readSpecFile(const std::string& path, const SpecFormat<S>& format, S& out)
{
    std::vector<SpecEntry> entries = scanSpecFile(
        path, format.what, {format.keys.begin(), format.keys.end()},
        {format.lines.begin(), format.lines.end()});
    for (const SpecKey<S>& k : format.keys) {
        bool seen = false;
        for (const SpecEntry& e : entries) {
            if (e.lineKind < 0 && e.key == k.name) {
                bindSpecKey(out, k, e.value, e.args.at);
                seen = true;
            }
        }
        if (k.required && !seen)
            SpecLoc{path}.fail("%s needs '%s = ...'", format.what, k.name);
    }
    for (const SpecEntry& e : entries)
        if (e.lineKind >= 0)
            format.lines[static_cast<std::size_t>(e.lineKind)].add(
                out, e.args);
}

/** Print `key = sample  help (range)` lines, then each payload line
 *  with its `k=v` attributes, for --help. */
void printSpecKeys(std::ostream& os, const std::vector<SpecKeyInfo>& keys,
                   const std::vector<SpecLineInfo>& lines);

template <class S>
void
printSpecFormat(std::ostream& os, const SpecFormat<S>& format)
{
    printSpecKeys(os, {format.keys.begin(), format.keys.end()},
                  {format.lines.begin(), format.lines.end()});
}

// ---- Keys shared by several formats --------------------------------

inline const SpecKeyInfo kScaleKey{"scale", SpecType::Int,
                                  within(1, 1 << 20), "32",
                                  "1/N platform scale (default 16)"};
inline const SpecKeyInfo kSeedKey{"seed", SpecType::Int, within(0), "7",
                                 "base RNG seed (default 42)"};

/** Attributes of class, job and req lines (batch and iterations are
 *  g10sim keys too). */
inline const SpecKeyInfo kBatchKey{
    "batch", SpecType::Int, within(1, 1 << 24), "128",
    "paper-scale batch (default: the model's Fig. 11 batch)"};
inline const SpecKeyInfo kIterationsKey{"iterations", SpecType::Int,
                                       within(1, 1000), "3",
                                       "training iterations"};
inline const SpecKeyInfo kPriorityKey{"priority", SpecType::Int,
                                     within(1, 1000), "4",
                                     "admission / scheduling priority"};
inline const SpecKeyInfo kWeightKey{
    "weight", SpecType::Number, above(0), "2",
    "relative share (class: of arrivals; job: of memory)"};
inline const SpecKeyInfo kNameKey{"name", SpecType::Text, {}, "big",
                                 "display name"};

/** The bandwidth keys, shared by the platform and fleet node lines. */
inline const SpecKeyInfo kSsdGbpsKey{"ssd_gbps", SpecType::Number,
                                    within(1e-3, 1e6), "6.4",
                                    "SSD read bandwidth, GB/s"};
inline const SpecKeyInfo kPcieGbpsKey{"pcie_gbps", SpecType::Number,
                                     within(1e-3, 1e6), "32",
                                     "PCIe bandwidth per direction, GB/s"};

/**
 * The platform keys gpu_mem_gb, host_mem_gb, ssd_gbps and pcie_gbps,
 * bound into the SystemConfig @p field of @p S. host_mem_gb = 0 is a
 * meaningful platform (Fig. 17's no-host-staging point); the other
 * three must be positive.
 */
template <class S>
SpecKeys<S>
platformKeys(SystemConfig S::*field)
{
    return {
        specKey<S>({"gpu_mem_gb", SpecType::Number, within(1e-3, 1e6),
                    "32", "GPU memory, GB"},
                   [field](S& s, const SpecValue& v) {
                       (s.*field).gpuMemBytes =
                           static_cast<Bytes>(v.d * 1e9);
                   }),
        specKey<S>({"host_mem_gb", SpecType::Number, within(0, 1e6), "64",
                    "host DRAM for tensor staging, GB"},
                   [field](S& s, const SpecValue& v) {
                       (s.*field).hostMemBytes =
                           static_cast<Bytes>(v.d * 1e9);
                   }),
        specKey<S>(kSsdGbpsKey,
                   [field](S& s, const SpecValue& v) {
                       (s.*field).setSsdBandwidthGBps(v.d);
                   }),
        specKey<S>(kPcieGbpsKey,
                   [field](S& s, const SpecValue& v) {
                       (s.*field).pcieGBps = v.d;
                   }),
    };
}

}  // namespace g10

#endif  // G10_COMMON_SPEC_READER_H
