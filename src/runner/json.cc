#include "json.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "compress/backend.hh"
#include "compress/compressor.hh"

namespace latte::runner
{

// --- Accessors ---------------------------------------------------------

bool
Json::asBool() const
{
    latte_assert(type_ == Type::Bool, "JSON value is not a bool");
    return bool_;
}

std::uint64_t
Json::asUint() const
{
    if (type_ == Type::Double) {
        latte_assert(double_ >= 0 &&
                         double_ == static_cast<double>(
                                        static_cast<std::uint64_t>(double_)),
                     "JSON number is not an unsigned integer");
        return static_cast<std::uint64_t>(double_);
    }
    latte_assert(type_ == Type::Uint, "JSON value is not a number");
    return uint_;
}

double
Json::asDouble() const
{
    if (type_ == Type::Uint)
        return static_cast<double>(uint_);
    latte_assert(type_ == Type::Double, "JSON value is not a number");
    return double_;
}

const std::string &
Json::asString() const
{
    latte_assert(type_ == Type::String, "JSON value is not a string");
    return string_;
}

const Json::Array &
Json::asArray() const
{
    latte_assert(type_ == Type::Array, "JSON value is not an array");
    return array_;
}

const Json::Object &
Json::asObject() const
{
    latte_assert(type_ == Type::Object, "JSON value is not an object");
    return object_;
}

const Json &
Json::at(const std::string &key) const
{
    const Object &obj = asObject();
    const auto it = obj.find(key);
    latte_assert(it != obj.end(), "JSON object lacks key {}", key);
    return it->second;
}

bool
Json::contains(const std::string &key) const
{
    return type_ == Type::Object && object_.count(key) != 0;
}

// --- Serialization -----------------------------------------------------

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendDouble(std::string &out, double d)
{
    char buf[32];
    // max_digits10 for a binary64: the text parses back to the same bits.
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
    // Bare integers-looking text would re-parse as Uint; keep the type.
    if (!std::strpbrk(buf, ".eEn"))
        out += ".0";
}

void
dumpTo(const Json &json, std::string &out, int indent, int depth)
{
    const auto newline = [&](int d) {
        if (indent < 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * d, ' ');
    };

    switch (json.type()) {
      case Json::Type::Null:
        out += "null";
        break;
      case Json::Type::Bool:
        out += json.asBool() ? "true" : "false";
        break;
      case Json::Type::Uint: {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, json.asUint());
        out += buf;
        break;
      }
      case Json::Type::Double:
        appendDouble(out, json.asDouble());
        break;
      case Json::Type::String:
        appendEscaped(out, json.asString());
        break;
      case Json::Type::Array: {
        const auto &array = json.asArray();
        if (array.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        bool first = true;
        for (const Json &elem : array) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            dumpTo(elem, out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Json::Type::Object: {
        const auto &object = json.asObject();
        if (object.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, value] : object) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            appendEscaped(out, key);
            out += indent < 0 ? ":" : ": ";
            dumpTo(value, out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
    }
}

} // namespace

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(*this, out, indent, 0);
    return out;
}

// --- Parsing -----------------------------------------------------------

namespace
{

struct Parser
{
    const char *p;
    const char *end;
    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    literal(const char *text)
    {
        const std::size_t n = std::strlen(text);
        if (static_cast<std::size_t>(end - p) < n ||
            std::strncmp(p, text, n) != 0)
            return fail(strfmt("expected '{}'", text));
        p += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            if (*p == '\\') {
                if (++p >= end)
                    return fail("dangling escape");
                switch (*p) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (end - p < 5)
                        return fail("short \\u escape");
                    char hex[5] = {p[1], p[2], p[3], p[4], 0};
                    const long code = std::strtol(hex, nullptr, 16);
                    // Only the control-character range is ever emitted.
                    out += static_cast<char>(code & 0x7f);
                    p += 4;
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                ++p;
            } else {
                out += *p++;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parseNumber(Json &out)
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end &&
               (std::isdigit(static_cast<unsigned char>(*p)) ||
                *p == '.' || *p == 'e' || *p == 'E' || *p == '+' ||
                *p == '-'))
            ++p;
        const std::string text(start, p);
        if (text.empty())
            return fail("expected number");
        if (text.find_first_of(".eE-") == std::string::npos) {
            errno = 0;
            char *parse_end = nullptr;
            const std::uint64_t u =
                std::strtoull(text.c_str(), &parse_end, 10);
            if (errno == 0 && parse_end && *parse_end == '\0') {
                out = Json(u);
                return true;
            }
        }
        char *parse_end = nullptr;
        const double d = std::strtod(text.c_str(), &parse_end);
        if (!parse_end || *parse_end != '\0')
            return fail(strfmt("bad number '{}'", text));
        out = Json(d);
        return true;
    }

    /** Parse one value; @p depth counts the enclosing containers. */
    bool
    parseValue(Json &out, int depth)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        if ((*p == '[' || *p == '{') && depth == Json::kMaxDepth) {
            return fail(strfmt("nesting deeper than {} levels",
                               Json::kMaxDepth));
        }
        switch (*p) {
          case 'n':
            out = Json();
            return literal("null");
          case 't':
            out = Json(true);
            return literal("true");
          case 'f':
            out = Json(false);
            return literal("false");
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
          }
          case '[': {
            ++p;
            Json::Array array;
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                out = Json(std::move(array));
                return true;
            }
            for (;;) {
                Json elem;
                if (!parseValue(elem, depth + 1))
                    return false;
                array.push_back(std::move(elem));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    out = Json(std::move(array));
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '{': {
            ++p;
            Json::Object object;
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                out = Json(std::move(object));
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                Json value;
                if (!parseValue(value, depth + 1))
                    return false;
                object.emplace(std::move(key), std::move(value));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    out = Json(std::move(object));
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

Json
Json::parse(const std::string &text, std::string *error)
{
    Parser parser{text.data(), text.data() + text.size(), {}};
    Json out;
    if (!parser.parseValue(out, 0)) {
        if (error)
            *error = parser.error;
        return Json();
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        if (error)
            *error = "trailing characters after JSON value";
        return Json();
    }
    return out;
}

// --- Result serialization ----------------------------------------------

namespace
{

const char *
modeName(CompressorId id)
{
    return compressorName(id);
}

bool
modeFromName(const std::string &name, CompressorId &id)
{
    for (std::size_t m = 0; m < kNumModes; ++m) {
        const auto candidate = static_cast<CompressorId>(m);
        if (name == compressorName(candidate)) {
            id = candidate;
            return true;
        }
    }
    return false;
}

Json
modeAccessesJson(const std::array<std::uint64_t, kNumModes> &counts)
{
    Json::Array array;
    for (const std::uint64_t count : counts)
        array.emplace_back(count);
    return Json(std::move(array));
}

bool
modeAccessesFromJson(const Json &json,
                     std::array<std::uint64_t, kNumModes> &counts)
{
    if (json.type() != Json::Type::Array ||
        json.asArray().size() != kNumModes)
        return false;
    for (std::size_t m = 0; m < kNumModes; ++m)
        counts[m] = json.asArray()[m].asUint();
    return true;
}

} // namespace

Json
toJson(const UsageCounts &usage)
{
    Json::Object object{
        {"cycles", Json(usage.cycles)},
        {"instructions", Json(usage.instructions)},
        {"l1Accesses", Json(usage.l1Accesses)},
        {"l2Accesses", Json(usage.l2Accesses)},
        {"nocBytes", Json(usage.nocBytes)},
        {"dramBytes", Json(usage.dramBytes)},
        {"bdiCompressions", Json(usage.bdiCompressions)},
        {"scCompressions", Json(usage.scCompressions)},
        {"bpcCompressions", Json(usage.bpcCompressions)},
        {"bdiDecompressions", Json(usage.bdiDecompressions)},
        {"scDecompressions", Json(usage.scDecompressions)},
        {"bpcDecompressions", Json(usage.bpcDecompressions)},
    };
    // L2/link counts appear only when those levels compressed
    // anything, so documents of L1-only runs stay byte-identical.
    if (usage.l2BdiCompressions)
        object["l2BdiCompressions"] = Json(usage.l2BdiCompressions);
    if (usage.l2BpcCompressions)
        object["l2BpcCompressions"] = Json(usage.l2BpcCompressions);
    if (usage.l2BdiDecompressions)
        object["l2BdiDecompressions"] = Json(usage.l2BdiDecompressions);
    if (usage.l2BpcDecompressions)
        object["l2BpcDecompressions"] = Json(usage.l2BpcDecompressions);
    if (usage.linkTransfers)
        object["linkTransfers"] = Json(usage.linkTransfers);
    return Json(std::move(object));
}

bool
fromJson(const Json &json, UsageCounts &usage)
{
    if (json.type() != Json::Type::Object)
        return false;
    for (const char *key :
         {"cycles", "instructions", "l1Accesses", "l2Accesses",
          "nocBytes", "dramBytes", "bdiCompressions", "scCompressions",
          "bpcCompressions", "bdiDecompressions", "scDecompressions",
          "bpcDecompressions"}) {
        if (!json.contains(key))
            return false;
    }
    usage.cycles = json.at("cycles").asUint();
    usage.instructions = json.at("instructions").asUint();
    usage.l1Accesses = json.at("l1Accesses").asUint();
    usage.l2Accesses = json.at("l2Accesses").asUint();
    usage.nocBytes = json.at("nocBytes").asUint();
    usage.dramBytes = json.at("dramBytes").asUint();
    usage.bdiCompressions = json.at("bdiCompressions").asUint();
    usage.scCompressions = json.at("scCompressions").asUint();
    usage.bpcCompressions = json.at("bpcCompressions").asUint();
    usage.bdiDecompressions = json.at("bdiDecompressions").asUint();
    usage.scDecompressions = json.at("scDecompressions").asUint();
    usage.bpcDecompressions = json.at("bpcDecompressions").asUint();
    // Optional: emitted only by runs with a compressed L2 or link.
    if (json.contains("l2BdiCompressions"))
        usage.l2BdiCompressions = json.at("l2BdiCompressions").asUint();
    if (json.contains("l2BpcCompressions"))
        usage.l2BpcCompressions = json.at("l2BpcCompressions").asUint();
    if (json.contains("l2BdiDecompressions")) {
        usage.l2BdiDecompressions =
            json.at("l2BdiDecompressions").asUint();
    }
    if (json.contains("l2BpcDecompressions")) {
        usage.l2BpcDecompressions =
            json.at("l2BpcDecompressions").asUint();
    }
    if (json.contains("linkTransfers"))
        usage.linkTransfers = json.at("linkTransfers").asUint();
    return true;
}

Json
toJson(const EnergyReport &energy)
{
    Json::Object object{
        {"coreDynamicMj", Json(energy.coreDynamicMj)},
        {"l1Mj", Json(energy.l1Mj)},
        {"l2Mj", Json(energy.l2Mj)},
        {"nocMj", Json(energy.nocMj)},
        {"dramMj", Json(energy.dramMj)},
        {"compressionMj", Json(energy.compressionMj)},
        {"staticMj", Json(energy.staticMj)},
    };
    // Per-level terms appear only when nonzero (L1-only documents stay
    // byte-identical).
    if (energy.l2CompressionMj != 0)
        object["l2CompressionMj"] = Json(energy.l2CompressionMj);
    if (energy.linkCompressionMj != 0)
        object["linkCompressionMj"] = Json(energy.linkCompressionMj);
    return Json(std::move(object));
}

bool
fromJson(const Json &json, EnergyReport &energy)
{
    if (json.type() != Json::Type::Object)
        return false;
    for (const char *key : {"coreDynamicMj", "l1Mj", "l2Mj", "nocMj",
                            "dramMj", "compressionMj", "staticMj"}) {
        if (!json.contains(key))
            return false;
    }
    energy.coreDynamicMj = json.at("coreDynamicMj").asDouble();
    energy.l1Mj = json.at("l1Mj").asDouble();
    energy.l2Mj = json.at("l2Mj").asDouble();
    energy.nocMj = json.at("nocMj").asDouble();
    energy.dramMj = json.at("dramMj").asDouble();
    energy.compressionMj = json.at("compressionMj").asDouble();
    energy.staticMj = json.at("staticMj").asDouble();
    if (json.contains("l2CompressionMj"))
        energy.l2CompressionMj = json.at("l2CompressionMj").asDouble();
    if (json.contains("linkCompressionMj")) {
        energy.linkCompressionMj =
            json.at("linkCompressionMj").asDouble();
    }
    return true;
}

Json
toJson(const KernelSnapshot &snapshot)
{
    return Json(Json::Object{
        {"name", Json(snapshot.name)},
        {"cycles", Json(snapshot.cycles)},
        {"instructions", Json(snapshot.instructions)},
        {"hits", Json(snapshot.hits)},
        {"misses", Json(snapshot.misses)},
        {"usage", toJson(snapshot.usage)},
        {"modeAccesses", modeAccessesJson(snapshot.modeAccesses)},
    });
}

bool
fromJson(const Json &json, KernelSnapshot &snapshot)
{
    if (json.type() != Json::Type::Object || !json.contains("name") ||
        !json.contains("usage") || !json.contains("modeAccesses"))
        return false;
    snapshot.name = json.at("name").asString();
    snapshot.cycles = json.at("cycles").asUint();
    snapshot.instructions = json.at("instructions").asUint();
    snapshot.hits = json.at("hits").asUint();
    snapshot.misses = json.at("misses").asUint();
    return fromJson(json.at("usage"), snapshot.usage) &&
           modeAccessesFromJson(json.at("modeAccesses"),
                                snapshot.modeAccesses);
}

Json
toJson(const PolicyTracePoint &point)
{
    Json::Object object{
        {"cycle", Json(point.cycle)},
        {"tolerance", Json(point.latencyTolerance)},
        {"mode", Json(modeName(point.mode))},
        {"capacityBytes", Json(point.effectiveCapacityBytes)},
        {"decompQueueDepth", Json(point.decompQueueDepth)},
        {"samplerHits", modeAccessesJson(point.samplerHits)},
        {"samplerMisses", modeAccessesJson(point.samplerMisses)},
    };
    // L2-level fields only when a compressed-L2 controller ran.
    if (point.hasL2) {
        object["l2Mode"] = Json(modeName(point.l2Mode));
        object["l2Tolerance"] = Json(point.l2Tolerance);
    }
    return Json(std::move(object));
}

bool
fromJson(const Json &json, PolicyTracePoint &point)
{
    if (json.type() != Json::Type::Object || !json.contains("cycle") ||
        !json.contains("tolerance") || !json.contains("mode") ||
        !json.contains("capacityBytes") ||
        !json.contains("decompQueueDepth") ||
        !json.contains("samplerHits") || !json.contains("samplerMisses"))
        return false;
    point.cycle = json.at("cycle").asUint();
    point.latencyTolerance = json.at("tolerance").asDouble();
    point.effectiveCapacityBytes = json.at("capacityBytes").asUint();
    point.decompQueueDepth =
        static_cast<std::uint32_t>(json.at("decompQueueDepth").asUint());
    if (!modeAccessesFromJson(json.at("samplerHits"),
                              point.samplerHits) ||
        !modeAccessesFromJson(json.at("samplerMisses"),
                              point.samplerMisses))
        return false;
    if (json.contains("l2Mode")) {
        point.hasL2 = true;
        point.l2Tolerance = json.contains("l2Tolerance")
                                ? json.at("l2Tolerance").asDouble()
                                : 0.0;
        if (!modeFromName(json.at("l2Mode").asString(), point.l2Mode))
            return false;
    }
    return modeFromName(json.at("mode").asString(), point.mode);
}

Json
toJson(const WorkloadRunResult &result)
{
    Json::Array kernels;
    for (const KernelSnapshot &snapshot : result.kernels)
        kernels.push_back(toJson(snapshot));

    Json::Array best_modes;
    for (const CompressorId mode : result.kernelBestModes)
        best_modes.emplace_back(modeName(mode));

    Json::Array trace;
    for (const PolicyTracePoint &point : result.trace)
        trace.push_back(toJson(point));

    Json::Object stats;
    for (const auto &[name, value] : result.stats)
        stats.emplace(name, Json(value));

    return Json(Json::Object{
        // Bumped 2 -> 3 when the cell document grew the RunOutcome
        // envelope (status/error/attempts/retryHistory); stale cache
        // entries degrade to misses.
        {"schema", Json(std::uint64_t{3})},
        {"workload", Json(result.workload)},
        {"policyKind", Json(policyName(result.policy))},
        {"policyLabel", Json(result.policyLabel)},
        {"seed", Json(result.seed)},
        {"cycles", Json(result.cycles)},
        {"instructions", Json(result.instructions)},
        {"hits", Json(result.hits)},
        {"misses", Json(result.misses)},
        {"energy", toJson(result.energy)},
        {"kernels", Json(std::move(kernels))},
        {"kernelBestModes", Json(std::move(best_modes))},
        {"trace", Json(std::move(trace))},
        {"modeAccesses", modeAccessesJson(result.modeAccesses)},
        {"stats", Json(std::move(stats))},
    });
}

bool
fromJson(const Json &json, WorkloadRunResult &result)
{
    if (json.type() != Json::Type::Object)
        return false;
    for (const char *key :
         {"schema", "workload", "policyKind", "policyLabel", "seed",
          "cycles", "instructions", "hits", "misses", "energy",
          "kernels", "kernelBestModes", "trace", "modeAccesses",
          "stats"}) {
        if (!json.contains(key))
            return false;
    }
    if (json.at("schema").asUint() != 3)
        return false;

    result = WorkloadRunResult{};
    result.workload = json.at("workload").asString();
    const PolicyKind *kind =
        policyKindFromName(json.at("policyKind").asString());
    if (!kind)
        return false;
    result.policy = *kind;
    result.policyLabel = json.at("policyLabel").asString();
    result.seed = json.at("seed").asUint();
    result.cycles = json.at("cycles").asUint();
    result.instructions = json.at("instructions").asUint();
    result.hits = json.at("hits").asUint();
    result.misses = json.at("misses").asUint();
    if (!fromJson(json.at("energy"), result.energy))
        return false;

    for (const Json &elem : json.at("kernels").asArray()) {
        KernelSnapshot snapshot;
        if (!fromJson(elem, snapshot))
            return false;
        result.kernels.push_back(std::move(snapshot));
    }
    for (const Json &elem : json.at("kernelBestModes").asArray()) {
        CompressorId mode;
        if (!modeFromName(elem.asString(), mode))
            return false;
        result.kernelBestModes.push_back(mode);
    }
    for (const Json &elem : json.at("trace").asArray()) {
        PolicyTracePoint point;
        if (!fromJson(elem, point))
            return false;
        result.trace.push_back(point);
    }
    if (!modeAccessesFromJson(json.at("modeAccesses"),
                              result.modeAccesses))
        return false;
    for (const auto &[name, value] : json.at("stats").asObject())
        result.stats[name] = value.asDouble();
    return true;
}

Json
toJson(const RunError &error)
{
    return Json(Json::Object{
        {"code", Json(runErrorCodeName(error.code))},
        {"message", Json(error.message)},
        {"workload", Json(error.workload)},
        {"policyLabel", Json(error.policyLabel)},
        {"seed", Json(error.seed)},
        {"cycle", Json(error.cycle)},
    });
}

bool
fromJson(const Json &json, RunError &error)
{
    if (json.type() != Json::Type::Object)
        return false;
    for (const char *key : {"code", "message", "workload",
                            "policyLabel", "seed", "cycle"}) {
        if (!json.contains(key))
            return false;
    }
    const RunErrorCode *code =
        runErrorCodeFromName(json.at("code").asString());
    if (!code)
        return false;
    error.code = *code;
    error.message = json.at("message").asString();
    error.workload = json.at("workload").asString();
    error.policyLabel = json.at("policyLabel").asString();
    error.seed = json.at("seed").asUint();
    error.cycle = json.at("cycle").asUint();
    return true;
}

Json
toJson(const RunOutcome &outcome)
{
    Json::Object object;
    if (outcome.result) {
        object = toJson(*outcome.result).asObject();
    } else {
        // No result was produced: emit a zeroed body carrying the cell
        // context, so the export array stays uniformly shaped and
        // failed cells are still attributable.
        WorkloadRunResult stub;
        stub.workload = outcome.error.workload;
        stub.policyLabel = outcome.error.policyLabel;
        stub.seed = outcome.error.seed;
        object = toJson(stub).asObject();
    }

    object["status"] = Json(runStatusName(outcome.status));
    // Metadata only: which SIMD backend the compressors dispatched to.
    // Not part of the cell fingerprint (results are bit-identical
    // across backends), so fromJson() does not require or restore it.
    object["compressBackend"] =
        Json(std::string(activeCompressorBackend().name));
    // Metadata only: fresh runs record 1 (--sim-threads is ignored).
    // Not part of the cell fingerprint; fromJson() restores it when
    // present so an older cache entry or journal replays byte-for-byte.
    object["simThreads"] =
        Json(static_cast<std::uint64_t>(outcome.simThreads));
    object["error"] =
        outcome.error.ok() ? Json() : toJson(outcome.error);
    object["attempts"] =
        Json(static_cast<std::uint64_t>(outcome.attempts));
    Json::Array history;
    for (const RunError &error : outcome.retryHistory)
        history.push_back(toJson(error));
    object["retryHistory"] = Json(std::move(history));
    return Json(std::move(object));
}

Json
outcomesToJson(const std::vector<RunOutcome> &outcomes)
{
    Json::Array array;
    array.reserve(outcomes.size());
    for (const RunOutcome &outcome : outcomes)
        array.push_back(toJson(outcome));
    return Json(std::move(array));
}

bool
fromJson(const Json &json, RunOutcome &outcome)
{
    if (json.type() != Json::Type::Object)
        return false;
    for (const char *key :
         {"status", "error", "attempts", "retryHistory"}) {
        if (!json.contains(key))
            return false;
    }
    const RunStatus *status =
        runStatusFromName(json.at("status").asString());
    if (!status)
        return false;

    outcome = RunOutcome{};
    outcome.status = *status;
    if (json.at("error").type() != Json::Type::Null &&
        !fromJson(json.at("error"), outcome.error))
        return false;
    outcome.attempts =
        static_cast<std::uint32_t>(json.at("attempts").asUint());
    // Optional so pre-simThreads schema-3 cache entries stay valid.
    if (json.contains("simThreads")) {
        outcome.simThreads = static_cast<std::uint32_t>(
            json.at("simThreads").asUint());
    }
    for (const Json &elem : json.at("retryHistory").asArray()) {
        RunError error;
        if (!fromJson(elem, error))
            return false;
        outcome.retryHistory.push_back(std::move(error));
    }

    // The result body is only authoritative on successful outcomes;
    // failed cells keep their context in the error instead.
    if (outcome.ok()) {
        WorkloadRunResult result;
        if (!fromJson(json, result))
            return false;
        outcome.result = std::move(result);
    }
    return true;
}

namespace
{

/** StatVisitor building one nested Json object per StatGroup. */
class JsonStatVisitor : public StatVisitor
{
  public:
    void
    beginGroup(const StatGroup &, const std::string &) override
    {
        stack_.emplace_back();
    }

    void
    visitStat(const StatBase &stat, const std::string &) override
    {
        stack_.back().emplace(stat.name(), Json(stat.value()));
    }

    void
    endGroup(const StatGroup &group, const std::string &) override
    {
        Json::Object done = std::move(stack_.back());
        stack_.pop_back();
        if (stack_.empty())
            root_ = Json(std::move(done));
        else
            stack_.back().emplace(group.groupName(),
                                  Json(std::move(done)));
    }

    Json take() { return std::move(root_); }

  private:
    std::vector<Json::Object> stack_;
    Json root_;
};

} // namespace

Json
toJson(const StatGroup &group)
{
    JsonStatVisitor visitor;
    group.visit(visitor);
    return visitor.take();
}

Json
timelineToJson(const std::vector<WorkloadRunResult> &results)
{
    Json::Array runs;
    for (const WorkloadRunResult &result : results) {
        Json::Array points;
        for (const PolicyTracePoint &point : result.trace)
            points.push_back(toJson(point));
        runs.push_back(Json(Json::Object{
            {"workload", Json(result.workload)},
            {"policy", Json(result.policyLabel)},
            {"seed", Json(result.seed)},
            {"points", Json(std::move(points))},
        }));
    }
    return Json(Json::Object{
        {"schema", Json(std::uint64_t{1})},
        {"runs", Json(std::move(runs))},
    });
}

Json
toJson(const DriverOptions &options)
{
    const GpuConfig &cfg = options.cfg;
    const CompressorTimings &t = cfg.timings;
    const LatteParams &lp = cfg.latte;
    Json::Object cfg_object{
        {"numSms", Json(cfg.numSms)},
        {"maxWarpsPerSm", Json(cfg.maxWarpsPerSm)},
        {"maxBlocksPerSm", Json(cfg.maxBlocksPerSm)},
        {"schedulersPerSm", Json(cfg.schedulersPerSm)},
        {"warpSize", Json(cfg.warpSize)},
        {"registersPerSm", Json(cfg.registersPerSm)},
        {"sharedMemBytes", Json(cfg.sharedMemBytes)},
        {"l1SizeBytes", Json(cfg.l1.sizeBytes)},
        {"l1LineBytes", Json(cfg.l1.lineBytes)},
        {"l1Assoc", Json(cfg.l1.assoc)},
        {"l1HitLatency", Json(cfg.l1.hitLatency)},
        {"l1TagFactor", Json(cfg.l1.tagFactor)},
        {"l1SubBlockBytes", Json(cfg.l1.subBlockBytes)},
        {"l1MshrEntries", Json(cfg.l1.mshrEntries)},
        {"l1iSizeBytes", Json(cfg.l1iSizeBytes)},
        {"l2SizeBytes", Json(cfg.l2.sizeBytes)},
        {"l2LineBytes", Json(cfg.l2.lineBytes)},
        {"l2Assoc", Json(cfg.l2.assoc)},
        {"l2Banks", Json(cfg.l2.banks)},
        {"l2MinLatency", Json(cfg.l2.minLatency)},
        {"dramMinLatency", Json(cfg.dramMinLatency)},
        {"dramBytesPerCycle", Json(cfg.dramBytesPerCycle)},
        {"nocBytesPerCycle", Json(cfg.nocBytesPerCycle)},
        {"schedPolicy",
         Json(static_cast<std::uint64_t>(cfg.schedPolicy))},
        {"l1Repl", Json(static_cast<std::uint64_t>(cfg.l1Repl))},
        {"decompQueueEntries", Json(cfg.decompQueueEntries)},
    };
    // This JSON is the result-cache fingerprint, so the down-hierarchy
    // compression knobs are emitted only when set off their defaults:
    // every pre-existing configuration keeps its exact RunKey and its
    // cached/journaled cells stay hits.
    if (cfg.l2.compress != LevelCompress::Off)
        cfg_object["l2Compress"] = Json(levelCompressSpec(cfg.l2));
    // Revision of the adaptive L2's decision rules: 2 since it votes
    // with the L1's selector. Cells computed under older rules must
    // not be served from caches or journals.
    if (cfg.l2.compress == LevelCompress::Latte)
        cfg_object["l2SelectorRules"] = Json(std::uint64_t{2});
    if (cfg.linkCompress != CompressorId::None)
        cfg_object["linkCompress"] = Json(linkCompressSpec(cfg.linkCompress));
    {
        constexpr CacheLevelConfig l2_defaults =
            CacheLevelConfig::l2Defaults();
        if (cfg.l2.bankServiceCycles != l2_defaults.bankServiceCycles) {
            cfg_object["l2BankServiceCycles"] =
                Json(cfg.l2.bankServiceCycles);
        }
        if (cfg.l2.missPenaltyCycles != l2_defaults.missPenaltyCycles) {
            cfg_object["l2MissPenaltyCycles"] =
                Json(cfg.l2.missPenaltyCycles);
        }
    }
    return Json(Json::Object{
        {"cfg", Json(std::move(cfg_object))},
        {"timings",
         Json(Json::Object{
             {"bdiCompress", Json(t.bdiCompress)},
             {"bdiDecompress", Json(t.bdiDecompress)},
             {"fpcDecompress", Json(t.fpcDecompress)},
             {"cpackDecompress", Json(t.cpackDecompress)},
             {"bpcCompress", Json(t.bpcCompress)},
             {"bpcDecompress", Json(t.bpcDecompress)},
             {"scCompress", Json(t.scCompress)},
             {"scDecompress", Json(t.scDecompress)},
             {"bdiCompressNj", Json(t.bdiCompressNj)},
             {"bdiDecompressNj", Json(t.bdiDecompressNj)},
             {"scCompressNj", Json(t.scCompressNj)},
             {"scDecompressNj", Json(t.scDecompressNj)},
             {"bpcCompressNj", Json(t.bpcCompressNj)},
             {"bpcDecompressNj", Json(t.bpcDecompressNj)},
         })},
        {"latte",
         Json(Json::Object{
             {"epAccesses", Json(lp.epAccesses)},
             {"periodEps", Json(lp.periodEps)},
             {"learningEps", Json(lp.learningEps)},
             {"dedicatedSetsPerMode", Json(lp.dedicatedSetsPerMode)},
             {"vftEntries", Json(lp.vftEntries)},
             {"vftCounterBits", Json(lp.vftCounterBits)},
         })},
        {"tuning",
         Json(Json::Object{
             {"capacityBenefit", Json(options.tuning.capacityBenefit)},
             {"chargeDecompression",
              Json(options.tuning.chargeDecompression)},
             {"verifyRoundTrip", Json(options.tuning.verifyRoundTrip)},
             {"compressionMemo", Json(options.tuning.compressionMemo)},
         })},
        {"maxInstructionsPerKernel",
         Json(options.maxInstructionsPerKernel)},
        // options.compressBackend and options.simThreads are
        // deliberately absent: this JSON is the result-cache
        // fingerprint (RunKey.configHash), every backend produces
        // bit-identical results and --sim-threads is ignored, so a
        // cached result stays valid whichever value was given.
    });
}

void
flattenNumeric(const Json &json, const std::string &prefix,
               std::map<std::string, double> &out)
{
    switch (json.type()) {
      case Json::Type::Uint:
      case Json::Type::Double:
        out[prefix] = json.asDouble();
        break;
      case Json::Type::Array: {
        const Json::Array &array = json.asArray();
        for (std::size_t i = 0; i < array.size(); ++i)
            flattenNumeric(array[i], strfmt("{}[{}]", prefix, i), out);
        break;
      }
      case Json::Type::Object:
        for (const auto &[key, value] : json.asObject()) {
            flattenNumeric(value,
                           prefix.empty() ? key : prefix + "." + key,
                           out);
        }
        break;
      default:
        break; // booleans, strings and nulls are not metrics
    }
}

} // namespace latte::runner
