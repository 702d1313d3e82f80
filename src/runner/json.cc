#include "json.hh"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/logging.hh"
#include "compress/backend.hh"
#include "compress/compressor.hh"
#include "json_fields.hh"

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
        appendJsonString(out, json.asString());
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
            appendJsonString(out, key);
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

/** Append @p code, at most U+10FFFF, to @p out as UTF-8. */
void
appendUtf8(std::string &out, std::uint32_t code)
{
    // A lead byte (1 + tail high ones past ASCII), six bits per tail byte.
    const int tail = (code >= 0x80) + (code >= 0x800) + (code >= 0x10000);
    out += static_cast<char>(tail ? 0xff << (7 - tail) | code >> (6 * tail)
                                  : code);
    for (int i = tail - 1; i >= 0; --i)
        out += static_cast<char>(0x80 | (code >> (6 * i) & 0x3f));
}

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

    /** The four hex digits after the 'u' at p; leaves p on the last. */
    bool
    hex4(std::uint32_t &code)
    {
        if (end - p < 5 ||
            std::from_chars(p + 1, p + 5, code, 16).ptr != p + 5)
            return fail("\\u escape needs four hex digits");
        p += 4;
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
                    std::uint32_t code = 0, low = 0;
                    if (!hex4(code))
                        return false;
                    // A high surrogate pairs with a low one after it.
                    if ((code & 0xfc00) == 0xd800 && end - p > 2 &&
                        p[1] == '\\' && p[2] == 'u') {
                        p += 2;
                        if (!hex4(low))
                            return false;
                        if ((low & 0xfc00) == 0xdc00)
                            code = 0x10000 + ((code - 0xd800) << 10 |
                                              (low - 0xdc00));
                    }
                    if ((code & 0xf800) == 0xd800)
                        return fail("unpaired surrogate in \\u escape");
                    appendUtf8(out, code);
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
        // An overflow reads as +-inf, which dump() cannot write as JSON.
        if (std::isinf(d))
            return fail(strfmt("number out of range '{}'", text));
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

const CompressorId *
enumFromName(const std::string &name, CompressorId)
{
    for (const CompressorId &id : kCompressorIds) {
        if (name == compressorName(id))
            return &id;
    }
    return nullptr;
}

// The field lists live in the named namespace, where argument-dependent
// lookup from json_fields.hh finds them.

template <typename Io, Of<UsageCounts> S>
void
describe(Io &io, S &usage)
{
    for (const UsageCounter &counter : kUsageCounters) {
        // Below-L1 counts appear only when those levels compressed
        // anything, so documents of L1-only runs keep their bytes.
        io.field(counter.name, usage.*counter.member,
                 counter.belowL1 ? Presence::NonDefault
                                 : Presence::Required);
    }
}

template <typename Io, Of<EnergyReport> S>
void
describe(Io &io, S &energy)
{
    using enum Presence;
    io.field("coreDynamicMj", energy.coreDynamicMj);
    io.field("l1Mj", energy.l1Mj);
    io.field("l2Mj", energy.l2Mj);
    io.field("nocMj", energy.nocMj);
    io.field("dramMj", energy.dramMj);
    io.field("compressionMj", energy.compressionMj);
    io.field("staticMj", energy.staticMj);
    // Per-level terms appear only when nonzero (L1-only documents keep
    // their bytes).
    io.field("l2CompressionMj", energy.l2CompressionMj, NonDefault);
    io.field("linkCompressionMj", energy.linkCompressionMj, NonDefault);
}

template <typename Io, Of<KernelSnapshot> S>
void
describe(Io &io, S &snapshot)
{
    io.field("name", snapshot.name);
    io.field("cycles", snapshot.cycles);
    io.field("instructions", snapshot.instructions);
    io.field("hits", snapshot.hits);
    io.field("misses", snapshot.misses);
    io.field("usage", snapshot.usage);
    io.field("modeAccesses", snapshot.modeAccesses);
}

template <typename Io, Of<PolicyTracePoint> S>
void
describe(Io &io, S &point)
{
    io.field("cycle", point.cycle);
    io.field("tolerance", point.latencyTolerance);
    io.field("mode", point.mode);
    io.field("capacityBytes", point.effectiveCapacityBytes);
    io.field("decompQueueDepth", point.decompQueueDepth);
    io.field("samplerHits", point.samplerHits);
    io.field("samplerMisses", point.samplerMisses);
    // L2-level fields only when a compressed-L2 controller ran.
    if (io.guard("l2Mode", point.hasL2)) {
        io.field("l2Mode", point.l2Mode);
        io.field("l2Tolerance", point.l2Tolerance, Presence::Optional);
    }
}

template <typename Io, Of<WorkloadRunResult> S>
void
describe(Io &io, S &result)
{
    // Bumped 2 -> 3 when the cell document grew the RunOutcome
    // envelope (status/error/attempts/retryHistory); stale cache
    // entries degrade to misses.
    io.constant("schema", 3);
    io.field("workload", result.workload);
    io.field("policyKind", result.policy);
    io.field("policyLabel", result.policyLabel);
    io.field("seed", result.seed);
    io.field("cycles", result.cycles);
    io.field("instructions", result.instructions);
    io.field("hits", result.hits);
    io.field("misses", result.misses);
    io.field("energy", result.energy);
    io.field("kernels", result.kernels);
    io.field("kernelBestModes", result.kernelBestModes);
    io.field("trace", result.trace);
    io.field("modeAccesses", result.modeAccesses);
    io.field("stats", result.stats);
}

template <typename Io, Of<RunError> S>
void
describe(Io &io, S &error)
{
    io.field("code", error.code);
    io.field("message", error.message);
    io.field("workload", error.workload);
    io.field("policyLabel", error.policyLabel);
    io.field("seed", error.seed);
    io.field("cycle", error.cycle);
}

/** The outcome envelope, around the body; "error" is null when ok. */
template <typename Io, Of<RunOutcome> S>
void
describeEnvelope(Io &io, S &outcome)
{
    io.field("status", outcome.status);
    io.field("attempts", outcome.attempts);
    // Optional so pre-simThreads schema-3 cache entries stay valid.
    io.field("simThreads", outcome.simThreads, Presence::Optional);
    io.field("retryHistory", outcome.retryHistory);
}

// The public entry points of the field lists above.
#define LATTE_JSON_CODEC(TYPE)                                           \
    Json toJson(const TYPE &value) { return encodeJson(value); }         \
    bool fromJson(const Json &json, TYPE &value)                         \
    {                                                                    \
        return decodeJson(json, value);                                  \
    }
LATTE_JSON_CODEC(UsageCounts)
LATTE_JSON_CODEC(EnergyReport)
LATTE_JSON_CODEC(KernelSnapshot)
LATTE_JSON_CODEC(PolicyTracePoint)
LATTE_JSON_CODEC(WorkloadRunResult)
LATTE_JSON_CODEC(RunError)
#undef LATTE_JSON_CODEC

Json
toJson(const RunOutcome &outcome)
{
    // No result was produced: emit a zeroed body carrying the cell
    // context, so the export array stays uniformly shaped and failed
    // cells are still attributable.
    WorkloadRunResult stub;
    if (!outcome.result) {
        stub.workload = outcome.error.workload;
        stub.policyLabel = outcome.error.policyLabel;
        stub.seed = outcome.error.seed;
    }
    FieldWriter writer;
    describe(writer, outcome.result ? *outcome.result : stub);
    describeEnvelope(writer, outcome);
    writer.field("error",
                 outcome.error.ok() ? Json() : encodeJson(outcome.error));
    // Metadata only: which SIMD backend the compressors dispatched to.
    // Not part of the cell fingerprint (results are bit-identical
    // across backends), so fromJson() does not require or restore it.
    writer.field("compressBackend",
                 std::string(activeCompressorBackend().name));
    return writer.take();
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
fromJson(const Json &json, RunOutcome &outcome, std::string *error)
{
    RunOutcome fresh;
    Json error_json;
    const auto fields = [&](FieldReader &io) {
        describeEnvelope(io, fresh);
        io.field("error", error_json);
        if (error_json.type() != Json::Type::Null)
            io.field("error", fresh.error);
    };
    if (!decodeJson(json, fields, error))
        return false;
    // The result body is only authoritative on successful outcomes;
    // failed cells keep their context in the error instead.
    if (fresh.ok() && !decodeJson(json, fresh.result.emplace(), error))
        return false;
    outcome = std::move(fresh);
    return true;
}

Json
timelineRunToJson(const WorkloadRunResult &result)
{
    Json::Array points;
    for (const PolicyTracePoint &point : result.trace)
        points.push_back(toJson(point));
    return Json(Json::Object{
        {"workload", Json(result.workload)},
        {"policy", Json(result.policyLabel)},
        {"seed", Json(result.seed)},
        {"points", Json(std::move(points))},
    });
}

/** Both exports are dump(2) documents. */
constexpr int kExportIndent = 2;

ExportWriter
ExportWriter::cells(std::ostream &out)
{
    return ExportWriter(out, 0, "\n");
}

ExportWriter
ExportWriter::timeline(std::ostream &out)
{
    // {"runs": [...], "schema": 1}, keys in dump()'s sorted order.
    out << "{\n  \"runs\": ";
    return ExportWriter(out, 1, ",\n  \"schema\": 1\n}\n");
}

void
ExportWriter::add(const Json &element)
{
    std::string text(empty_ ? "[\n" : ",\n");
    text.append(static_cast<std::size_t>(kExportIndent) * (depth_ + 1), ' ');
    dumpTo(element, text, kExportIndent, depth_ + 1);
    out_ << text;
    empty_ = false;
}

void
ExportWriter::close()
{
    const std::string indent(kExportIndent * depth_, ' ');
    out_ << (empty_ ? "[]" : "\n" + indent + "]") << tail_;
}

Json
toJson(const DriverOptions &options)
{
    const GpuConfig &cfg = options.cfg;
    const CompressorTimings &t = cfg.timings;
    const LatteParams &lp = cfg.latte;
    // warpSize, registersPerSm and l1iSizeBytes are Table II constants
    // the model never reads, and decompQueueEntries is the retired
    // queue-capacity knob; they stay in the fingerprint so every RunKey
    // keeps its bytes.
    Json::Object cfg_object{
        {"numSms", Json(cfg.numSms)},
        {"maxWarpsPerSm", Json(cfg.maxWarpsPerSm)},
        {"maxBlocksPerSm", Json(cfg.maxBlocksPerSm)},
        {"schedulersPerSm", Json(cfg.schedulersPerSm)},
        {"warpSize", Json(32)},
        {"registersPerSm", Json(32768)},
        {"sharedMemBytes", Json(cfg.sharedMemBytes)},
        {"l1SizeBytes", Json(cfg.l1.sizeBytes)},
        {"l1LineBytes", Json(cfg.l1.lineBytes)},
        {"l1Assoc", Json(cfg.l1.assoc)},
        {"l1HitLatency", Json(cfg.l1.hitLatency)},
        {"l1TagFactor", Json(cfg.l1.tagFactor)},
        {"l1SubBlockBytes", Json(cfg.l1.subBlockBytes)},
        {"l1MshrEntries", Json(cfg.l1.mshrEntries)},
        {"l1iSizeBytes", Json(2048)},
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
        {"decompQueueEntries", Json(16)},
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
    // Revision of the compressed L2's energy rules: 2 since its FPC and
    // C-Pack events are priced. Only those two algorithms' rows moved.
    if (cfg.l2.compress == LevelCompress::Static &&
        (cfg.l2.staticAlgo == CompressorId::Fpc ||
         cfg.l2.staticAlgo == CompressorId::CpackZ))
        cfg_object["l2EnergyRules"] = Json(std::uint64_t{2});
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
