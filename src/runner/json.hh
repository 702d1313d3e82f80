/**
 * @file
 * A minimal self-contained JSON value type plus serializers for the
 * driver's result structs. Built for two jobs: the on-disk experiment
 * result cache (exact round-trip, so unsigned 64-bit counters and
 * doubles are preserved bit-for-bit) and `--json` result export from
 * the bench harnesses.
 *
 * Serialization is canonical: object keys are emitted in sorted order
 * and doubles are printed with round-trippable precision, so the same
 * WorkloadRunResult always produces byte-identical text — the property
 * the determinism tests assert across thread counts.
 */

#ifndef LATTE_RUNNER_JSON_HH
#define LATTE_RUNNER_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/driver.hh"

namespace latte::runner
{

/** A JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Uint,    //!< integer token that fits std::uint64_t
        Double,  //!< any other number
        String,
        Array,
        Object,
    };

    using Array = std::vector<Json>;
    /** std::map keeps key order canonical for byte-stable dumps. */
    using Object = std::map<std::string, Json>;

    Json() = default;
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(std::uint64_t u) : type_(Type::Uint), uint_(u) {}
    Json(std::uint32_t u) : Json(static_cast<std::uint64_t>(u)) {}
    Json(int i) : Json(static_cast<std::uint64_t>(i)) {}
    Json(double d) : type_(Type::Double), double_(d) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
    Json(const char *s) : Json(std::string(s)) {}
    Json(Array a) : type_(Type::Array), array_(std::move(a)) {}
    Json(Object o) : type_(Type::Object), object_(std::move(o)) {}

    Type type() const { return type_; }
    bool isNumber() const
    {
        return type_ == Type::Uint || type_ == Type::Double;
    }

    bool asBool() const;
    std::uint64_t asUint() const;
    double asDouble() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object member access; dies if absent — use contains() first. */
    const Json &at(const std::string &key) const;
    bool contains(const std::string &key) const;

    /** Serialize. @p indent < 0 means compact single-line output. */
    std::string dump(int indent = -1) const;

    /**
     * Deepest array/object nesting parse() accepts. Deeper input is a
     * parse error rather than a stack overflow; the repository's own
     * documents nest fewer than ten levels.
     */
    static constexpr int kMaxDepth = 256;

    /**
     * Parse @p text. On failure returns a Null value and, when @p error
     * is non-null, stores a message describing the first problem.
     */
    static Json parse(const std::string &text,
                      std::string *error = nullptr);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

// --- Result serialization ----------------------------------------------

Json toJson(const UsageCounts &usage);
Json toJson(const EnergyReport &energy);
Json toJson(const KernelSnapshot &snapshot);
Json toJson(const PolicyTracePoint &point);
Json toJson(const WorkloadRunResult &result);
Json toJson(const RunError &error);

/**
 * The schema-3 cell document: the result body (or a zeroed stub
 * carrying the cell context when the run failed) extended with the
 * outcome envelope — "status", "error" (null when ok), "attempts" and
 * "retryHistory". This is what the result cache persists and what the
 * sweep --json export emits, so failed cells still appear in partial
 * results with their cause and retry history.
 */
Json toJson(const RunOutcome &outcome);

/**
 * The sweep export document as one tree: every outcome as a schema-3
 * cell document in sweep order. Front ends stream the same bytes with
 * ExportWriter::cells() instead of building it.
 */
Json outcomesToJson(const std::vector<RunOutcome> &outcomes);

/** Canonical dump of every DriverOptions field (cache-key material). */
Json toJson(const DriverOptions &options);

/**
 * One run of the --timeline-out document: its per-EP time series
 * (latency tolerance, chosen mode, effective capacity,
 * decompression-queue occupancy, sampler counters).
 */
Json timelineRunToJson(const WorkloadRunResult &result);

/**
 * Streams the --json or --timeline-out document one cell at a time: the
 * text is dump(2) of the whole document plus a newline, byte for byte,
 * while only the cell being added has a Json tree.
 */
class ExportWriter
{
  public:
    /** The --json export; add() each cell's toJson(outcome). */
    static ExportWriter cells(std::ostream &out);
    /** The --timeline-out document; add() each timelineRunToJson(). */
    static ExportWriter timeline(std::ostream &out);

    void add(const Json &element);
    /** Close the array and write the rest of the document. */
    void close();

  private:
    ExportWriter(std::ostream &out, int depth, const char *tail)
        : out_(out), depth_(depth), tail_(tail)
    {}

    std::ostream &out_;
    int depth_;        //!< of the array in the document
    const char *tail_; //!< the document text after the array
    bool empty_ = true;
};

/**
 * Flatten every numeric leaf of @p json into @p out under dotted key
 * paths rooted at @p prefix: object members as `parent.child`, array
 * elements as `parent[i]`. Booleans, strings and nulls are skipped.
 * Used by metrics_diff to compare two arbitrary result documents
 * metric by metric.
 */
void flattenNumeric(const Json &json, const std::string &prefix,
                    std::map<std::string, double> &out);

/**
 * Reconstruction, for disk-cache hits and journal replay. False on a
 * missing or mistyped field, which @p error (when given) names by path.
 */
bool fromJson(const Json &json, UsageCounts &usage);
bool fromJson(const Json &json, EnergyReport &energy);
bool fromJson(const Json &json, KernelSnapshot &snapshot);
bool fromJson(const Json &json, PolicyTracePoint &point);
bool fromJson(const Json &json, WorkloadRunResult &result);
bool fromJson(const Json &json, RunError &error);
bool fromJson(const Json &json, RunOutcome &outcome,
              std::string *error = nullptr);

} // namespace latte::runner

#endif // LATTE_RUNNER_JSON_HH
