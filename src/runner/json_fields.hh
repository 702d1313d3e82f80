/**
 * @file
 * Field lists: each serialized struct names its fields once, in a
 * describe(io, s) template that FieldWriter walks over a const struct
 * and FieldReader over a mutable one. The reader type-checks each field
 * and stops at the first problem, reported by its path
 * ("kernels[2].cycles: expected a non-negative integer"). Integers take
 * a Uint or an integral Double, range-checked against their field.
 */

#ifndef LATTE_RUNNER_JSON_FIELDS_HH
#define LATTE_RUNNER_JSON_FIELDS_HH

#include <cmath>
#include <concepts>
#include <limits>
#include <type_traits>

#include "common/logging.hh"
#include "json.hh"

namespace latte::runner
{

/** S is T, or const T: one describe() serves both directions. */
template <typename S, typename T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

enum class Presence
{
    Required,   //!< always written; absent on read is an error
    Optional,   //!< always written; absent on read keeps the default
    NonDefault, //!< a number written only when nonzero; may be absent
};

inline const char *enumName(CompressorId v) { return compressorName(v); }
inline const char *enumName(PolicyKind v) { return policyName(v); }
inline const char *enumName(RunStatus v) { return runStatusName(v); }
inline const char *enumName(RunErrorCode v) { return runErrorCodeName(v); }
// Reverse lookups; nullptr if @p name is unknown. The unnamed argument
// selects the enum.
const CompressorId *enumFromName(const std::string &name, CompressorId);

inline const PolicyKind *
enumFromName(const std::string &name, PolicyKind)
{
    return policyKindFromName(name);
}

inline const RunStatus *
enumFromName(const std::string &name, RunStatus)
{
    return runStatusFromName(name);
}

inline const RunErrorCode *
enumFromName(const std::string &name, RunErrorCode)
{
    return runErrorCodeFromName(name);
}

/** The first problem a decode met: where, and what. */
struct DecodeError
{
    std::string path; //!< "kernels[2].cycles"; empty at the root
    std::string message;

    /** Records @p text; false, so callers can `return fail(...)`. */
    bool
    fail(std::string text)
    {
        message = std::move(text);
        return false;
    }

    /** Prefixes the path with an enclosing key or "[i]"; false. */
    bool
    within(const std::string &segment)
    {
        path = segment + (path.empty() || path[0] == '[' ? "" : ".") + path;
        return false;
    }
};

template <typename T>
Json encodeJson(const T &value);
template <typename T>
bool decodeValue(const Json &json, T &out, DecodeError &error);

/** Walks a describe() over a const struct, building its object. */
class FieldWriter
{
  public:
    template <typename T>
    void
    field(const char *key, const T &value,
          Presence presence = Presence::Required)
    {
        if constexpr (std::is_arithmetic_v<T>) {
            if (presence == Presence::NonDefault && value == T{})
                return;
        }
        object_.emplace(key, encodeJson(value));
    }

    /** Guarded fields are written only when @p flag is set. */
    bool guard(const char *, bool flag) const { return flag; }
    /** A version tag the reader insists on. */
    void constant(const char *key, std::uint64_t value) { field(key, value); }
    Json take() { return Json(std::move(object_)); }

  private:
    Json::Object object_;
};

/**
 * Walks a describe() over a struct, decoding each field in place. After
 * the first problem ok() is false and later fields are skipped.
 */
class FieldReader
{
  public:
    FieldReader(const Json::Object &object, DecodeError &error)
        : object_(object), error_(error)
    {}

    template <typename T>
    void
    field(const char *key, T &value, Presence presence = Presence::Required)
    {
        const Json *json = find(key, presence == Presence::Required);
        if (json && !decodeValue(*json, value, error_))
            error_.within(key);
    }

    /** Sets @p flag to whether @p key is present. */
    bool
    guard(const char *key, bool &flag)
    {
        flag = ok() && object_.count(key) != 0;
        return flag;
    }

    void
    constant(const char *key, std::uint64_t value)
    {
        std::uint64_t found = value;
        field(key, found);
        if (found != value) {
            error_.path = key;
            error_.fail(strfmt("expected {}", value));
        }
    }

    bool ok() const { return error_.message.empty(); }

  private:
    const Json *
    find(const char *key, bool required)
    {
        const auto it = ok() ? object_.find(key) : object_.end();
        if (it != object_.end())
            return &it->second;
        if (ok() && required) {
            error_.path = key;
            error_.fail("missing");
        }
        return nullptr;
    }

    const Json::Object &object_;
    DecodeError &error_;
};

template <typename T>
Json
encodeJson(const T &value)
{
    if constexpr (std::is_enum_v<T>) {
        return Json(enumName(value));
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
        if (value < T{})
            return Json(static_cast<double>(value));
        return Json(static_cast<std::uint64_t>(value));
    } else if constexpr (std::is_constructible_v<Json, const T &>) {
        return Json(value); // bool, double, std::string, Json
    } else if constexpr (requires { typename T::mapped_type; }) {
        Json::Object object;
        for (const auto &[key, item] : value)
            object.emplace_hint(object.end(), key, encodeJson(item));
        return Json(std::move(object));
    } else if constexpr (requires { value.size(); }) {
        Json::Array array;
        array.reserve(value.size());
        for (const auto &item : value)
            array.push_back(encodeJson(item));
        return Json(std::move(array));
    } else {
        FieldWriter writer;
        describe(writer, value);
        return writer.take();
    }
}

template <typename T>
bool
decodeValue(const Json &json, T &out, DecodeError &error)
{
    using Type = Json::Type;
    if constexpr (std::is_same_v<T, Json>) {
        out = json;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (json.type() != Type::Bool)
            return error.fail("expected a bool");
        out = json.asBool();
    } else if constexpr (std::is_integral_v<T>) {
        using Limits = std::numeric_limits<T>;
        const bool is_uint = json.type() == Type::Uint;
        const double d = json.isNumber() ? json.asDouble() : NAN;
        if (!is_uint &&
            !(d == std::trunc(d) && (Limits::is_signed || d >= 0))) {
            return error.fail(Limits::is_signed
                                  ? "expected an integer"
                                  : "expected a non-negative integer");
        }
        // max + 1.0 is a power of two and the bound is exclusive, so
        // the casts below only see values T can hold.
        if (is_uint ? json.asUint() > std::uint64_t{Limits::max()}
                    : !(d >= static_cast<double>(Limits::min()) &&
                        d < static_cast<double>(Limits::max()) + 1.0))
            return error.fail("out of range");
        out = is_uint ? static_cast<T>(json.asUint()) : static_cast<T>(d);
    } else if constexpr (std::is_same_v<T, double>) {
        if (!json.isNumber())
            return error.fail("expected a number");
        out = json.asDouble();
    } else if constexpr (std::is_same_v<T, std::string> ||
                         std::is_enum_v<T>) {
        if (json.type() != Type::String)
            return error.fail("expected a string");
        if constexpr (std::is_enum_v<T>) {
            const T *found = enumFromName(json.asString(), T{});
            if (!found)
                return error.fail("unknown name '" + json.asString() + "'");
            out = *found;
        } else {
            out = json.asString();
        }
    } else if constexpr (requires { typename T::mapped_type; }) {
        if (json.type() != Type::Object)
            return error.fail("expected an object");
        out.clear();
        for (const auto &[key, item] : json.asObject()) {
            if (!decodeValue(item, out[key], error))
                return error.within(key);
        }
    } else if constexpr (requires { out.size(); }) {
        if (json.type() != Type::Array)
            return error.fail("expected an array");
        const Json::Array &array = json.asArray();
        if constexpr (requires { out.resize(0); })
            out.assign(array.size(), typename T::value_type{});
        if (array.size() != out.size())
            return error.fail(strfmt("expected {} elements", out.size()));
        for (std::size_t i = 0; i < array.size(); ++i) {
            if (!decodeValue(array[i], out[i], error))
                return error.within(strfmt("[{}]", i));
        }
    } else {
        if (json.type() != Type::Object)
            return error.fail("expected an object");
        FieldReader reader(json.asObject(), error);
        if constexpr (std::is_invocable_v<T &, FieldReader &>)
            out(reader);
        else
            describe(reader, out);
        return reader.ok();
    }
    return true;
}

/**
 * Decode @p json into @p out: any value decodeValue() handles, or a
 * callable that reads an object's fields itself through a FieldReader.
 * On failure @p error (when given) receives "path: message".
 */
template <typename T>
bool
decodeJson(const Json &json, T &out, std::string *error = nullptr)
{
    DecodeError problem;
    const bool ok = decodeValue(json, out, problem);
    if (!ok && error) {
        *error = problem.path.empty()
                     ? problem.message
                     : problem.path + ": " + problem.message;
    }
    return ok;
}

} // namespace latte::runner

#endif // LATTE_RUNNER_JSON_FIELDS_HH
