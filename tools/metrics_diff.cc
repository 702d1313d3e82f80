/**
 * @file
 * metrics_diff — the run-diff regression gate.
 *
 * Compares every numeric leaf of two result/metrics documents (result
 * JSON from --json, metric JSONL from --metrics-out, or a bench report
 * from --bench-out) and exits non-zero when any per-metric relative
 * delta exceeds its tolerance. CI runs it between the current build's
 * output and a committed (or freshly regenerated) reference to catch
 * silent result drift.
 *
 *   metrics_diff A.json B.json                 # exact compare
 *   metrics_diff A.json B.json --default-tol 0.02
 *   metrics_diff A.json B.json --tol energy=0.05 --tol wall_seconds=1
 *
 * Exit codes: 0 all deltas within tolerance, 1 violations found,
 * 2 usage / IO / parse errors.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "runner/arg_parse.hh"
#include "runner/json.hh"

using latte::runner::Json;

namespace
{

struct ToleranceRule
{
    std::string substring; //!< matched against the flattened key
    double fraction;       //!< allowed relative delta
};

struct Options
{
    std::string pathA;
    std::string pathB;
    std::vector<ToleranceRule> rules;
    double defaultTol = 0.0;
    /** Absolute slack below which a delta never counts (noise floor). */
    double absEps = 1e-12;
    bool showAll = false;
};

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: metrics_diff <a.json> <b.json> [options]\n"
        "  --tol <substr>=<frac>  relative tolerance for metrics whose\n"
        "                         key contains <substr> (first match\n"
        "                         wins, in flag order)\n"
        "  --default-tol <frac>   tolerance for everything else "
        "(default 0)\n"
        "  --abs-eps <x>          ignore absolute deltas below x "
        "(default 1e-12)\n"
        "  --all                  print every compared metric, not just\n"
        "                         violations\n"
        "exit status: 0 clean, 1 tolerance violations, 2 errors\n",
        to);
}

bool
parseArgs(int argc, char **argv, Options &options)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        // Tolerances and the slack are non-negative numbers.
        auto number = [&](const std::string &text, double &out) {
            const std::optional<double> value =
                latte::runner::parseNumber<double>(text);
            if (!value || !(*value >= 0)) {
                std::fprintf(stderr, "%s: bad value '%s'\n", arg.c_str(),
                             text.c_str());
                return false;
            }
            out = *value;
            return true;
        };

        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg == "--tol") {
            const char *text = next();
            if (!text)
                return false;
            const std::string spec = text;
            const std::size_t eq = spec.rfind('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr, "--tol wants <substr>=<frac>, got "
                                     "'%s'\n", spec.c_str());
                return false;
            }
            double fraction = 0;
            if (!number(spec.substr(eq + 1), fraction))
                return false;
            options.rules.push_back({spec.substr(0, eq), fraction});
        } else if (arg == "--default-tol") {
            const char *text = next();
            if (!text || !number(text, options.defaultTol))
                return false;
        } else if (arg == "--abs-eps") {
            const char *text = next();
            if (!text || !number(text, options.absEps))
                return false;
        } else if (arg == "--all") {
            options.showAll = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2) {
        std::fprintf(stderr, "expected exactly two input files\n");
        return false;
    }
    options.pathA = positional[0];
    options.pathB = positional[1];
    return true;
}

/**
 * Load a document: a regular JSON file, or — when whole-file parsing
 * fails — a JSONL stream (--metrics-out), wrapped into one array so
 * both shapes flatten the same way.
 */
bool
loadDocument(const std::string &path, Json &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();

    std::string error;
    out = Json::parse(text.str(), &error);
    if (error.empty())
        return true;

    Json::Array lines;
    std::istringstream stream(text.str());
    std::string line;
    while (std::getline(stream, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::string line_error;
        Json value = Json::parse(line, &line_error);
        if (!line_error.empty()) {
            std::fprintf(stderr, "cannot parse '%s': %s\n", path.c_str(),
                         error.c_str());
            return false;
        }
        lines.push_back(std::move(value));
    }
    out = Json(std::move(lines));
    return true;
}

double
toleranceFor(const Options &options, const std::string &key)
{
    for (const ToleranceRule &rule : options.rules) {
        if (key.find(rule.substring) != std::string::npos)
            return rule.fraction;
    }
    return options.defaultTol;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        usage(stderr);
        return 2;
    }

    Json a, b;
    if (!loadDocument(options.pathA, a) ||
        !loadDocument(options.pathB, b)) {
        return 2;
    }

    std::map<std::string, double> flat_a, flat_b;
    latte::runner::flattenNumeric(a, "", flat_a);
    latte::runner::flattenNumeric(b, "", flat_b);

    std::size_t compared = 0;
    std::size_t violations = 0;

    for (const auto &[key, va] : flat_a) {
        const auto it = flat_b.find(key);
        if (it == flat_b.end()) {
            ++violations;
            std::printf("MISSING  %-48s only in %s\n", key.c_str(),
                        options.pathA.c_str());
            continue;
        }
        const double vb = it->second;
        ++compared;

        const double delta = std::abs(va - vb);
        const double scale = std::max(std::abs(va), std::abs(vb));
        const double rel = scale > 0 ? delta / scale : 0.0;
        const double tol = toleranceFor(options, key);
        const bool violated = rel > tol && delta > options.absEps;

        if (violated) {
            ++violations;
            std::printf("FAIL     %-48s %.17g -> %.17g  (rel %.3g > "
                        "tol %.3g)\n",
                        key.c_str(), va, vb, rel, tol);
        } else if (options.showAll) {
            std::printf("ok       %-48s %.17g -> %.17g  (rel %.3g)\n",
                        key.c_str(), va, vb, rel);
        }
    }
    for (const auto &[key, vb] : flat_b) {
        if (!flat_a.count(key)) {
            ++violations;
            std::printf("MISSING  %-48s only in %s\n", key.c_str(),
                        options.pathB.c_str());
        }
    }

    std::printf("%zu metrics compared, %zu violation%s\n", compared,
                violations, violations == 1 ? "" : "s");
    return violations ? 1 : 0;
}
