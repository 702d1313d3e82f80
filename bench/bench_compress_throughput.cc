/**
 * @file
 * Throughput gate for the compression hot path: lines/second of the
 * size-only probe() vs the full compress() (and decompressInto()) for
 * all five algorithms, over the same mixed value corpus the workloads
 * synthesise. Emits canonical JSON (BENCH_compress.json by default) so
 * CI can track the probe speedup as an artifact; the acceptance bars
 * are probe >= 2x compress on at least three of the five algorithms
 * (measured on the scalar reference kernels, so the ratio stays a
 * property of the algorithm design), and per-line probe() on the best
 * SIMD backend >= 2x the scalar BDI+FPC mix. That mix is a kernel
 * gate, not the simulator's blend: an L1 fill probes BDI, SC or BPC,
 * one fill at a time, and never FPC.
 *
 * Both verdicts read median per-pair ratios: probe against compress
 * per algorithm, and the blend on the scalar row against the best
 * row, each over kRatioPairs alternating pairs and printed with their
 * quartiles. FPC's and SC's medians sit at the 2x bar, so the count of
 * algorithms at or above it meets its bar of 3 on most runs but not
 * all: 15 runs on a 4-core Xeon (gcc 12.2, Release) read 3 in 11 and
 * 2 in 4 (four consecutive runs, as the host's load drifted), with
 * BDI's median about 5x, FPC's 2.00-2.13x and SC's 1.90-2.16x. C-PACK
 * and BPC share their encoder with probe(), so theirs is about 1.1x by
 * construction.
 *
 * The synthetic corpus can rank backends differently from the lines
 * the simulator probes, so a last table times BDI and SC probe() per
 * backend over the L1 fill stream of perfbench hotloop's cells (the 11
 * C-Sens workloads under LATTE-CC at seed 1), recorded by running them.
 *
 *   bench_compress_throughput [--json out.json] [--lines N] [--reps R]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compress/backend.hh"
#include "compress/engines.hh"
#include "core/driver.hh"
#include "core/policies.hh"
#include "runner/json.hh"
#include "workloads/value_gens.hh"
#include "workloads/zoo.hh"

using namespace latte;
using namespace latte::runner;

namespace
{

using Line = std::array<std::uint8_t, kLineBytes>;
using Clock = std::chrono::steady_clock;

/** The blend of value profiles the workloads use (as in Table I). */
std::vector<Line>
corpus(std::uint64_t seed, unsigned n)
{
    std::vector<std::shared_ptr<LineGenerator>> gens = {
        std::make_shared<IntArrayGen>(seed, 1000, 3, 5),
        std::make_shared<IntArrayGen>(seed ^ 1, 5, 50000, 0),
        std::make_shared<PaletteGen>(seed ^ 2, 64, true, 1.2, 0.15),
        std::make_shared<PointerArrayGen>(seed ^ 3, 0x7f0000000000ull,
                                          1 << 20),
        std::make_shared<ZeroGen>(),
        std::make_shared<FloatNoiseGen>(seed ^ 4, 1.0f, 0.8f),
    };
    std::vector<Line> lines(n);
    for (unsigned i = 0; i < n; ++i)
        gens[i % gens.size()]->generate(i * 128, lines[i]);
    return lines;
}

/** Probe/compress pairs per algorithm; odd, so the median is a pair. */
constexpr unsigned kRatioPairs = 11;

/** The five engines at default timings, SC trained on @p lines. */
CompressionEngines
trainedEngines(const std::vector<Line> &lines)
{
    CompressionEngines engines{GpuConfig{}};
    for (const auto &line : lines)
        engines.sc.trainLine(line);
    engines.sc.rebuildCodes();
    return engines;
}

/**
 * Run @p op over the corpus @p reps times and return the best
 * lines/second (best-of-reps damps scheduler noise on shared machines).
 * @p op must return a value that depends on its work so the compiler
 * cannot elide the loop; the checksum is folded into @p sink.
 */
template <typename Op>
double
measure(const std::vector<Line> &lines, unsigned reps, std::uint64_t &sink,
        Op &&op)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        std::uint64_t checksum = 0;
        for (const auto &line : lines)
            checksum += op(line);
        const auto stop = Clock::now();
        sink ^= checksum;
        const double seconds =
            std::chrono::duration<double>(stop - start).count();
        if (seconds > 0)
            best = std::max(best,
                            static_cast<double>(lines.size()) / seconds);
    }
    return best;
}

/** Lines/second of a BDI+FPC blend from the two per-algo rates. */
double
mixRate(double bdi, double fpc)
{
    if (bdi <= 0 || fpc <= 0)
        return 0;
    return 2.0 / (1.0 / bdi + 1.0 / fpc);
}

/**
 * The L1 fill stream of one cell: the bytes of every BDI and SC fill,
 * in fill order. Each SC fill also names the SC engine it was probed
 * with: a copy of its SM's engine, taken once per code generation.
 */
struct FillStream
{
    std::vector<Line> bdi;
    std::vector<Line> sc;
    std::vector<std::uint32_t> scEngine; //!< parallel to sc
    std::vector<std::unique_ptr<ScCompressor>> engines;
};

/** LATTE-CC that also keeps each fill's mode and bytes. */
class FillRecorder final : public LatteCcPolicy
{
  public:
    FillRecorder(const GpuConfig &cfg, FillStream &stream)
        : LatteCcPolicy(cfg), stream_(stream)
    {}

    void
    observeInsertion(Cycles now, std::uint32_t set_index,
                     CompressorId mode,
                     std::span<const std::uint8_t> data) override
    {
        LatteCcPolicy::observeInsertion(now, set_index, mode, data);
        Line line;
        std::copy(data.begin(), data.end(), line.begin());
        if (mode == CompressorId::Bdi) {
            stream_.bdi.push_back(line);
        } else if (mode == CompressorId::Sc) {
            const ScCompressor &sc = engines_->sc;
            if (generation_ != sc.generation()) {
                generation_ = sc.generation();
                engine_ = static_cast<std::uint32_t>(
                    stream_.engines.size());
                stream_.engines.push_back(
                    std::make_unique<ScCompressor>(sc));
            }
            stream_.sc.push_back(line);
            stream_.scEngine.push_back(engine_);
        }
    }

  private:
    FillStream &stream_;
    /** The generation of the last engine copy; none before the first. */
    std::optional<std::uint32_t> generation_;
    std::uint32_t engine_ = 0;
};

/** Run @p workload as perfbench hotloop does and record its fills. */
FillStream
recordFills(const Workload &workload, std::uint64_t seed)
{
    FillStream stream;
    RunRequest request;
    request.workload = &workload;
    request.seed = seed;
    request.policy = PolicyFactory([&stream](const GpuConfig &cfg) {
        return std::make_unique<FillRecorder>(cfg, stream);
    });
    const RunOutcome outcome = latte::run(request);
    if (!outcome.ok()) {
        std::cerr << "fill-stream cell " << workload.abbr
                  << " failed: " << outcome.error.message << "\n";
        std::exit(1);
    }
    return stream;
}

/** Nanoseconds of @p op(i) for i in [0, n); folds into @p sink. */
template <typename Op>
double
timePass(std::size_t n, std::uint64_t &sink, Op &&op)
{
    const auto start = Clock::now();
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < n; ++i)
        checksum += op(i);
    const auto stop = Clock::now();
    sink ^= checksum;
    return std::chrono::duration<double, std::nano>(stop - start).count();
}

/** One backend's probe time over the whole fill stream. */
struct FillTiming
{
    double bdiNs = 0;
    double scNs = 0;
};

/** Lower quartile, median and upper quartile (nearest rank). */
struct Quartiles
{
    double q1 = 0;
    double median = 0;
    double q3 = 0;
};

Quartiles
quartiles(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return {xs[n / 4], xs[n / 2], xs[3 * n / 4]};
}

/** Two sides' median pass times and the quartiles of their ratio. */
struct PairedTiming
{
    double slowNs = 0;
    double fastNs = 0;
    Quartiles ratio; //!< slow ns / fast ns, per pair
};

/**
 * Time @p slow() and @p fast(), each returning one pass's nanoseconds,
 * in kRatioPairs pairs, alternating which runs first so neither always
 * finds the caches the other left. Both sides of a pair share the
 * host's load, so a noisy moment moves their ratio far less than it
 * moves a best-of rate.
 */
template <typename Slow, typename Fast>
PairedTiming
timePairs(Slow &&slow, Fast &&fast)
{
    std::vector<double> slow_ns, fast_ns, ratios;
    for (unsigned pair = 0; pair < kRatioPairs; ++pair) {
        if (pair % 2 == 0) {
            slow_ns.push_back(slow());
            fast_ns.push_back(fast());
        } else {
            fast_ns.push_back(fast());
            slow_ns.push_back(slow());
        }
        ratios.push_back(slow_ns.back() / fast_ns.back());
    }
    return {quartiles(slow_ns).median, quartiles(fast_ns).median,
            quartiles(ratios)};
}

struct AlgoResult
{
    const char *name = "";
    double probeLinesPerSec = 0;    //!< median pass
    double compressLinesPerSec = 0; //!< median pass
    double decompressLinesPerSec = 0;
    Quartiles probeSpeedup;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_compress.json";
    unsigned n_lines = 4096;
    unsigned reps = 5;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--lines" && i + 1 < argc) {
            n_lines = static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = static_cast<unsigned>(std::stoul(argv[++i]));
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--json out.json] [--lines N] [--reps R]\n";
            return 2;
        }
    }

    const auto lines = corpus(7, n_lines);
    std::uint64_t sink = 0;
    std::vector<AlgoResult> results;
    unsigned fast_probes = 0;

    CompressionEngines engines = trainedEngines(lines);

    // The per-algorithm table measures the portable scalar reference
    // kernels, so the probe/compress ratios characterise the algorithm
    // design and stay comparable across hosts; the SIMD tiers are
    // compared against each other (and against this baseline) below.
    const CompressorBackend &entry_backend = activeCompressorBackend();
    const CompressorBackend &scalar =
        *resolveCompressorBackend("scalar", nullptr);
    setCompressorBackend(scalar);
    const auto lines_per_sec = [&](double ns) {
        return static_cast<double>(lines.size()) * 1e9 / ns;
    };
    const auto probe_pass = [&](Compressor &engine) {
        return timePass(lines.size(), sink, [&](std::size_t i) {
            return engine.probe(lines[i]).sizeBits;
        });
    };

    for (const CompressorId id : kAlgorithmIds) {
        Compressor &engine = *engines.get(id);
        AlgoResult res;
        res.name = compressorName(id);

        const PairedTiming timing = timePairs(
            [&] {
                return timePass(lines.size(), sink, [&](std::size_t i) {
                    return engine.compress(lines[i]).sizeBits;
                });
            },
            [&] { return probe_pass(engine); });
        res.compressLinesPerSec = lines_per_sec(timing.slowNs);
        res.probeLinesPerSec = lines_per_sec(timing.fastNs);
        res.probeSpeedup = timing.ratio;

        std::vector<CompressedLine> compressed;
        compressed.reserve(lines.size());
        for (const auto &line : lines)
            compressed.push_back(engine.compress(line));
        std::size_t i = 0;
        Line scratch;
        res.decompressLinesPerSec = measure(
            lines, reps, sink, [&](const Line &) {
                engine.decompressInto(compressed[i++ % compressed.size()],
                                      scratch);
                return static_cast<std::uint64_t>(scratch[0]);
            });

        if (res.probeSpeedup.median >= 2.0)
            ++fast_probes;
        results.push_back(res);
    }

    std::cout << "=== compression hot-path throughput (" << n_lines
              << " lines; probe and compress: median of " << kRatioPairs
              << " alternating pairs, decomp: best of " << reps
              << ") ===\n";
    std::cout << std::left << std::setw(10) << "algo" << std::right
              << std::setw(16) << "probe (l/s)" << std::setw(16)
              << "compress (l/s)" << std::setw(16) << "decomp (l/s)"
              << std::setw(22) << "probe/comp [q1, q3]" << "\n";
    for (const auto &res : results) {
        std::cout << std::left << std::setw(10) << res.name << std::right
                  << std::fixed << std::setprecision(0) << std::setw(16)
                  << res.probeLinesPerSec << std::setw(16)
                  << res.compressLinesPerSec << std::setw(16)
                  << res.decompressLinesPerSec << std::setprecision(2)
                  << std::setw(8) << res.probeSpeedup.median << " ["
                  << res.probeSpeedup.q1 << ", " << res.probeSpeedup.q3
                  << "]\n";
    }

    // --- Backend sweep: per-line probe() per dispatch tier, best of
    // reps. The headline number (the CI gate) is how much faster the
    // best backend runs the BDI+FPC blend than the scalar row. It gates
    // the kernels; the L1 never probes FPC (the fill-stream table below
    // times its modes).
    Json::Object backends_json;
    double scalar_mix = 0;
    double best_mix = 0;
    const CompressorBackend *best_backend = &scalar;
    std::cout << "\n=== probe() by backend (l/s) ===\n";
    std::cout << std::left << std::setw(10) << "backend";
    for (const CompressorId id : kAlgorithmIds)
        std::cout << std::right << std::setw(12) << compressorName(id);
    std::cout << std::right << std::setw(14) << "bdi+fpc mix" << "\n";
    for (const CompressorBackend &backend : compressorBackends()) {
        if (!compressorBackendSupported(backend))
            continue;
        setCompressorBackend(backend);
        Json::Object per_algo;
        double bdi_rate = 0, fpc_rate = 0;
        std::cout << std::left << std::setw(10) << backend.name
                  << std::right << std::fixed << std::setprecision(0);
        for (const CompressorId id : kAlgorithmIds) {
            Compressor &engine = *engines.get(id);
            const double rate =
                measure(lines, reps, sink, [&](const Line &line) {
                    return engine.probe(line).sizeBits;
                });
            per_algo.emplace(compressorName(id), Json(rate));
            std::cout << std::setw(12) << rate;
            if (id == CompressorId::Bdi)
                bdi_rate = rate;
            else if (id == CompressorId::Fpc)
                fpc_rate = rate;
        }
        const double mix = mixRate(bdi_rate, fpc_rate);
        per_algo.emplace("bdiFpcMixLinesPerSec", Json(mix));
        backends_json.emplace(backend.name, Json(std::move(per_algo)));
        std::cout << std::setw(14) << mix << "\n";
        if (&backend == &scalar)
            scalar_mix = mix;
        if (mix > best_mix) {
            best_mix = mix;
            best_backend = &backend;
        }
    }

    // The gate reads the blend on the scalar and the best row in
    // alternating pairs, as the verdict above reads probe and compress.
    const auto blend_pass = [&](const CompressorBackend &backend) {
        setCompressorBackend(backend);
        return probe_pass(engines.bdi) + probe_pass(engines.fpc);
    };
    const Quartiles mix_speedup =
        timePairs([&] { return blend_pass(scalar); },
                  [&] { return blend_pass(*best_backend); })
            .ratio;

    // --- Fill-stream table: probe() per backend over the lines
    // hotloop's cells fill, one cell's stream held at a time. Each
    // backend keeps its best of reps per cell, summed over the cells.
    constexpr std::uint64_t kFillSeed = 1;
    std::vector<const CompressorBackend *> supported;
    for (const CompressorBackend &backend : compressorBackends()) {
        if (compressorBackendSupported(backend))
            supported.push_back(&backend);
    }
    std::vector<FillTiming> fill_ns(supported.size());
    std::uint64_t bdi_fills = 0, sc_fills = 0;
    Compressor &bdi = engines.bdi;
    const std::vector<const Workload *> cells = workloadsByCategory(true);
    for (const Workload *workload : cells) {
        const FillStream stream = recordFills(*workload, kFillSeed);
        bdi_fills += stream.bdi.size();
        sc_fills += stream.sc.size();
        constexpr double kNever = std::numeric_limits<double>::infinity();
        std::vector<FillTiming> best(supported.size(), {kNever, kNever});
        for (unsigned r = 0; r < reps; ++r) {
            for (std::size_t b = 0; b < supported.size(); ++b) {
                setCompressorBackend(*supported[b]);
                best[b].bdiNs = std::min(
                    best[b].bdiNs,
                    timePass(stream.bdi.size(), sink, [&](std::size_t i) {
                        return bdi.probe(stream.bdi[i]).sizeBits;
                    }));
                best[b].scNs = std::min(
                    best[b].scNs,
                    timePass(stream.sc.size(), sink, [&](std::size_t i) {
                        return stream.engines[stream.scEngine[i]]
                            ->probe(stream.sc[i])
                            .sizeBits;
                    }));
            }
        }
        for (std::size_t b = 0; b < supported.size(); ++b) {
            fill_ns[b].bdiNs += best[b].bdiNs;
            fill_ns[b].scNs += best[b].scNs;
        }
    }
    setCompressorBackend(entry_backend);
    const auto per_line = [](double ns, std::uint64_t lines) {
        return lines > 0 ? ns / static_cast<double>(lines) : 0.0;
    };

    Json::Object fill_backends;
    std::cout << "\n=== probe() ns/line over the L1 fill stream ("
              << cells.size() << " hotloop cells, seed " << kFillSeed
              << ") ===\n"
              << std::left << std::setw(10) << "backend" << std::right
              << std::setw(12) << "BDI" << std::setw(12) << "SC" << "\n";
    for (std::size_t b = 0; b < supported.size(); ++b) {
        const double bdi_ns = per_line(fill_ns[b].bdiNs, bdi_fills);
        const double sc_ns = per_line(fill_ns[b].scNs, sc_fills);
        std::cout << std::left << std::setw(10) << supported[b]->name
                  << std::right << std::fixed << std::setprecision(1)
                  << std::setw(12) << bdi_ns << std::setw(12) << sc_ns
                  << "\n";
        fill_backends.emplace(supported[b]->name,
                              Json(Json::Object{
                                  {"bdiNsPerLine", Json(bdi_ns)},
                                  {"scNsPerLine", Json(sc_ns)},
                              }));
    }
    std::cout << "(" << bdi_fills << " BDI fills, " << sc_fills
              << " SC fills; best of " << reps << " per cell)\n";

    std::cout << fast_probes
              << "/5 algorithms with median probe >= 2x compress "
                 "(gate: >= 3)\n"
              << std::setprecision(2) << "bdi+fpc mix: probe() on "
              << best_backend->name << " is " << mix_speedup.median
              << "x the scalar row [" << mix_speedup.q1 << ", "
              << mix_speedup.q3 << "] (gate: >= 2)\n"
              << "(checksum " << sink << ")\n";

    Json::Object algos;
    for (const auto &res : results) {
        algos.emplace(
            res.name,
            Json(Json::Object{
                {"probeLinesPerSec", Json(res.probeLinesPerSec)},
                {"compressLinesPerSec", Json(res.compressLinesPerSec)},
                {"decompressLinesPerSec", Json(res.decompressLinesPerSec)},
                {"probeSpeedup", Json(res.probeSpeedup.median)},
                {"probeSpeedupQ1", Json(res.probeSpeedup.q1)},
                {"probeSpeedupQ3", Json(res.probeSpeedup.q3)},
            }));
    }
    const Json doc(Json::Object{
        {"benchmark", Json(std::string("compress_throughput"))},
        {"lineBytes", Json(std::uint64_t{kLineBytes})},
        {"lines", Json(std::uint64_t{n_lines})},
        {"reps", Json(std::uint64_t{reps})},
        {"ratioPairs", Json(std::uint64_t{kRatioPairs})},
        {"probeAtLeast2xCount", Json(std::uint64_t{fast_probes})},
        {"algorithms", Json(std::move(algos))},
        {"backend", Json(std::string(entry_backend.name))},
        {"backends", Json(std::move(backends_json))},
        {"bestBackend", Json(std::string(best_backend->name))},
        {"scalarPerLineMixLinesPerSec", Json(scalar_mix)},
        {"bdiFpcMixSpeedup", Json(mix_speedup.median)},
        {"bdiFpcMixSpeedupQ1", Json(mix_speedup.q1)},
        {"bdiFpcMixSpeedupQ3", Json(mix_speedup.q3)},
        {"fillStream",
         Json(Json::Object{
             {"cells", Json(std::uint64_t{cells.size()})},
             {"seed", Json(kFillSeed)},
             {"bdiFills", Json(bdi_fills)},
             {"scFills", Json(sc_fills)},
             {"backends", Json(std::move(fill_backends))},
         })},
    });

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    out << doc.dump() << "\n";
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
