/**
 * @file
 * The repository benchmark driver. One process runs one workload:
 *
 *   hotloop   the 11 C-Sens workloads under LATTE-CC, one cell after
 *             another through latte::run() on one thread;
 *   parallel  the same cells with --sim-threads = host threads, so the
 *             per-cycle barrier of SimThreadPool runs;
 *   sweep     the whole zoo x {Baseline, LATTE-CC-L1L2} through
 *             runner::Sweep at -j host threads: a cold pass into an empty
 *             result cache with a --json export, then a warm pass served
 *             from that cache and exported again.
 *
 * Untraced (the default), it times whole passes for up to --seconds and
 * reports end-to-end host metrics. With --trace it times one untraced
 * pass, then re-runs every cell through a copy of the driver's cell loop
 * with the zone profiler on and forwarding wrappers around the kernels
 * and the compression controllers, and reports per-layer self times.
 * Every run checks the simulated outputs (instruction counts, cache
 * round trips, bit-identity across thread counts and tracing).
 *
 * perfbench/run.py builds this binary and turns its last output line
 * into the benchmark's result; see perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "compress/backend.hh"
#include "core/driver.hh"
#include "energy/energy_model.hh"
#include "metrics/latency_histogram.hh"
#include "metrics/profiler.hh"
#include "runner/json.hh"
#include "runner/result_cache.hh"
#include "runner/sweep.hh"
#include "sim/gpu.hh"
#include "sim/thread_pool.hh"
#include "workloads/zoo.hh"

using namespace latte;
using runner::Json;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/** Peak resident set of this process in MiB (ru_maxrss is KiB). */
double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned
hostThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        const auto first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown"
                                          : model.substr(first);
    }
#endif
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** Run fn(0..n-1) on @p threads threads (inline when 1). */
void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i);
        });
    }
    for (std::thread &thread : pool)
        thread.join();
}

// --- Workloads -------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20;
    bool trace = false;
    /** Per-kernel instruction cap; 0 keeps the driver default. */
    std::uint64_t maxInstr = 0;
    /** Stop at the first timed cell (run.py's set-up probes). */
    bool setupOnly = false;
    std::string workDir = ".bench_build/work";
};

bool
isSweep(const Options &opt)
{
    return opt.workload == "sweep";
}

/** The cells of one workload, in the order they are run and digested. */
std::vector<RunRequest>
workloadCells(const Options &opt)
{
    DriverOptions options;
    options.simThreads = opt.workload == "parallel"
                             ? std::to_string(hostThreads())
                             : "1";
    if (opt.maxInstr)
        options.maxInstructionsPerKernel = opt.maxInstr;

    std::vector<RunRequest> cells;
    auto add = [&](const Workload &workload, PolicyKind kind) {
        RunRequest request;
        request.workload = &workload;
        request.policy = kind;
        request.options = options;
        request.seed = opt.seed;
        cells.push_back(std::move(request));
    };
    if (isSweep(opt)) {
        for (const Workload &workload : workloadZoo()) {
            add(workload, PolicyKind::Baseline);
            add(workload, PolicyKind::LatteCcL1L2);
        }
    } else {
        for (const Workload *workload : workloadsByCategory(true))
            add(*workload, PolicyKind::LatteCc);
    }
    return cells;
}

/** Warp instructions each kernel of @p cell retires when run to the end. */
std::vector<std::uint64_t>
expectedInstructions(const RunRequest &cell)
{
    std::vector<std::uint64_t> expected;
    for (const auto &kernel : makeKernels(*cell.workload, cell.seed)) {
        expected.push_back(std::uint64_t{kernel->numCtas()} *
                           kernel->warpsPerCta() *
                           kernel->instructionsPerWarp());
    }
    return expected;
}

std::string
resultText(const RunOutcome &outcome)
{
    return outcome.ok() ? runner::toJson(outcome.value()).dump()
                        : "failed:" + to_string(outcome.error);
}

/** fnv1a over every cell's result JSON, in cell order. */
std::string
digestOf(const std::vector<RunOutcome> &outcomes)
{
    std::string all;
    for (const RunOutcome &outcome : outcomes)
        all += resultText(outcome);
    std::ostringstream hex;
    hex << std::hex << runner::fnv1a(all);
    return hex.str();
}

/** Operations attempted and failed; every check is one operation. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    record(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
    }
};

std::string
cellName(const RunRequest &cell)
{
    return cell.workload->abbr + "/" + runRequestLabel(cell);
}

/**
 * A cell finished Ok and retired, per kernel, ctas x warpsPerCta x
 * instructionsPerWarp() instructions (at most that and at least the cap
 * when the per-kernel cap cuts the kernel short).
 */
bool
cellCorrect(const RunRequest &cell, const RunOutcome &outcome,
            const std::vector<std::uint64_t> &expected)
{
    if (!outcome.ok())
        return false;
    const WorkloadRunResult &result = outcome.value();
    if (result.kernels.size() != expected.size())
        return false;
    const std::uint64_t cap = cell.options.maxInstructionsPerKernel;
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < expected.size(); ++k) {
        const std::uint64_t got = result.kernels[k].instructions;
        const bool ok = expected[k] <= cap
                            ? got == expected[k]
                            : got >= cap && got <= expected[k];
        if (!ok)
            return false;
        total += got;
    }
    return result.instructions == total;
}

// --- Untraced passes -------------------------------------------------------

struct Pass
{
    std::vector<RunOutcome> outcomes;
    /** The timed phase: all cells (sweep: the cold pass and its export). */
    double wall = 0;
    double cpu = 0;
    /** Wall of running the cells alone (sweep: the cold runAll). */
    double cellWall = 0;
    /** Cells in flight at once. */
    unsigned threads = 1;
    metrics::LatencyHistogram cellMs;
    /** Per-cell wall seconds (hotloop and parallel only). */
    std::vector<double> cellSeconds;
    /** Sweep: the warm pass, served from the cache and exported. */
    double resubmit = 0;
};

Pass
runCells(const std::vector<RunRequest> &cells)
{
    Pass pass;
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    for (const RunRequest &cell : cells) {
        const auto cell_start = Clock::now();
        pass.outcomes.push_back(latte::run(cell));
        pass.cellSeconds.push_back(secondsSince(cell_start));
        pass.cellMs.record(pass.cellSeconds.back() * 1e3);
    }
    pass.wall = pass.cellWall = secondsSince(start);
    pass.cpu = cpuSeconds() - cpu0;
    return pass;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** One runner::Sweep over a grid, as a bench binary runs it. */
struct SweepRun
{
    std::vector<RunOutcome> outcomes;
    /** Construction, run() and the destructor's --json export. */
    double wall = 0;
    double cpu = 0;
    /** run() alone. */
    double runWall = 0;
    metrics::LatencyHistogram cellMs;
    unsigned threads = 1;
    std::size_t cacheHits = 0;
};

SweepRun
timedSweep(const std::vector<RunRequest> &cells, const std::string &cache,
           const std::string &json)
{
    runner::SweepCliOptions cli;
    cli.jobs = hostThreads();
    cli.cacheDir = cache;
    cli.jsonPath = json;
    cli.progress = false;

    SweepRun out;
    const double cpu0 = cpuSeconds();
    auto start = Clock::now();
    auto sweep = std::make_unique<runner::Sweep>(cli);
    for (const RunRequest &cell : cells)
        sweep->add(cell);
    const auto run_start = Clock::now();
    sweep->run();
    out.runWall = secondsSince(run_start);
    out.wall = secondsSince(start);
    out.cpu = cpuSeconds() - cpu0;

    // Copied out untimed, between run() and the export.
    out.outcomes = sweep->outcomes();
    out.cellMs = sweep->runner().cellWallMs();
    out.threads = sweep->runner().effectiveThreads(cells.size());
    out.cacheHits = sweep->runner().stats().cacheHits;

    const double export_cpu0 = cpuSeconds();
    start = Clock::now();
    sweep.reset(); // the destructor writes the --json export
    out.wall += secondsSince(start);
    out.cpu += cpuSeconds() - export_cpu0;
    return out;
}

/** A cold sweep into an empty result cache, then a warm one from it. */
Pass
runSweep(const std::vector<RunRequest> &cells, const std::string &dir,
         Tally &tally)
{
    fs::create_directories(dir);
    const std::string cache = dir + "/cache";
    const std::string cold_json = dir + "/cold.json";
    const std::string warm_json = dir + "/warm.json";
    SweepRun cold = timedSweep(cells, cache, cold_json);
    const SweepRun warm = timedSweep(cells, cache, warm_json);

    tally.record(warm.cacheHits == cells.size(),
                 "warm sweep served " + std::to_string(warm.cacheHits) +
                     " of " + std::to_string(cells.size()) +
                     " cells from the cache");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        tally.record(resultText(warm.outcomes[i]) ==
                         resultText(cold.outcomes[i]),
                     "warm result differs from cold: " + cellName(cells[i]));
    }
    tally.record(readFile(cold_json) == readFile(warm_json),
                 "warm --json export differs from the cold one");

    Pass pass;
    pass.outcomes = std::move(cold.outcomes);
    pass.wall = cold.wall;
    pass.cpu = cold.cpu;
    pass.cellWall = cold.runWall;
    pass.cellMs = cold.cellMs;
    pass.threads = cold.threads;
    pass.resubmit = warm.wall;
    return pass;
}

// --- The traced run -------------------------------------------------------

/**
 * Fetch time and calls, one padded slot per thread: under --sim-threads
 * the pool's threads fetch concurrently.
 */
struct alignas(64) FetchSlot
{
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> calls{0};
};

std::array<FetchSlot, 64> fetchSlots;

FetchSlot &
fetchSlot()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next++ % fetchSlots.size();
    return fetchSlots[index];
}

/** Forwards to a workload kernel and times every fetch(). */
class TimedKernel final : public KernelProgram
{
  public:
    explicit TimedKernel(KernelProgram &inner) : inner_(inner) {}
    TimedKernel(const TimedKernel &) = delete;
    TimedKernel &operator=(const TimedKernel &) = delete;

    std::string name() const override { return inner_.name(); }
    std::uint32_t numCtas() const override { return inner_.numCtas(); }
    std::uint32_t
    warpsPerCta() const override
    {
        return inner_.warpsPerCta();
    }

    DecodedInstr
    fetch(std::uint32_t global_warp, std::uint64_t pc) override
    {
        const auto start = Clock::now();
        DecodedInstr instr = inner_.fetch(global_warp, pc);
        FetchSlot &slot = fetchSlot();
        slot.nanos.fetch_add(nanosSince(start), std::memory_order_relaxed);
        slot.calls.fetch_add(1, std::memory_order_relaxed);
        return instr;
    }

  private:
    KernelProgram &inner_;
};

/**
 * Sits between one SM's L1 and its policy and times every controller
 * call. One SM is never stepped by two threads at once, so plain
 * counters suffice.
 */
class TimedProvider final : public CompressionModeProvider
{
  public:
    explicit TimedProvider(Policy &policy) : policy_(policy) {}
    TimedProvider(const TimedProvider &) = delete;
    TimedProvider &operator=(const TimedProvider &) = delete;

    void redirectTracer(Tracer *tracer) override
    {
        policy_.redirectTracer(tracer);
    }

    CompressorId
    modeForInsertion(std::uint32_t set_index) override
    {
        const auto start = Clock::now();
        const CompressorId mode = policy_.modeForInsertion(set_index);
        charge(start);
        return mode;
    }

    void
    observeAccess(const AccessEvent &event) override
    {
        const auto start = Clock::now();
        policy_.observeAccess(event);
        charge(start);
    }

    void
    observeInsertion(Cycles now, std::uint32_t set_index, CompressorId mode,
                     std::span<const std::uint8_t> data) override
    {
        const auto start = Clock::now();
        policy_.observeInsertion(now, set_index, mode, data);
        charge(start);
    }

    std::uint64_t nanos = 0;
    std::uint64_t calls = 0;

  private:
    void
    charge(Clock::time_point start)
    {
        nanos += nanosSince(start);
        ++calls;
    }

    Policy &policy_;
};

struct TracedCell
{
    RunOutcome outcome;
    double wall = 0;
    double runKernel = 0;
    std::uint64_t controllerNanos = 0;
    std::uint64_t controllerCalls = 0;
    std::uint64_t epBoundaries = 0;
    std::uint64_t modeChanges = 0;
};

/**
 * latte::run()'s cell loop for a catalogued policy, with TimedKernel and
 * TimedProvider in place. It must produce the driver's result bit for
 * bit; the traced-vs-untraced check compares every cell.
 */
TracedCell
runTraced(const RunRequest &request)
{
    const auto start = Clock::now();
    TracedCell traced;
    const PolicyKind kind = std::get<PolicyKind>(request.policy);
    const Workload &workload = *request.workload;
    DriverOptions options = request.options;
    // The driver's catalogue turns the compressed L2 on for this row.
    if (kind == PolicyKind::LatteCcL1L2)
        options.cfg.l2.compress = LevelCompress::Latte;

    MemoryImage mem;
    workload.setup(mem);
    Gpu gpu(options.cfg, &mem, options.tuning);
    gpu.setControl(&request.control);
    gpu.setSimThreads(resolveSimThreads(options.simThreads, nullptr));

    std::vector<std::unique_ptr<Policy>> policies;
    std::vector<std::unique_ptr<TimedProvider>> providers;
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        auto policy = makePolicy(kind, gpu.config());
        auto &sm = gpu.sm(i);
        policy->bind(&sm.cache(), &sm.engines(), &sm.meter());
        policy->setTracer(nullptr, static_cast<std::uint16_t>(i));
        providers.push_back(std::make_unique<TimedProvider>(*policy));
        sm.cache().setModeProvider(providers.back().get());
        policies.push_back(std::move(policy));
    }
    auto sum_mode_accesses = [&]() {
        std::array<std::uint64_t, kNumModes> sums{};
        for (const auto &policy : policies) {
            for (std::size_t m = 0; m < kNumModes; ++m)
                sums[m] += policy->modeAccesses()[m];
        }
        return sums;
    };

    WorkloadRunResult result;
    result.workload = workload.abbr;
    result.policy = kind;
    result.policyLabel = runRequestLabel(request);
    result.seed = request.seed;

    auto kernels = makeKernels(workload, request.seed);
    UsageCounts prev_usage = harvestUsage(gpu);
    std::uint64_t prev_hits = 0, prev_misses = 0;
    auto prev_modes = sum_mode_accesses();
    for (auto &kernel : kernels) {
        TimedKernel timed(*kernel);
        const auto kernel_start = Clock::now();
        const RunResult run =
            gpu.runKernel(timed, options.maxInstructionsPerKernel);
        traced.runKernel += secondsSince(kernel_start);
        // The driver fails the cell here; the comparison with the
        // untraced run reports it.
        if (run.interrupt)
            break;
        KernelSnapshot snap;
        snap.name = kernel->name();
        snap.cycles = run.cycles;
        snap.instructions = run.instructions;
        const UsageCounts usage = harvestUsage(gpu);
        snap.usage = usage - prev_usage;
        prev_usage = usage;
        const std::uint64_t hits = gpu.totalL1Hits();
        const std::uint64_t misses = gpu.totalL1Misses();
        snap.hits = hits - prev_hits;
        snap.misses = misses - prev_misses;
        prev_hits = hits;
        prev_misses = misses;
        const auto modes = sum_mode_accesses();
        for (std::size_t m = 0; m < kNumModes; ++m)
            snap.modeAccesses[m] = modes[m] - prev_modes[m];
        prev_modes = modes;
        result.kernels.push_back(std::move(snap));
    }

    result.cycles = gpu.cyclesElapsed.count();
    result.instructions = gpu.totalInstructions();
    result.hits = gpu.totalL1Hits();
    result.misses = gpu.totalL1Misses();
    result.modeAccesses = sum_mode_accesses();
    result.trace = policies[0]->trace();
    if (const L2CompressionController *l2c = gpu.l2().controller()) {
        const auto &l2trace = l2c->trace();
        std::size_t next = 0;
        for (PolicyTracePoint &point : result.trace) {
            while (next < l2trace.size() &&
                   l2trace[next].cycle <= point.cycle)
                ++next;
            point.hasL2 = true;
            if (next > 0) {
                point.l2Mode = l2trace[next - 1].mode;
                point.l2Tolerance = l2trace[next - 1].latencyTolerance;
            }
        }
    }
    gpu.collect(result.stats);
    result.energy = EnergyModel(gpu.config()).compute(harvestUsage(gpu));

    for (std::size_t i = 0; i < policies.size(); ++i) {
        traced.controllerNanos += providers[i]->nanos;
        traced.controllerCalls += providers[i]->calls;
        traced.epBoundaries += policies[i]->trace().size();
        traced.modeChanges += policies[i]->modeChanges();
    }
    traced.outcome = RunOutcome::success(std::move(result));
    traced.wall = secondsSince(start);
    return traced;
}

/**
 * Distinct lines the kernels of @p cell address, replayed through
 * fetch() (up to the per-kernel instruction cap).
 */
std::vector<Addr>
touchedLines(const RunRequest &cell)
{
    std::vector<Addr> lines;
    for (const auto &kernel : makeKernels(*cell.workload, cell.seed)) {
        const std::uint64_t warps =
            std::uint64_t{kernel->numCtas()} * kernel->warpsPerCta();
        std::uint64_t budget = cell.options.maxInstructionsPerKernel;
        for (std::uint64_t w = 0; w < warps && budget > 0; ++w) {
            for (std::uint64_t pc = 0;
                 pc < kernel->instructionsPerWarp() && budget > 0;
                 ++pc, --budget) {
                const DecodedInstr instr =
                    kernel->fetch(static_cast<std::uint32_t>(w), pc);
                for (const Addr addr : instr.laneAddrs) {
                    const Addr line = MemoryImage::lineAddr(addr);
                    if (lines.empty() || lines.back() != line)
                        lines.push_back(line);
                }
            }
        }
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

// --- Reporting -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Sum of gpu.sm<i>.l1d0.<name> over every SM and every cell. */
double
l1Stat(const std::vector<RunOutcome> &outcomes, const std::string &name)
{
    const std::string suffix = ".l1d0." + name;
    double sum = 0;
    for (const RunOutcome &outcome : outcomes) {
        if (!outcome.ok())
            continue;
        for (const auto &[key, value] : outcome.value().stats) {
            if (key.rfind("gpu.sm", 0) == 0 && key.size() > suffix.size() &&
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) == 0)
                sum += value;
        }
    }
    return sum;
}

/** Sum of one stat over every cell (absent counts as 0). */
double
cellStat(const std::vector<RunOutcome> &outcomes, const std::string &key)
{
    double sum = 0;
    for (const RunOutcome &outcome : outcomes) {
        if (!outcome.ok())
            continue;
        const auto it = outcome.value().stats.find(key);
        if (it != outcome.value().stats.end())
            sum += it->second;
    }
    return sum;
}

/** Memory-image generation, re-measured for every cell. */
struct ImageCost
{
    double seconds = 0;
    double lines = 0;
};

/**
 * A fresh MemoryImage, the workload's set-up, then line() on every line
 * the cell's kernels address; timed per cell and summed.
 */
ImageCost
measureMemoryImages(const std::vector<RunRequest> &cells, unsigned threads)
{
    std::vector<double> seconds(cells.size());
    std::vector<double> lines(cells.size());
    parallelFor(cells.size(), threads, [&](std::size_t i) {
        const std::vector<Addr> touched = touchedLines(cells[i]);
        const auto start = Clock::now();
        MemoryImage mem;
        cells[i].workload->setup(mem);
        for (const Addr line : touched)
            mem.line(line);
        seconds[i] = secondsSince(start);
        lines[i] = static_cast<double>(touched.size());
    });
    ImageCost cost;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cost.seconds += seconds[i];
        cost.lines += lines[i];
    }
    return cost;
}

/** The runner's result path, re-measured over one pass's outcomes. */
struct ResultPathCost
{
    double store = 0;
    double lookup = 0;
    double exportSeconds = 0;
    double exportBytes = 0;
};

/**
 * Store every outcome into a fresh result cache, look each up again
 * (checking the round trip) and write the sweep export document once.
 */
ResultPathCost
measureResultPath(const std::vector<RunRequest> &cells,
                  const std::vector<RunOutcome> &outcomes,
                  const std::string &dir, Tally &tally)
{
    ResultPathCost cost;
    const runner::ResultCache cache(dir + "/store");
    auto start = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (outcomes[i].ok())
            cache.store(runner::RunKey::of(cells[i]), outcomes[i]);
    }
    cost.store = secondsSince(start);

    std::vector<std::optional<RunOutcome>> hits(cells.size());
    start = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i)
        hits[i] = cache.lookup(runner::RunKey::of(cells[i]));
    cost.lookup = secondsSince(start);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        tally.record(hits[i] && resultText(*hits[i]) ==
                                    resultText(outcomes[i]),
                     "result cache round trip differs: " +
                         cellName(cells[i]));
    }

    const std::string path = dir + "/export.json";
    start = Clock::now();
    {
        std::ofstream out(path);
        out << runner::outcomesToJson(outcomes).dump(2) << "\n";
    }
    cost.exportSeconds = secondsSince(start);
    cost.exportBytes = static_cast<double>(fs::file_size(path));
    return cost;
}

/** Per-layer metrics of one traced run; see perfbench/README.md. */
std::vector<Metric>
tracedRun(const std::vector<RunRequest> &cells, const Pass &pass,
          const SimPoolStats &pool, const Options &opt, Tally &tally)
{
    const unsigned threads = isSweep(opt) ? hostThreads() : 1;

    for (FetchSlot &slot : fetchSlots) {
        slot.nanos = 0;
        slot.calls = 0;
    }
    metrics::profilerReset();
    metrics::setProfilerEnabled(true);
    std::vector<TracedCell> traced(cells.size());
    const auto traced_start = Clock::now();
    parallelFor(cells.size(), threads,
                [&](std::size_t i) { traced[i] = runTraced(cells[i]); });
    const double traced_wall = secondsSince(traced_start);
    metrics::setProfilerEnabled(false);
    const auto zones = metrics::profilerSnapshot();

    double cell_wall = 0, run_kernel = 0, controller = 0;
    std::uint64_t controller_calls = 0, ep_boundaries = 0, mode_changes = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const TracedCell &t = traced[i];
        const RunOutcome &plain = pass.outcomes[i];
        const bool same_shape =
            t.outcome.ok() && plain.ok() &&
            t.outcome.value().cycles == plain.value().cycles &&
            t.outcome.value().instructions == plain.value().instructions &&
            t.outcome.value().trace.size() == plain.value().trace.size();
        tally.record(same_shape && resultText(t.outcome) == resultText(plain),
                     "traced result differs from untraced: " +
                         cellName(cells[i]));
        cell_wall += t.wall;
        run_kernel += t.runKernel;
        controller += static_cast<double>(t.controllerNanos) * 1e-9;
        controller_calls += t.controllerCalls;
        ep_boundaries += t.epBoundaries;
        mode_changes += t.modeChanges;
    }
    double fetch = 0, fetch_calls = 0;
    for (const FetchSlot &slot : fetchSlots) {
        fetch += static_cast<double>(slot.nanos.load()) * 1e-9;
        fetch_calls += static_cast<double>(slot.calls.load());
    }
    using metrics::ProfileZone;
    auto zone = [&](ProfileZone z) {
        return static_cast<double>(zones[static_cast<std::size_t>(z)].nanos) *
               1e-9;
    };
    const double sm_issue = zone(ProfileZone::SmIssue);
    const double l1 = zone(ProfileZone::L1Access);
    const double probe = zone(ProfileZone::CompressorProbe);
    const double l2 = zone(ProfileZone::L2Access);
    const double dram = zone(ProfileZone::DramAccess);
    const double probes = static_cast<double>(
        zones[static_cast<std::size_t>(ProfileZone::CompressorProbe)].calls);

    const ImageCost image = measureMemoryImages(cells, threads);
    const ResultPathCost path =
        measureResultPath(cells, pass.outcomes, opt.workDir, tally);

    const std::vector<RunOutcome> &outs = pass.outcomes;
    double cycles = 0, instructions = 0;
    for (const RunOutcome &outcome : outs) {
        if (outcome.ok()) {
            cycles += static_cast<double>(outcome.value().cycles);
            instructions += static_cast<double>(outcome.value().instructions);
        }
    }
    const double memo_hits = l1Stat(outs, "compress_memo.hits");
    const double memo_lookups =
        memo_hits + l1Stat(outs, "compress_memo.misses");
    // Self times: each zone minus the zones and wrappers nested in it.
    const double sim_other = run_kernel - sm_issue - l1;
    const double sim_issue = sm_issue - fetch;
    const double cache_l1 = l1 - controller - probe - l2;
    const double mem_l2 = l2 - dram;
    const double self = sim_other + sim_issue + fetch + controller +
                        cache_l1 + probe + mem_l2 + dram;
    const double epochs = static_cast<double>(pool.epochs);

    return {
        {"sim.other_s", sim_other, "s"},
        {"sim.issue_s", sim_issue, "s"},
        {"sim.cycles", cycles, "count"},
        {"sim.instructions", instructions, "count"},
        {"sim.pool.epochs", epochs, "count"},
        {"sim.pool.items_per_epoch",
         epochs > 0 ? static_cast<double>(pool.items) / epochs : 0.0,
         "count"},
        {"sim.pool.barrier_wait_share",
         pool.barrierWaitNs.sum() * 1e-9 / pass.cellWall, "ratio"},
        {"workloads.fetch_s", fetch, "s"},
        {"workloads.fetch_calls", fetch_calls, "count"},
        {"workloads.memimage_s", image.seconds, "s"},
        {"workloads.lines", image.lines, "count"},
        {"core.controller_s", controller, "s"},
        {"core.controller_calls", static_cast<double>(controller_calls),
         "count"},
        {"core.ep_boundaries", static_cast<double>(ep_boundaries), "count"},
        {"core.mode_changes", static_cast<double>(mode_changes), "count"},
        {"cache.l1_s", cache_l1, "s"},
        {"cache.l1_accesses",
         l1Stat(outs, "loads") + l1Stat(outs, "stores"), "count"},
        {"cache.l1_hits", l1Stat(outs, "hits"), "count"},
        {"cache.l1_misses", l1Stat(outs, "misses"), "count"},
        {"cache.l1_merged", l1Stat(outs, "merged_misses"), "count"},
        {"cache.l1_rejections", l1Stat(outs, "rejections"), "count"},
        {"cache.l1_insertions", l1Stat(outs, "insertions"), "count"},
        {"cache.l1_write_invals", l1Stat(outs, "write_invalidations"),
         "count"},
        {"compress.probe_s", probe, "s"},
        {"compress.probes", probes, "count"},
        {"compress.memo_hit_ratio",
         memo_lookups > 0 ? memo_hits / memo_lookups : 0.0, "ratio"},
        {"mem.l2_s", mem_l2, "s"},
        {"mem.dram_s", dram, "s"},
        {"mem.l2_accesses",
         cellStat(outs, "gpu.l2.reads") + cellStat(outs, "gpu.l2.writes"),
         "count"},
        {"mem.dram_bytes", cellStat(outs, "gpu.dram.bytes"), "bytes"},
        {"mem.l2_compressed_insertions",
         cellStat(outs, "gpu.l2.compress.compressed_insertions"), "count"},
        // Mean and max, not p50/p90: the runner's power-of-two buckets
        // quantise percentiles, so they would not follow host speed.
        {"runner.cell_ms_mean", pass.cellMs.mean(), "ms"},
        {"runner.cell_ms_max", pass.cellMs.max(), "ms"},
        {"runner.pool_fill",
         pass.cellMs.sum() / (1e3 * pass.threads * pass.cellWall), "ratio"},
        {"runner.export_s", path.exportSeconds, "s"},
        {"runner.export_bytes", path.exportBytes, "bytes"},
        {"runner.store_s", path.store, "s"},
        {"runner.lookup_s", path.lookup, "s"},
        {"bench.unattributed_s", cell_wall - self, "s"},
        {"bench.trace_overhead", traced_wall / pass.cellWall, "ratio"},
    };
}

Json
metricsJson(const std::vector<Metric> &metrics)
{
    Json::Object out;
    for (const Metric &metric : metrics) {
        Json::Object entry;
        entry.emplace("value", metric.value);
        entry.emplace("unit", metric.unit);
        out.emplace(metric.name, Json(std::move(entry)));
    }
    return Json(std::move(out));
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = true;
        else if (arg == "--max-instr")
            opt.maxInstr = std::stoull(value());
        else if (arg == "--setup-only")
            opt.setupOnly = true;
        else if (arg == "--work-dir")
            opt.workDir = value();
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (opt.workload != "hotloop" && opt.workload != "parallel" &&
        !isSweep(opt))
        throw std::invalid_argument("--workload must be hotloop, parallel "
                                    "or sweep");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::cerr << "perfbench: built without NDEBUG; host time of an "
                 "assertion build measures a different program\n";
    return 3;
#endif
    Options opt;
    try {
        opt = parseOptions(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\nusage: perfbench "
                     "--workload hotloop|parallel|sweep [--seed N] "
                     "[--seconds S] [--trace] [--max-instr N] "
                     "[--work-dir DIR] [--setup-only]\n";
        return 2;
    }

    const std::vector<RunRequest> cells = workloadCells(opt);
    std::vector<std::vector<std::uint64_t>> expected;
    for (const RunRequest &cell : cells)
        expected.push_back(expectedInstructions(cell));
    fs::remove_all(opt.workDir);
    fs::create_directories(opt.workDir);
    const std::uint64_t ready_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    if (opt.setupOnly) {
        Json::Object out;
        out.emplace("ready_ns", ready_ns);
        std::cout << Json(std::move(out)).dump() << "\n";
        return 0;
    }

    // Whole passes while the next one fits in --seconds, and at least
    // two: a second pass gives the run a chance to miss an episode of
    // interference (see below). A traced run times one.
    Tally tally;
    std::vector<Pass> passes;
    const auto start = Clock::now();
    auto another = [&] {
        if (passes.empty())
            return true;
        if (opt.trace)
            return false;
        return passes.size() < 2 ||
               secondsSince(start) + passes.back().wall <= opt.seconds;
    };
    while (another()) {
        const std::string dir =
            opt.workDir + "/pass" + std::to_string(passes.size());
        passes.push_back(isSweep(opt) ? runSweep(cells, dir, tally)
                                      : runCells(cells));
        fs::remove_all(dir);
        std::cout << "pass " << passes.size() - 1 << " wall_s "
                  << passes.back().wall << " cpu_s " << passes.back().cpu
                  << "\n";
    }

    for (const Pass &pass : passes) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            tally.record(cellCorrect(cells[i], pass.outcomes[i], expected[i]),
                         "wrong instruction count or status: " +
                             cellName(cells[i]));
        }
    }
    const std::string digest = digestOf(passes[0].outcomes);
    for (std::size_t p = 1; p < passes.size(); ++p) {
        tally.record(digestOf(passes[p].outcomes) == digest,
                     "pass " + std::to_string(p) +
                         " digest differs from pass 0");
    }

    if (opt.workload == "parallel") {
        // Bit-identity with the one-thread loop, on the quickest cell;
        // run.py compares whole digests with hotloop's across runs.
        const Pass &first = passes[0];
        const std::size_t quick = static_cast<std::size_t>(
            std::min_element(first.cellSeconds.begin(),
                             first.cellSeconds.end()) -
            first.cellSeconds.begin());
        RunRequest sequential = cells[quick];
        sequential.options.simThreads = "1";
        tally.record(resultText(latte::run(sequential)) ==
                         resultText(first.outcomes[quick]),
                     "--sim-threads result differs from one thread: " +
                         cellName(cells[quick]));
    }

    // Interference on a shared host only ever slows a pass down, and it
    // comes in episodes that often cover a whole pass, so a run reports
    // its fastest pass: with two passes that is steadier than their
    // median.
    double wall = passes[0].wall, cpu = passes[0].cpu;
    double resubmit = passes[0].resubmit;
    for (const Pass &pass : passes) {
        wall = std::min(wall, pass.wall);
        cpu = std::min(cpu, pass.cpu);
        resubmit = std::min(resubmit, pass.resubmit);
    }
    double instructions = 0;
    for (const RunOutcome &outcome : passes[0].outcomes) {
        if (outcome.ok())
            instructions += static_cast<double>(outcome.value().instructions);
    }

    // Tracked metrics go to BENCHMARK.json's lists; report-only values
    // are printed beside them.
    std::vector<Metric> metrics, report;
    if (opt.trace) {
        // The pool aggregate so far covers exactly the untraced pass.
        const SimPoolStats pool = simPoolGlobalStats();
        metrics = tracedRun(cells, passes[0], pool, opt, tally);
        report.push_back({"sim.pool.barrier_wait_p50_ns",
                          pool.barrierWaitNs.percentile(50), "ns"});
    } else {
        metrics = {
            {"wall_s", wall, "s"},
            {"sim_instr_per_s", instructions / wall, "instr/s"},
            {"cpu_s", cpu, "s"},
            {"peak_rss_mb", peakRssMib(), "MiB"},
        };
        if (isSweep(opt))
            report.push_back({"resubmit_s", resubmit, "s"});
    }
    fs::remove_all(opt.workDir);

    Json::Object host;
    host.emplace("nproc", hostThreads());
    host.emplace("cpu", cpuModel());
    host.emplace("compiler", compilerName());
    host.emplace("compress_backend",
                 std::string(activeCompressorBackend().name));
    Json::Object out;
    out.emplace("workload", opt.workload);
    out.emplace("seed", opt.seed);
    out.emplace("passes", static_cast<std::uint64_t>(passes.size()));
    out.emplace("cells", static_cast<std::uint64_t>(cells.size()));
    out.emplace("sim_digest", digest);
    out.emplace("ready_ns", ready_ns);
    out.emplace("attempted", tally.attempted);
    out.emplace("failed", tally.failed);
    out.emplace("host", Json(std::move(host)));
    out.emplace("metrics", metricsJson(metrics));
    out.emplace("report", metricsJson(report));
    std::cout << Json(std::move(out)).dump() << "\n";
    return 0;
}
