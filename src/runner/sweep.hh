/**
 * @file
 * Sweep: the declarative front door of the experiment runner, used by
 * every per-figure bench binary and the grid-shaped examples.
 *
 *   Sweep sweep(argc, argv);                  // parses -j/--cache-dir/--json
 *   for (...) sweep.add(workload, kind);      // declare the grid
 *   const auto &r = sweep.get(workload, kind);// first get() runs ALL
 *                                             // pending cells in parallel
 *
 * get() on a cell that was never add()ed simulates it on the spot, so
 * incremental/lazy callers still work — they just forgo parallelism for
 * that cell. Cells are keyed by RunKey (workload x policy label x seed
 * x full DriverOptions hash), so the same Sweep can hold multiple
 * configurations of the same workload/policy pair without aliasing.
 */

#ifndef LATTE_RUNNER_SWEEP_HH
#define LATTE_RUNNER_SWEEP_HH

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arg_parse.hh"
#include "experiment_runner.hh"
#include "result_cache.hh"
#include "sweep_spec.hh"
#include "trace/tracer.hh"

namespace latte::metrics
{
class MetricRegistry;
} // namespace latte::metrics

namespace latte::runner
{

class Sweep
{
  public:
    /** Parse and strip the shared sweep flags from argc/argv. */
    Sweep(int &argc, char **argv, DriverOptions defaults = {});

    /** Use pre-parsed options (tests, embedding). */
    explicit Sweep(SweepCliOptions cli, DriverOptions defaults = {});

    /**
     * Destructor writes the --json, --trace-out, --timeline-out,
     * --metrics-out and --bench-out exports of everything executed.
     */
    ~Sweep();

    Sweep(const Sweep &) = delete;
    Sweep &operator=(const Sweep &) = delete;

    // --- Declaring the grid -------------------------------------------

    /** Queue one cell under the sweep's default DriverOptions. */
    void add(const Workload &workload, PolicyKind kind);

    /** Queue one cell under cell-specific options. */
    void add(const Workload &workload, PolicyKind kind,
             const DriverOptions &options);

    /** Queue an arbitrary request (custom factory, seed, label). */
    void add(RunRequest request);

    /**
     * Queue every cell of a declarative spec, expanded over the
     * sweep's default DriverOptions. An invalid spec is a latte_fatal
     * — validate() it first when the spec came from outside.
     */
    void add(const SweepSpec &spec);

    // --- Executing and reading ----------------------------------------

    /** Run every queued-but-unfinished cell across the thread pool. */
    void run();

    /**
     * Result lookup; runs pending cells (or the missing cell) first.
     * A cell that did not finish Ok is a latte_fatal here — get() is
     * the "I need the numbers" API. Callers that tolerate failure
     * (partial sweeps, fault-injection harnesses) use outcome().
     */
    const WorkloadRunResult &get(const Workload &workload,
                                 PolicyKind kind);
    const WorkloadRunResult &get(const Workload &workload,
                                 PolicyKind kind,
                                 const DriverOptions &options);
    const WorkloadRunResult &get(const RunRequest &request);

    /** Outcome lookup; like get() but failures are values, not fatal. */
    const RunOutcome &outcome(const Workload &workload, PolicyKind kind);
    const RunOutcome &outcome(const Workload &workload, PolicyKind kind,
                              const DriverOptions &options);
    const RunOutcome &outcome(const RunRequest &request);

    /** Every finished outcome, in add() order. */
    const std::vector<RunOutcome> &outcomes() const
    {
        return outcomes_;
    }

    /** Write the --json export now (no-op without --json). */
    void writeJson() const;

    /** Write the Chrome trace export now (no-op without --trace-out). */
    void writeTrace() const;

    /** Write the per-EP export now (no-op without --timeline-out). */
    void writeTimeline() const;

    /** Write the metrics export now (no-op without --metrics-out). */
    void writeMetrics() const;

    /** Write the throughput report now (no-op without --bench-out). */
    void writeBench() const;

    /**
     * Merge one extra top-level entry into the --bench-out report
     * (e.g. the fig11 compressed-L2 probe grid). Last writer wins
     * on key collisions, including with the built-in fields.
     */
    void addBenchExtra(const std::string &key, Json value);

    /** The --bench-out path; empty when no report was requested. */
    const std::string &benchPath() const { return benchOut_; }

    const DriverOptions &defaults() const { return defaults_; }
    const ExperimentRunner &runner() const { return runner_; }

  private:
    /** Slot of @p request's cell, queueing it if new. */
    std::size_t indexOf(const RunRequest &request);

    /** Ring capacity of each per-cell tracer under --trace-out. */
    static constexpr std::size_t kCellTraceCapacity = std::size_t{1} << 16;

    DriverOptions defaults_;
    ExperimentRunner runner_;
    std::string jsonPath_;
    std::string traceOut_;
    std::string timelineOut_;
    std::string metricsOut_;
    std::uint64_t metricsInterval_ = 0;
    std::string benchOut_;
    /** Extra top-level --bench-out entries (addBenchExtra). */
    Json::Object benchExtra_;
    /** Wall-clock seconds spent inside runner_.runAll() calls. */
    double runSeconds_ = 0;

    std::vector<RunRequest> requests_;        //!< all cells, add() order
    std::vector<RunOutcome> outcomes_;        //!< parallel to requests_
    std::vector<bool> done_;                  //!< parallel to requests_
    /** Parallel to requests_; null entries unless --trace-out is set. */
    std::vector<std::unique_ptr<Tracer>> tracers_;
    /** Parallel to requests_; null unless --metrics-out is set. */
    std::vector<std::unique_ptr<metrics::MetricRegistry>> metrics_;
    std::vector<std::size_t> pending_;        //!< slots not yet executed
    std::map<RunKey, std::size_t> index_;     //!< cell key -> slot
};

} // namespace latte::runner

#endif // LATTE_RUNNER_SWEEP_HH
