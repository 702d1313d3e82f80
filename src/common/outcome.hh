/**
 * @file
 * The structured failure vocabulary of the run() boundary and the
 * cooperative control surface threaded through the simulator:
 *
 *  - RunStatus / RunErrorCode / RunError: the stable, serializable
 *    error model every supervising layer (sweep runner, journal, CI
 *    gates) acts on. No exception ever crosses the library boundary;
 *    failures travel as values.
 *  - CancelToken: a lock-free flag a supervisor sets to make a
 *    running cell stop at its next safe point.
 *  - FaultPlan: the fault-injection schedule tests use to prove that a
 *    failing cell degrades to a recorded RunError instead of killing
 *    the surrounding sweep.
 *
 * Lives in common/ because the GPU model polls the control surface
 * from its cycle loop while the driver and runner own the policy.
 */

#ifndef LATTE_COMMON_OUTCOME_HH
#define LATTE_COMMON_OUTCOME_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "types.hh"

namespace latte
{

/** Terminal state of one run() invocation. */
enum class RunStatus
{
    Ok,       //!< result produced (attempts > 1 means Retried -> Ok)
    Failed,   //!< a fault or invalid request; see RunError::code
    TimedOut, //!< wall-clock deadline or cycle budget exhausted
    Cancelled //!< externally cancelled via CancelToken
};

/**
 * Stable error-code enum, serialized by name into result JSON (schema
 * 3) and the sweep journal. Append new codes at the end; never reorder
 * or rename — journals and cached results outlive binaries.
 */
enum class RunErrorCode
{
    None = 0,
    InvalidRequest,       //!< request missing a workload
    InvalidConfig,        //!< GpuConfig::validationError rejected it
    WallClockTimeout,     //!< per-attempt wall-clock deadline passed
    CycleBudgetExceeded,  //!< per-cell simulated-cycle budget
    Cancelled,            //!< external cooperative cancellation
    CompressorCorruption, //!< compression round-trip violation
    DecompQueueStall,     //!< decompression queue stopped draining
    DramTimeout,          //!< DRAM stopped servicing its backlog
    AllocFailure,         //!< line/MSHR allocation failure
    Internal,             //!< unclassified internal failure
};

/** Lower-snake-case stable name ("wall_clock_timeout", ...). */
const char *runStatusName(RunStatus status);
const char *runErrorCodeName(RunErrorCode code);

/** Reverse lookups; nullptr if @p name is unknown. */
const RunStatus *runStatusFromName(const std::string &name);
const RunErrorCode *runErrorCodeFromName(const std::string &name);

struct RunError;

/**
 * The one human-readable rendering of a RunError, shared by every
 * surface that prints one (sweep fatal diagnostics, driver logs,
 * example CLIs, daemon error events): "<code>: <message>", or just
 * "<code>" when the message is empty. The code prefix is the stable
 * runErrorCodeName() token, so the text round-trips back through
 * runErrorCodeFromName() (pinned by test_resilience).
 */
std::string to_string(const RunError &error);

/**
 * One failure, with enough cell context to be actionable after the
 * sweep moved on: which cell, which code, and where in simulated time
 * it tripped.
 */
struct RunError
{
    RunErrorCode code = RunErrorCode::None;
    std::string message;
    /** Cell context (workload abbr, policy label, request seed). */
    std::string workload;
    std::string policyLabel;
    std::uint64_t seed = 0;
    /** Simulated cycle at the failure point (0 when not applicable). */
    Cycles cycle = 0;

    bool ok() const { return code == RunErrorCode::None; }
};

/**
 * Cooperative cancellation: a supervisor calls cancel(); the GPU cycle
 * loop polls cancelled() and stops at the next iteration.
 */
class CancelToken
{
  public:
    void cancel() { cancelled_.store(true, std::memory_order_release); }

    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> cancelled_{false};
};

/** The injectable fault classes of the resilience test matrix. */
enum class FaultKind
{
    CompressorCorruption, //!< round-trip verify mismatch
    DecompQueueStall,     //!< decompression queue wedged
    DramTimeout,          //!< DRAM channel unresponsive
    AllocFailure,         //!< allocation failure in the cache
};

const char *faultKindName(FaultKind kind);

/** The RunErrorCode a fired fault of @p kind reports. */
RunErrorCode faultErrorCode(FaultKind kind);

/** One scheduled fault. */
struct FaultPoint
{
    FaultKind kind = FaultKind::CompressorCorruption;
    /** Simulated cycle at (or after) which the fault fires. */
    Cycles atCycle = 0;
    /**
     * Fire only on the first N attempts of the cell (0 = every
     * attempt). firstAttempts = 1 models a transient failure that a
     * retry clears — the Retried->Ok path.
     */
    std::uint32_t firstAttempts = 0;
};

/** The fault-injection schedule of one cell. */
struct FaultPlan
{
    std::vector<FaultPoint> faults;

    bool empty() const { return faults.empty(); }

    /** The subset still armed on @p attempt (1-based). */
    FaultPlan
    armedFor(std::uint32_t attempt) const
    {
        FaultPlan armed;
        for (const FaultPoint &fault : faults) {
            if (fault.firstAttempts == 0 ||
                attempt <= fault.firstAttempts)
                armed.faults.push_back(fault);
        }
        return armed;
    }
};

/**
 * The per-run control surface the driver threads into the GPU model.
 * Everything here is cooperative: the cycle loop polls it and winds
 * down cleanly, so no state is corrupted and no exception is thrown.
 * None of it participates in result-cache keys; a run with a non-empty
 * fault plan additionally bypasses the cache entirely.
 */
struct RunControl
{
    using Clock = std::chrono::steady_clock;

    /** Not owned; nullptr = not cancellable. */
    CancelToken *cancel = nullptr;
    /** Wall-clock instant the run times out at (max() = never). */
    Clock::time_point deadline = Clock::time_point::max();
    /** Simulated-cycle budget for the whole run (0 = unlimited). */
    Cycles cycleBudget = 0;
    /** Fault-injection schedule (normally empty outside tests). */
    FaultPlan faults;
};

} // namespace latte

#endif // LATTE_COMMON_OUTCOME_HH
