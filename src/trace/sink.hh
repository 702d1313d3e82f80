/**
 * @file
 * Trace export: ChromeTraceSink writes the events a Tracer recorded
 * for one or more simulation runs in the Chrome trace-event JSON
 * format, loadable in chrome://tracing and Perfetto
 * (ui.perfetto.dev).
 */

#ifndef LATTE_TRACE_SINK_HH
#define LATTE_TRACE_SINK_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "tracer.hh"

namespace latte
{

/**
 * Chrome trace-event JSON writer. Each run becomes one "process" (pid),
 * each SM one "thread" (tid) inside it; events are instants, EP
 * boundaries additionally emit latency-tolerance counter tracks.
 */
class ChromeTraceSink
{
  public:
    /** Streams to @p os; the caller keeps the stream alive. */
    explicit ChromeTraceSink(std::ostream &os);

    /**
     * Emit every event @p tracer retained, as one traced run labelled
     * @p label. May be called once per run; runs appear side by side in
     * the exported trace.
     */
    void writeRun(const std::string &label, const Tracer &tracer);

    /** Write the trailer. No writeRun() may follow. */
    void finish();

  private:
    void emit(const TraceEvent &event, std::uint32_t pid);

    std::ostream &os_;
    std::uint32_t nextPid_ = 0;
    bool firstEvent_ = true;
    bool finished_ = false;
};

} // namespace latte

#endif // LATTE_TRACE_SINK_HH
