#include "sink.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"

namespace latte
{

namespace
{

std::string
number(std::uint64_t u)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, u);
    return buf;
}

std::string
number(double d)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

} // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream &os)
    : os_(os)
{
    os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

void
ChromeTraceSink::writeRun(const std::string &label, const Tracer &tracer)
{
    latte_assert(!finished_, "writeRun() after finish()");
    const std::uint32_t pid = nextPid_++;

    if (!firstEvent_)
        os_ << ',';
    firstEvent_ = false;
    os_ << "\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":" << jsonString(label) << "}}";

    tracer.forEach([&](const TraceEvent &event) { emit(event, pid); });

    if (tracer.dropped() > 0) {
        os_ << ",\n{\"ph\":\"M\",\"name\":\"trace_dropped_events\","
               "\"pid\":" << pid << ",\"tid\":0,\"args\":{\"count\":"
            << tracer.dropped() << "}}";
    }
}

void
ChromeTraceSink::emit(const TraceEvent &event, std::uint32_t pid)
{
    const std::uint32_t tid =
        event.sm == kNoTraceSm ? 9999u : event.sm;
    const auto mode = static_cast<CompressorId>(event.mode);

    os_ << ",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\""
        << traceEventKindName(event.kind) << "\",\"cat\":\""
        << traceEventKindCategory(event.kind) << "\",\"ts\":"
        << number(event.ts) << ",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"args\":{\"arg0\":" << number(event.arg0) << ",\"arg1\":"
        << event.arg1 << ",\"mode\":\"" << compressorName(mode)
        << "\",\"value\":" << number(event.value) << "}}";

    // EP boundaries additionally feed a per-SM counter track so the
    // Fig. 5 tolerance curve is directly visible in Perfetto.
    if (event.kind == TraceEventKind::EpBoundary) {
        os_ << ",\n{\"ph\":\"C\",\"name\":\"sm" << tid
            << "_latency_tolerance\",\"ts\":" << number(event.ts)
            << ",\"pid\":" << pid << ",\"args\":{\"cycles\":"
            << number(event.value) << "}}";
    }
}

void
ChromeTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    os_ << "\n]}\n";
}

} // namespace latte
