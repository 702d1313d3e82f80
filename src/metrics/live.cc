#include "live.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>

#include "common/logging.hh"

namespace latte::metrics::live
{

struct CellScope::Slot
{
    std::string label;
    std::string context;
    std::chrono::steady_clock::time_point started;
    std::atomic<std::uint64_t> cycle{0};
    std::atomic<std::uint64_t> instructions{0};
};

namespace
{

/** Guards the slot set; slots themselves are read via atomics. */
std::mutex g_mutex;
std::set<CellScope::Slot *> g_slots;
std::atomic<std::uint64_t> g_finished{0};

thread_local CellScope::Slot *t_current = nullptr;

} // namespace

CellScope::CellScope(std::string label) : slot_(new Slot)
{
    slot_->label = std::move(label);
    slot_->context = logContext();
    slot_->started = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        g_slots.insert(slot_);
    }
    t_current = slot_;
}

CellScope::~CellScope()
{
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        g_slots.erase(slot_);
    }
    if (t_current == slot_)
        t_current = nullptr;
    g_finished.fetch_add(1, std::memory_order_relaxed);
    delete slot_;
}

void
CellScope::publish(std::uint64_t cycle, std::uint64_t instructions)
{
    Slot *slot = t_current;
    if (!slot)
        return;
    slot->cycle.store(cycle, std::memory_order_relaxed);
    slot->instructions.store(instructions, std::memory_order_relaxed);
}

std::vector<CellSample>
snapshot()
{
    std::vector<CellSample> out;
    std::lock_guard<std::mutex> lock(g_mutex);
    out.reserve(g_slots.size());
    for (const CellScope::Slot *slot : g_slots) {
        CellSample sample;
        sample.label = slot->label;
        sample.context = slot->context;
        sample.cycle = slot->cycle.load(std::memory_order_relaxed);
        sample.instructions =
            slot->instructions.load(std::memory_order_relaxed);
        sample.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             slot->started)
                             .count();
        out.push_back(std::move(sample));
    }
    return out;
}

std::uint64_t
cellsFinished()
{
    return g_finished.load(std::memory_order_relaxed);
}

void
expose(Exposition &out)
{
    const std::vector<CellSample> cells = snapshot();
    out.gauge("live_cells_in_flight", {},
              static_cast<double>(cells.size()));
    out.counter("live_cells_finished_total", {},
                static_cast<double>(cellsFinished()));
    for (const CellSample &cell : cells) {
        MetricLabels labels = {{"cell", cell.label}};
        if (!cell.context.empty())
            labels.emplace_back("ctx", cell.context);
        out.gauge("live_cell_cycle", labels,
                  static_cast<double>(cell.cycle));
        out.gauge("live_cell_instructions", labels,
                  static_cast<double>(cell.instructions));
        out.gauge("live_cell_seconds", labels, cell.seconds);
    }
}

} // namespace latte::metrics::live
