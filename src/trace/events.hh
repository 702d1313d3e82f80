/**
 * @file
 * The event taxonomy of the observability layer: one POD TraceEvent per
 * hook point plus the AccessEvent struct the compressed L1 hands to its
 * CompressionModeProvider (the same struct the tracer hooks consume, so
 * the cache describes an access exactly once).
 *
 * TraceEvent is deliberately flat and fixed-size (32 bytes): the tracer
 * stores them in a preallocated ring buffer, so recording an event is a
 * couple of stores and never allocates.
 */

#ifndef LATTE_TRACE_EVENTS_HH
#define LATTE_TRACE_EVENTS_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "compress/compressor.hh"

namespace latte
{

/**
 * One L1 data-cache access as reported to the compression management
 * policy and the tracer. `lineMode` is the compression mode of the line
 * that hit (None on a miss).
 */
struct AccessEvent
{
    Cycles now = 0;
    std::uint32_t setIndex = 0;
    bool hit = false;
    bool isWrite = false;
    CompressorId lineMode = CompressorId::None;
};

/** Every kind of event the simulator can emit. */
enum class TraceEventKind : std::uint8_t
{
    // --- kernels / SM front end ---
    KernelBegin,   //!< arg0 = kernel index
    KernelEnd,     //!< arg0 = kernel index, arg1 = completed (0/1)
    WarpIssue,     //!< scheduler issued a warp; arg0 = global warp id

    // --- compressed L1 ---
    L1Hit,         //!< arg0 = line addr, arg1 = set, mode = line mode
    L1Miss,        //!< primary miss; arg0 = line addr, arg1 = set
    L1MissMerged,  //!< secondary miss merged into an MSHR
    L1Reject,      //!< access refused (MSHR file full)
    // L1Insert and L1Evict: arg0 = the line's byte address, so an
    // eviction pairs with the insert it undoes.
    L1Insert,      //!< fill inserted; arg1 = sub-blocks, mode = storage
                   //!< mode, value = ratio
    L1Evict,       //!< victim dropped; arg1 = set, mode = victim mode
    L1WriteInval,  //!< write-avoid invalidation; arg0 = line addr

    // --- decompression / MSHR ---
    DecompEnqueue, //!< hit queued for decompression; arg1 = queue depth
    MshrAlloc,     //!< primary miss allocated an MSHR; arg1 = in use
    MshrFull,      //!< allocation refused; arg1 = capacity

    // --- shared memory system ---
    // L2Hit and L2Miss: arg0 = line addr, arg1 = bank. An L2Hit's value
    // is the bank wait with --l2-compress=off and the decompression wait
    // when compressing; an L2Miss's is the cycles from issue to data at
    // the L2.
    L2Hit,         //!< L2 hit (payload above)
    L2Miss,        //!< L2 miss (payload above)
    DramAccess,    //!< arg0 = bytes, value = queue delay (cycles)

    // --- LATTE-CC controller ---
    // DuelingModeSelector records the vote and mode-change events of
    // both levels with one payload: a vote has mode = candidate,
    // arg0 = its dedicated-set hits, arg1 = misses, value = AMAT_GPU;
    // a mode change has mode = new winner, value = its AMAT (0 for
    // Adaptive-Hit-Count, which does not compute one).
    EpBoundary,    //!< EP closed; value = latency tolerance, mode = winner
    SamplerVote,   //!< one candidate's vote (shared payload above)
    ModeChange,    //!< the winner flipped (shared payload above)
    ScRebuild,     //!< SC code book rebuilt; arg0 = new generation

    // --- compressed L2 (--l2-compress) ---
    // L2Insert and L2Evict: arg0 = the line's byte address, as for the
    // L1.
    L2Insert,        //!< fill inserted; arg1 = sub-blocks, mode = storage
                     //!< mode, value = ratio
    L2Evict,         //!< victim dropped; arg1 = set, mode = victim mode
    L2WriteInval,    //!< write dropped a compressed copy; arg0 = line addr
    L2DecompEnqueue, //!< L2 hit queued for decompression; arg1 = depth
    L2EpBoundary,    //!< L2 EP closed; value = tolerance, mode = winner
    L2SamplerVote,   //!< L2 candidate's vote (same payload as SamplerVote)
    L2ModeChange,    //!< L2 winner flipped (same payload as ModeChange)

    // --- link compression (--link-compress) ---
    LinkCompress,    //!< arg1 = transferred bytes, value = ratio
};

/** Number of TraceEventKind values (for per-kind counter arrays). */
constexpr std::size_t kNumTraceEventKinds =
    static_cast<std::size_t>(TraceEventKind::LinkCompress) + 1;

/** Stable lower_snake_case name (used as the Chrome trace event name). */
const char *traceEventKindName(TraceEventKind kind);

/** Chrome trace category for @p kind ("sm", "l1", "mem", "latte"). */
const char *traceEventKindCategory(TraceEventKind kind);

/** One recorded event. Interpretation of the payload depends on kind. */
struct TraceEvent
{
    Cycles ts = 0;             //!< simulated cycle
    std::uint64_t arg0 = 0;    //!< address-sized payload
    double value = 0.0;        //!< real-valued payload (tolerance, AMAT...)
    std::uint32_t arg1 = 0;    //!< small integer payload
    TraceEventKind kind = TraceEventKind::KernelBegin;
    std::uint8_t mode = 0;     //!< CompressorId payload
    std::uint16_t sm = 0;      //!< originating SM (kNoTraceSm if shared)
};

/** `sm` value for events from shared units (L2, DRAM, driver). */
constexpr std::uint16_t kNoTraceSm = 0xffff;

/** Convenience builder: the common (ts, kind, sm) prefix. */
inline TraceEvent
makeTraceEvent(Cycles ts, TraceEventKind kind, std::uint16_t sm = kNoTraceSm)
{
    TraceEvent event;
    event.ts = ts;
    event.kind = kind;
    event.sm = sm;
    return event;
}

} // namespace latte

#endif // LATTE_TRACE_EVENTS_HH
