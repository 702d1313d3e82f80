/**
 * @file
 * Per-warp execution state tracked by the SM model. When a warp may
 * issue next, and its GTO age, live with its scheduler (scheduler.hh).
 */

#ifndef LATTE_SIM_WARP_HH
#define LATTE_SIM_WARP_HH

#include <cstdint>

#include "common/types.hh"

namespace latte
{

/** Lifecycle of a warp slot. */
enum class WarpState : std::uint8_t
{
    Unassigned,  //!< slot not populated with a CTA warp
    Active,      //!< executing; issues once its scheduler's wake is due
    WaitMem,     //!< load outstanding until the LSU resolves it
    Finished,    //!< hit Exit; slot reusable when the CTA drains
};

/** One warp slot in an SM. */
struct Warp
{
    WarpId slot = 0;                 //!< index within the SM
    std::uint32_t globalWarpId = 0;  //!< cta * warpsPerCta + lane group
    std::uint32_t ctaSlot = 0;       //!< which resident CTA it belongs to
    std::uint64_t pc = 0;
    WarpState state = WarpState::Unassigned;

    // --- load tracking ---
    std::uint32_t pendingAccesses = 0;
    Cycles memReady = 0;
};

} // namespace latte

#endif // LATTE_SIM_WARP_HH
