// Paging-occasion arithmetic (TS 36.304 §7).
//
// A UE in idle mode wakes once per DRX cycle at its paging occasion (PO) and
// monitors the paging channel.  The PO position is a pure function of the
// UE identity and the cycle length:
//
//   UE_ID = IMSI mod ue_id_modulus
//   N     = min(T, nB),  Ns = max(1, nB/T)        (T = cycle in frames)
//   PF    : frame index F with  F mod T == (T/N) * (UE_ID mod N)
//   i_s   = floor(UE_ID / N) mod Ns  ->  PO subframe via lookup table
//
// TS 36.304 applies this to SFN (mod 1024); eDRX cycles longer than 1024
// frames use a hyperframe-level formula.  We apply the congruence to the
// absolute frame counter with ue_id_modulus = 2^20 (the longest eDRX cycle
// is 2^20 frames), which reduces bit-exactly to the standard formula for
// T <= 1024 and spreads eDRX offsets across the whole cycle, exactly the
// behaviour the H-SFN formula provides.
//
// Key ladder property (used by the paper's DA-SC mechanism): for nB <= T,
// the PO set of cycle 2T is a subset of the PO set of cycle T for the same
// UE, so lengthening a cycle only removes occasions and shortening it only
// adds them.
//
// A device's occasions under one cycle are a PoPhase {offset, period}.
// The planners, the paging table and the UE compute it once per (device,
// cycle) with PagingSchedule::phase and answer every occasion query from
// it inline.  po_offset itself reads one row per ladder cycle, built when
// the schedule is constructed, so a call costs the formula's two modulo
// operations (three when Ns > 1).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>

#include "nbiot/drx.hpp"
#include "nbiot/frames.hpp"
#include "nbiot/types.hpp"

namespace nbmg::nbiot {

/// Cell-level paging parameters.
struct PagingConfig {
    /// nB = T * nb_num / nb_den.  3GPP allows 4T, 2T, T, T/2 .. T/256.
    /// The default (nB = T) gives one paging subframe per frame and exact
    /// ladder nesting.
    std::int64_t nb_num = 1;
    std::int64_t nb_den = 1;

    /// Modulus for UE_ID = IMSI mod ue_id_modulus.  The default spans the
    /// longest eDRX cycle (2^20 frames = 10485.76 s).
    std::uint64_t ue_id_modulus = std::uint64_t{1} << 20;

    /// Maximum paging records carried by one paging message (maxPageRec).
    int max_page_records = 16;

    [[nodiscard]] bool valid() const noexcept {
        return nb_num > 0 && nb_den > 0 && ue_id_modulus > 0 && max_page_records > 0;
    }

    friend bool operator==(const PagingConfig&, const PagingConfig&) = default;
};

/// One device's paging occasions under one cycle: offset + k * period for
/// every k >= 0, in milliseconds.  A plain value computed once per (device,
/// cycle) by PagingSchedule::phase; every query is inline arithmetic.
struct PoPhase {
    std::int64_t offset = 0;  // 0 <= offset < period
    std::int64_t period = 1;

    /// First PO at or after `t`.
    [[nodiscard]] constexpr SimTime first_at_or_after(SimTime t) const noexcept {
        const std::int64_t tm = t.count();
        if (tm <= offset) return SimTime{offset};
        // Smallest k with offset + k*period >= tm.
        const std::int64_t k = (tm - offset + period - 1) / period;
        return SimTime{offset + k * period};
    }

    /// Last PO strictly before `t`; nullopt when no PO exists in [0, t).
    [[nodiscard]] constexpr std::optional<SimTime> last_before(SimTime t) const noexcept {
        const std::int64_t tm = t.count();
        if (tm <= offset) return std::nullopt;
        // Largest k with offset + k*period < tm.
        const std::int64_t k = (tm - offset - 1) / period;
        return SimTime{offset + k * period};
    }

    /// True when `t` is exactly a PO.
    [[nodiscard]] constexpr bool is_po(SimTime t) const noexcept {
        const std::int64_t tm = t.count();
        if (tm < offset) return false;
        return (tm - offset) % period == 0;
    }

    /// True when at least one PO lies in [from, to).
    [[nodiscard]] constexpr bool has_in_range(SimTime from, SimTime to) const noexcept {
        if (from >= to) return false;
        return first_at_or_after(from) < to;
    }

    /// Number of POs in [from, to) (analytic; no enumeration).
    [[nodiscard]] constexpr std::int64_t count_in_range(SimTime from,
                                                        SimTime to) const noexcept {
        if (from >= to) return 0;
        // POs are offset + k*period for k >= 0; count those in [from, to).
        const std::int64_t lo =
            std::max<std::int64_t>(0, ceil_div(from.count() - offset, period));
        // First k at or past `to`.
        const std::int64_t hi = ceil_div(to.count() - offset, period);
        return std::max<std::int64_t>(0, hi - lo);
    }

private:
    /// ceil(a / b) for b > 0 and any sign of a.
    [[nodiscard]] static constexpr std::int64_t ceil_div(std::int64_t a,
                                                         std::int64_t b) noexcept {
        return a >= 0 ? (a + b - 1) / b : -((-a) / b);
    }
};

/// Computes paging occasions for (IMSI, DRX cycle) pairs.
class PagingSchedule {
public:
    explicit PagingSchedule(PagingConfig config = {});

    [[nodiscard]] const PagingConfig& config() const noexcept { return config_; }

    /// Offset of the (single) PO within one cycle, in milliseconds from the
    /// cycle boundary.  0 <= offset < cycle period.
    [[nodiscard]] SimTime po_offset(Imsi imsi, DrxCycle cycle) const noexcept;

    /// The device's paging occasions under `cycle`.
    [[nodiscard]] PoPhase phase(Imsi imsi, DrxCycle cycle) const noexcept {
        return PoPhase{po_offset(imsi, cycle).count(), cycle.period_ms()};
    }

private:
    /// The TS 36.304 constants of one ladder cycle, fixed by the config.
    struct CycleRow {
        std::uint64_t n = 1;          // N = min(T, nB)
        std::uint64_t ns = 1;         // Ns = max(1, nB / T)
        std::int64_t frame_step = 1;  // T / N
        std::array<std::int64_t, 4> subframe{};  // Table 7.2-1 row for Ns, by i_s
    };

    PagingConfig config_;
    std::array<CycleRow, DrxCycle::kLadderSize> rows_{};
};

}  // namespace nbmg::nbiot
