#include "nbiot/paging.hpp"

#include <stdexcept>

namespace nbmg::nbiot {

PagingSchedule::PagingSchedule(PagingConfig config) : config_(config) {
    if (!config_.valid()) throw std::invalid_argument("PagingSchedule: invalid config");
    const std::int64_t ns = std::max<std::int64_t>(1, config_.nb_num / config_.nb_den);
    // PO subframe by i_s (TS 36.304 Table 7.2-1, FDD).
    std::array<std::int64_t, 4> subframe{};
    switch (ns) {
        case 1: subframe = {9, 0, 0, 0}; break;
        case 2: subframe = {4, 9, 0, 0}; break;
        case 4: subframe = {0, 4, 5, 9}; break;
        default:
            throw std::invalid_argument("PagingSchedule: nB/T must give Ns in {1,2,4}");
    }
    for (const DrxCycle cycle : drx_ladder()) {
        const std::int64_t t_frames = cycle.period_frames();
        // nB scaled from T; clamp to at least one paging frame per cycle.
        // Ns = max(1, nB / T) is max(1, nb_num / nb_den) on every row
        // (floor(floor(x) / T) = floor(x / T)), hence `ns` above.
        const std::int64_t nb =
            std::max<std::int64_t>(1, t_frames * config_.nb_num / config_.nb_den);
        const std::int64_t n = std::min(t_frames, nb);
        rows_[static_cast<std::size_t>(cycle.index())] =
            CycleRow{.n = static_cast<std::uint64_t>(n),
                     .ns = static_cast<std::uint64_t>(ns),
                     .frame_step = t_frames / n,
                     .subframe = subframe};
    }
}

SimTime PagingSchedule::po_offset(Imsi imsi, DrxCycle cycle) const noexcept {
    const CycleRow& row = rows_[static_cast<std::size_t>(cycle.index())];
    // UE_ID stays unsigned: a modulus past 2^63 gives UE_IDs past INT64_MAX.
    const std::uint64_t ue_id = imsi.value % config_.ue_id_modulus;
    // PF = (T/N) * (UE_ID mod N), which is below T: no reduction mod T.
    const std::int64_t pf_offset = row.frame_step * static_cast<std::int64_t>(ue_id % row.n);
    const std::uint64_t i_s = row.ns > 1 ? (ue_id / row.n) % row.ns : 0;
    return SimTime{pf_offset * kMillisPerFrame + row.subframe[i_s] * kMillisPerSubframe};
}

}  // namespace nbmg::nbiot
