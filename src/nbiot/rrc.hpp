// RRC procedure model: establishment causes, and the signaling-latency
// constants and message sizes the uptime and bytes accounting use.
//
// The DR-SI mechanism adds a new establishment cause (multicastReception)
// and a new UE timer (T322) on top of the standard procedures; both are
// modelled here so the campaign runner can distinguish standard-compliant
// from extended behaviour.
#pragma once

#include <cstdint>

#include "nbiot/types.hpp"

namespace nbmg::nbiot {

/// RRCConnectionRequest establishment cause.  `multicast_reception` is the
/// paper's (non-standard) extension used by DR-SI.
enum class EstablishmentCause : std::uint8_t {
    mo_signalling,
    mo_data,
    mt_access,
    multicast_reception,  // DR-SI extension; not in TS 36.331
};

[[nodiscard]] constexpr const char* to_string(EstablishmentCause cause) noexcept {
    switch (cause) {
        case EstablishmentCause::mo_signalling: return "mo-Signalling";
        case EstablishmentCause::mo_data: return "mo-Data";
        case EstablishmentCause::mt_access: return "mt-Access";
        case EstablishmentCause::multicast_reception: return "multicastReception";
    }
    return "?";
}

/// True when the cause exists in TS 36.331 (standards compliance checks).
[[nodiscard]] constexpr bool is_standard_cause(EstablishmentCause cause) noexcept {
    return cause != EstablishmentCause::multicast_reception;
}

/// Time constants of the protocol actions a device performs.  All values
/// are configurable; defaults are representative of commercial NB-IoT
/// deployments and of the constants used in the paper's own references.
struct TimingModel {
    SimTime po_monitor{15};          // wake + NPDCCH monitoring at one PO
    SimTime paging_decode{25};       // NPDSCH paging message reception
    SimTime mltc_extension_extra{8}; // extra decode time for the DR-SI extension
    SimTime page_to_rach{10};        // processing gap between page and msg1
    SimTime rrc_setup{250};          // msg4 -> setupComplete + security (NB-IoT
                                     // control plane is slow: ~1.5 s RA-to-ready)
    SimTime rrc_reconfiguration{120};  // reconfiguration + complete
    SimTime rrc_release{50};           // release + ack

    [[nodiscard]] bool valid() const noexcept {
        return po_monitor.count() > 0 && paging_decode.count() >= 0 &&
               mltc_extension_extra.count() >= 0 && page_to_rach.count() >= 0 &&
               rrc_setup.count() >= 0 && rrc_reconfiguration.count() >= 0 &&
               rrc_release.count() >= 0;
    }

    friend bool operator==(const TimingModel&, const TimingModel&) = default;
};

/// Approximate over-the-air message sizes (bytes) for the secondary
/// bandwidth metric (bytes on air).  Values follow typical NB-IoT SRB
/// message sizes.
struct SignalingSizes {
    std::int64_t paging_message_base = 20;
    std::int64_t paging_record = 8;        // one PagingRecordList entry
    std::int64_t mltc_extension_entry = 12;  // id + time-to-multicast
    std::int64_t rach_exchange = 56;       // msg1..msg4
    std::int64_t rrc_setup_exchange = 120;
    std::int64_t rrc_reconfiguration = 40;
    std::int64_t rrc_release = 16;

    friend bool operator==(const SignalingSizes&, const SignalingSizes&) = default;
};

}  // namespace nbmg::nbiot
