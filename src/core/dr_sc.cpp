// DR-SC planner (Sec. III-A).
//
// The planning horizon is 2 * maxDRX (per the paper): two repetitions of
// the PO pattern, since every ladder cycle divides maxDRX.  Compute each
// device's PoPhase once; enumerate every device's paging occasions over
// one repetition, [0, maxDRX), already in the (time, device) order the
// cover works in (so it never sorts them); run the greedy window cover over
// its two copies (window = TI, random tie-break; the second copy is read in
// place, never built); transmit at each window's end plus the RA guard;
// and page each covered device at its first PO inside its window, from
// the same phase.
// Devices that cannot be paged inside their window (paging-channel
// capacity) fall back to later rounds and, ultimately, to a dedicated
// transmission — so the plan always covers everyone the channel can reach.
#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/planner_detail.hpp"
#include "core/planners.hpp"
#include "nbiot/paging_scheduler.hpp"
#include "setcover/window_cover.hpp"

namespace nbmg::core {
namespace {

// A phase is below the longest cycle, so (phase, device) packs into one key.
static_assert(nbiot::DrxCycle::from_index(nbiot::DrxCycle::kLadderSize - 1).period_ms() <
              (std::int64_t{1} << 32));

/// Every PO of every device in [0, horizon), in (time, device) order, from
/// the devices' phases (`phases[i]` is device i's).  Every ladder cycle is
/// the shortest present, P, times a power of two, so all of a device's POs
/// sit at phase offset mod P of their P-long blocks, and inside a block
/// (time, device) order is (phase, device) order.  The devices are ranked
/// once by (phase, device); one counting pass over the POs, each device
/// stepping its block index by period / P, sizes every block; then the
/// POs are scattered into their blocks back to front in falling rank.  POs
/// at or past `horizon` are never counted, which trims the last block when
/// the horizon is a multiple of no period.
std::vector<setcover::PoEvent> ordered_po_events(std::span<const nbiot::UeSpec> devices,
                                                 std::span<const nbiot::PoPhase> phases,
                                                 nbiot::SimTime horizon) {
    if (devices.empty() || horizon <= nbiot::SimTime{0}) return {};
    std::int64_t p = phases.front().period;
    for (const nbiot::PoPhase& phase : phases) p = std::min(p, phase.period);

    // Each device's first block and block step, and its rank key.
    struct Blocks {
        std::size_t first = 0;
        std::size_t step = 1;
    };
    struct Ranked {
        std::uint64_t key = 0;  // phase << 32 | device
        std::uint32_t index = 0;
    };
    const std::size_t n = devices.size();
    std::vector<Blocks> blocks(n);
    std::vector<Ranked> ranked(n);
    for (std::size_t i = 0; i < n; ++i) {
        const nbiot::PoPhase& phase = phases[i];
        if (phase.period % p != 0) {
            throw std::logic_error(
                "dr_sc_po_events: a DRX period is not a multiple of the shortest");
        }
        blocks[i] = {static_cast<std::size_t>(phase.offset / p),
                     static_cast<std::size_t>(phase.period / p)};
        ranked[i] = {static_cast<std::uint64_t>(phase.offset % p) << 32 | devices[i].device.value,
                     static_cast<std::uint32_t>(i)};
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) { return a.key < b.key; });

    // Calls visit(time, block) for each of device i's POs before the horizon.
    const std::int64_t h = horizon.count();
    const auto for_each_po = [&](std::size_t i, auto visit) {
        std::size_t b = blocks[i].first;
        for (std::int64_t t = phases[i].offset; t < h; t += phases[i].period) {
            visit(t, b);
            b += blocks[i].step;
        }
    };
    // first[b] counts block b, then (prefix sums) ends it, then (the
    // back-to-front scatter) starts it.
    std::vector<std::size_t> first(static_cast<std::size_t>((h - 1) / p + 1), 0);
    for (std::size_t i = 0; i < n; ++i) {
        for_each_po(i, [&](std::int64_t, std::size_t b) { ++first[b]; });
    }
    std::inclusive_scan(first.begin(), first.end(), first.begin());
    std::vector<setcover::PoEvent> events(first.back());
    for (auto r = ranked.rbegin(); r != ranked.rend(); ++r) {
        const auto device = static_cast<std::uint32_t>(r->key);
        for_each_po(r->index, [&](std::int64_t t, std::size_t b) {
            events[--first[b]] = setcover::PoEvent{nbiot::SimTime{t}, device};
        });
    }
    return events;
}

/// Every device's phase under its own cycle, one per device.
std::vector<nbiot::PoPhase> phases_of(std::span<const nbiot::UeSpec> devices,
                                      const nbiot::PagingSchedule& paging) {
    std::vector<nbiot::PoPhase> phases;
    phases.reserve(devices.size());
    for (const nbiot::UeSpec& dev : devices) phases.push_back(paging.phase(dev.imsi, dev.cycle));
    return phases;
}

}  // namespace

std::vector<setcover::PoEvent> dr_sc_po_events(std::span<const nbiot::UeSpec> devices,
                                               const nbiot::PagingSchedule& paging,
                                               nbiot::SimTime horizon) {
    return ordered_po_events(devices, phases_of(devices, paging), horizon);
}

MulticastPlan DrScMechanism::plan(std::span<const nbiot::UeSpec> devices,
                                  const CampaignConfig& config,
                                  sim::RandomStream& rng) const {
    if (devices.empty()) throw std::invalid_argument("DrSc: empty population");
    if (!config.valid()) throw std::invalid_argument("DrSc: invalid config");

    const nbiot::PagingSchedule paging(config.paging);
    nbiot::PagingScheduler scheduler(config.paging.max_page_records, devices.size());
    scheduler.set_telemetry(config.telemetry);
    const nbiot::SimTime horizon = detail::reference_time(devices);
    const nbiot::SimTime window = config.inactivity_timer;

    MulticastPlan plan;
    plan.kind = MechanismKind::dr_sc;
    plan.planning_reference = horizon;
    plan.schedules.resize(devices.size());

    // Every PO of every device over the horizon: one repetition, twice.
    // maxDRX is whole frames, so the horizon is exactly 2 * maxDRX.  Each
    // device's phase serves its POs and its page.
    const std::vector<nbiot::PoPhase> phases = phases_of(devices, paging);
    const nbiot::SimTime max_drx{population_max_cycle(devices).period_ms()};
    const setcover::WindowCoverResult cover = setcover::greedy_window_cover(
        ordered_po_events(devices, phases, max_drx), max_drx, 2, window,
        static_cast<std::uint32_t>(devices.size()), rng);
    // Every device has >= 1 PO in [0, maxDRX), so nothing is uncoverable.
    if (!cover.uncoverable.empty()) {
        throw std::logic_error("DrSc: device without paging occasions in horizon");
    }

    std::vector<nbiot::DeviceId> leftovers;
    for (const setcover::CoverWindow& w : cover.windows) {
        PlannedTransmission tx;
        nbiot::SimTime last_page = w.start;
        for (const std::uint32_t d : w.devices) {
            const nbiot::UeSpec& spec = devices[d];
            // Page at the device's first free PO inside [window start, end].
            const auto slot = scheduler.enqueue_record(spec.device, phases[d], w.start,
                                                       w.end + nbiot::SimTime{1});
            if (!slot) {
                leftovers.push_back(spec.device);
                continue;
            }
            plan.schedules[d].page_at = *slot;
            plan.schedules[d].transmission = plan.transmissions.size();
            tx.devices.push_back(spec.device);
            last_page = std::max(last_page, *slot);
        }
        // Transmit as soon as the last paged device can have connected; the
        // window only defines membership (the eNB has no reason to wait for
        // the full TI once everyone it paged is connected).
        tx.start = last_page + detail::nominal_connect_duration(config) + config.ra_guard;
        if (!tx.devices.empty()) plan.transmissions.push_back(std::move(tx));
    }

    // Fallback: devices squeezed out by paging capacity each get a
    // dedicated transmission at their next reachable PO.
    for (const nbiot::DeviceId dev : leftovers) {
        const auto slot = scheduler.enqueue_record(dev, phases[dev.value], horizon,
                                                   detail::open_deadline(devices));
        if (!slot) continue;
        plan.schedules[dev.value].page_at = *slot;
        plan.schedules[dev.value].transmission = plan.transmissions.size();
        PlannedTransmission tx;
        tx.start = *slot + detail::nominal_connect_duration(config) + config.ra_guard;
        tx.devices.push_back(dev);
        plan.transmissions.push_back(std::move(tx));
    }

    return plan;
}

}  // namespace nbmg::core
