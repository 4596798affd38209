// Benchmark driver for the nbmg simulator.  perfbench/run.py starts one
// process per measured run and owns everything around it: process start-up
// time, resource usage, output digests and statistics.
//
//   perfbench_driver context
//       The build's recording context as one JSON line.
//   perfbench_driver setup <spec-file>
//       Set-up only: reads, parses and validates the spec, then prints the
//       instant it is ready for run_scenario (CLOCK_MONOTONIC ns).
//   perfbench_driver run <spec-file> <out-dir>
//       End-to-end pass through the stable front door: spec text in,
//       scenario::run_scenario, summary.csv (plus coordination.csv when a
//       coordinator ran) out.  Prints one JSON line with the wall and CPU
//       time of run_scenario itself, the process's peak resident set, and
//       the host-speed probe's time taken around the call.
//   perfbench_driver trace <spec-file> <out-dir> <seconds>
//       Traced pass, serial.  Each repetition runs run_scenario at one
//       thread (writing the same CSVs, the threads-1 reference), then
//       rebuilds the same work from the layers' public functions with one
//       span around every call.  The process's peak resident set right
//       after the first run_scenario is that call's memory at one thread.  Repeats until <seconds> have passed (at
//       least once) and prints one JSON line per repetition, with
//       run_scenario's own figures for what the rebuild also counts.
//
// The rebuild draws from the engines' own stream labels ("population",
// "plan-unicast", the mechanism names, derive_seed(root, "run", run)) and
// repeats the deployment engine's self-healing pass after an outage, so its
// work counts and its trace equal run_scenario's.  No span lives inside src/.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/mechanism.hpp"
#include "core/sweep.hpp"
#include "multicell/assignment.hpp"
#include "multicell/coordinator.hpp"
#include "multicell/deployment.hpp"
#include "nbiot/radio.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "snapshot/format.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sink.hpp"
#include "traffic/population.hpp"

namespace {

using namespace nbmg;
using Clock = std::chrono::steady_clock;

std::int64_t monotonic_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of the process's own address space (VmHWM), in MB.
/// ru_maxrss would also count the launching process's peak, which the kernel
/// carries over an exec, and the probe's children.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// The deterministic outputs run.py digests.
void write_outputs(const scenario::ScenarioResult& result, const std::string& out_dir) {
    write_file(out_dir + "/summary.csv", result.summary_csv());
    if (result.is_coordinated()) {
        write_file(out_dir + "/coordination.csv", result.coordination_csv());
    }
}

/// One JSON object on one line; numbers keep all their digits.
class JsonLine {
public:
    JsonLine& add(const std::string& key, double value) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return raw(key, buf);
    }
    JsonLine& add(const std::string& key, std::uint64_t value) {
        return raw(key, std::to_string(value));
    }
    JsonLine& add(const std::string& key, const std::string& value) {
        return raw(key, "\"" + value + "\"");
    }
    JsonLine& raw(const std::string& key, const std::string& json) {
        text_ += (text_.empty() ? "{\"" : ", \"") + key + "\": " + json;
        return *this;
    }
    [[nodiscard]] std::string str() const { return text_.empty() ? "{}" : text_ + "}"; }
    void print() const { std::printf("%s\n", str().c_str()); }

private:
    std::string text_;
};

// ---------------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------------

/// A fixed discrete-event kernel that shares no code with src/: a binary heap
/// of (time, device) events over 2^16 device records, xorshift draws and one
/// scattered read per event.  It is the same kind of work as a campaign, so
/// its time follows the host's speed the way the simulator's does, and no
/// change to the simulator moves it.
std::uint64_t probe_kernel() {
    constexpr std::uint32_t kDevices = 1U << 16;
    constexpr std::uint32_t kEvents = 200'000;
    struct Device {
        std::uint64_t clock = 0;
        std::uint64_t state = 0;
        double load = 0.0;
        std::uint32_t hits = 0;
    };
    std::vector<Device> devices(kDevices);
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto draw = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t d = 0; d < kDevices; ++d) queue.emplace(draw() % 100'000, d);
    std::uint64_t sum = 0;
    for (std::uint32_t e = 0; e < kEvents; ++e) {
        const auto [time, id] = queue.top();
        queue.pop();
        Device& device = devices[id];
        device.clock += time;
        device.state ^= draw();
        device.load += 1.5;
        ++device.hits;
        sum += devices[draw() % kDevices].clock;
        queue.emplace(time + 1 + draw() % 5'000, id);
    }
    return sum;
}

/// Wall seconds of probe_kernel on `threads` threads at once, the calling
/// thread among them.
double probe_seconds(std::size_t threads) {
    std::atomic<std::uint64_t> sink{0};
    const auto work = [&sink] { sink += probe_kernel(); };
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> others;
    for (std::size_t i = 1; i < threads; ++i) others.emplace_back(work);
    work();
    for (std::thread& t : others) t.join();
    return seconds_between(start, Clock::now());
}

/// Probe seconds at one thread and at `threads`.
struct ProbeTimes {
    double one = 0.0;
    double all = 0.0;
};

/// Runs the probe in a forked child, so that neither its memory nor its
/// effect on the allocator's state reaches the measured process.
ProbeTimes probe_in_child(std::size_t threads) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("host-speed probe: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("host-speed probe: fork failed");
    if (pid == 0) {
        close(fds[0]);
        const ProbeTimes times{probe_seconds(1), probe_seconds(threads)};
        const bool sent = write(fds[1], &times, sizeof times) == sizeof times;
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    ProbeTimes times;
    const ssize_t got = read(fds[0], &times, sizeof times);
    close(fds[0]);
    int status = 0;
    const bool reaped = waitpid(pid, &status, 0) == pid;
    if (got != sizeof times || !reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("host-speed probe failed");
    }
    return times;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced call: name, start and end on the steady clock, and the index
/// of the span that caused it (-1 at the top).  Spans stay in memory and
/// are written out when the pass ends.
struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
};

class Tracer {
public:
    /// Runs `call` inside a span and returns its result.
    template <typename Call>
    decltype(auto) span(std::string name, int parent, Call&& call) {
        const int id = open(std::move(name), parent);
        struct Closer {
            Tracer* tracer;
            int id;
            ~Closer() { tracer->close(id); }
        } closer{this, id};
        return call();
    }

    int open(std::string name, int parent) {
        spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

    /// Wall time the spans themselves cost: every open/close pair of the
    /// pass replayed, with the same names, around no work.  A traced pass
    /// and an untraced one doing the same calls differ by exactly this.
    [[nodiscard]] double replay_seconds() const {
        Tracer replay;
        const Clock::time_point start = Clock::now();
        for (const Span& s : spans_) replay.close(replay.open(s.name, s.parent));
        return seconds_between(start, Clock::now());
    }

    /// Seconds per span name, summed over every call.
    [[nodiscard]] std::map<std::string, double> totals() const {
        std::map<std::string, double> out;
        for (const Span& s : spans_) {
            out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        }
        return out;
    }

    void write_json(const std::string& path) const {
        std::ostringstream out;
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "  {\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
                << ", \"parent\": " << s.parent << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
        write_file(path, out.str());
    }

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The rebuilt pass
// ---------------------------------------------------------------------------

/// Metric-name spelling of a mechanism ("dr_sc", ..., "unicast").
std::string metric_key(core::MechanismKind kind) {
    switch (kind) {
        case core::MechanismKind::dr_sc: return "dr_sc";
        case core::MechanismKind::da_sc: return "da_sc";
        case core::MechanismKind::dr_si: return "dr_si";
        case core::MechanismKind::unicast: return "unicast";
        case core::MechanismKind::sc_ptm: return "sc_ptm";
    }
    return "unknown";
}

/// Work counts and model health of the rebuilt pass, summed over every
/// (run, cell, campaign).  All deterministic.
struct WorkCounts {
    std::uint64_t devices = 0;  // device-campaigns executed
    std::uint64_t rach_attempts = 0;
    std::uint64_t rach_collisions = 0;
    std::uint64_t rach_failures = 0;
    std::uint64_t paging_messages = 0;
    std::uint64_t recovery_tx = 0;
    std::uint64_t transmissions = 0;
    std::uint64_t dr_sc_planned = 0;
    std::uint64_t recovered_devices = 0;
    std::uint64_t unreceived_devices = 0;
    std::uint64_t stranded_devices = 0;
    std::uint64_t max_attempts_per_device = 0;

    /// `healed` devices were re-delivered after their cell went down, so
    /// they no longer count as unreceived.
    void add(const core::CampaignResult& r, std::size_t healed) {
        devices += r.devices.size();
        rach_attempts += r.rach_attempts;
        rach_collisions += r.rach_collisions;
        rach_failures += r.rach_failures;
        paging_messages += r.paging_messages;
        recovery_tx += r.recovery_transmissions;
        transmissions += r.total_transmissions();
        unreceived_devices += r.devices.size() - r.received_count() - healed;
        stranded_devices += r.stranded;
        for (const core::DeviceOutcome& d : r.devices) {
            if (d.recovered) ++recovered_devices;
            max_attempts_per_device = std::max<std::uint64_t>(
                max_attempts_per_device, static_cast<std::uint64_t>(d.rach_attempts));
        }
    }
};

struct RebuildOutput {
    WorkCounts counts;
    /// The rendered JSONL trace ("" without trace telemetry).
    std::string trace;
    std::uint64_t trace_records = 0;
    std::uint64_t snapshot_saves = 0;
    std::uint64_t snapshot_final_bytes = 0;
    /// The loaded final snapshot written once more ("" without one).
    std::string snapshot_rewrite;
};

/// The deployment engine's self-healing pass for a campaign that its cell's
/// outage stopped: every device left without the payload is re-assigned over
/// the surviving cells and served by one serialized unicast re-delivery,
/// traced as one `redelivery` record.  Returns the number of devices healed.
std::size_t redeliver(const scenario::ScenarioSpec& spec,
                      const multicell::CellTopology& topology,
                      const core::CampaignConfig& config, const core::CampaignResult& result) {
    std::vector<nbiot::UeSpec> stranded;
    for (const core::DeviceOutcome& d : result.devices) {
        if (!d.received) stranded.push_back(d.spec);
    }
    multicell::CellTopology survivors;
    for (const multicell::CellSite& site : topology.cells) {
        if (site.id == spec.cell_down->cell) continue;
        multicell::CellSite s = site;
        s.id = static_cast<std::uint32_t>(survivors.cells.size());
        survivors.cells.push_back(s);
    }
    if (stranded.empty() || survivors.cells.empty()) return 0;

    const multicell::AssignmentPolicy policy =
        spec.assignment == multicell::AssignmentPolicy::class_affinity
            ? multicell::AssignmentPolicy::uniform_hash
            : spec.assignment;
    const multicell::DeviceAssignment assignment =
        multicell::assign_devices(survivors, stranded, {}, policy, spec.base_seed);
    const nbiot::RadioModel radio(config.radio);
    const std::int64_t reattach_ms = config.rach.attempt_active_time().count() +
                                     config.timing.rrc_setup.count() +
                                     config.timing.rrc_release.count();
    std::vector<std::int64_t> feed_clock(survivors.cells.size(), spec.cell_down->at_ms);
    for (std::size_t i = 0; i < stranded.size(); ++i) {
        std::int64_t& clock = feed_clock[assignment.cell_of_device[i]];
        clock += reattach_ms +
                 radio.downlink_airtime(result.payload_bytes, stranded[i].ce_level).count();
        NBMG_TELEMETRY_EMIT(config.telemetry, telemetry::EventKind::redelivery, clock,
                            stranded[i].device.value, result.payload_bytes, 1);
    }
    return stranded.size();
}

/// The collector run_scenario would attach for this spec, or nullopt.
std::optional<telemetry::Collector> make_collector(const scenario::ScenarioSpec& spec) {
    if (!spec.telemetry.enabled()) return std::nullopt;
    telemetry::TelemetryConfig config;
    config.trace = spec.telemetry.trace;
    config.metrics = spec.telemetry.metrics;
    config.bucket_ms = spec.telemetry.bucket_ms;
    const scenario::Registry& registry = scenario::Registry::instance();
    std::vector<std::string> labels{registry.mechanism_name(core::MechanismKind::unicast)};
    for (const core::MechanismKind kind : spec.mechanisms) {
        labels.push_back(registry.mechanism_name(kind));
    }
    return std::make_optional<telemetry::Collector>(config, spec.runs, spec.cell_count(),
                                                    std::move(labels));
}

/// Number of snapshot writes CheckpointContext makes for these task spans
/// completed in slot order (the order of a serial run): one per throttle
/// expiry, plus the final save.
std::uint64_t checkpoint_saves(const scenario::CheckpointSpec& checkpoint,
                               const std::vector<std::int64_t>& task_horizons_ms) {
    if (checkpoint.out.empty()) return 0;
    std::uint64_t saves = 1;
    std::int64_t unsaved = 0;
    for (const std::int64_t horizon : task_horizons_ms) {
        unsaved += std::max<std::int64_t>(horizon, 0);
        if (checkpoint.every_ms <= 0 || unsaved >= checkpoint.every_ms) {
            ++saves;
            unsaved = 0;
        }
    }
    return saves;
}

RebuildOutput rebuild(const scenario::ScenarioSpec& spec, Tracer& tracer, int root,
                      const std::string& out_dir) {
    RebuildOutput out;
    const std::size_t cells = spec.cell_count();
    const multicell::CellTopology topology =
        spec.topology ? spec.topology->realize() : multicell::CellTopology::uniform(1);

    std::vector<core::CampaignConfig> cell_configs(cells, spec.config);
    for (std::size_t c = 0; c < cells; ++c) {
        if (topology.cells[c].max_page_records_override > 0) {
            cell_configs[c].paging.max_page_records =
                topology.cells[c].max_page_records_override;
        }
    }
    if (spec.cell_down) cell_configs[spec.cell_down->cell].outage_at_ms = spec.cell_down->at_ms;

    std::optional<telemetry::Collector> collector = make_collector(spec);
    const sim::RngFactory fleet_rng(spec.base_seed);

    // Per-(run, cell) spans for the coordinator and the checkpoint throttle,
    // exactly as run_deployment records them.
    multicell::DeploymentResult timing;
    timing.cells.resize(cells);
    std::vector<std::int64_t> task_horizons;

    for (std::size_t run = 0; run < spec.runs; ++run) {
        const int run_span = tracer.open("pass.run", root);
        const std::vector<traffic::GeneratedDevice> generated =
            tracer.span("traffic.population", run_span, [&] {
                sim::RandomStream pop_rng = fleet_rng.stream("population", run);
                return traffic::generate_population(spec.profile, spec.device_count, pop_rng);
            });
        const std::vector<nbiot::UeSpec> fleet =
            tracer.span("traffic.population", run_span, [&] { return traffic::to_specs(generated); });

        std::vector<std::vector<nbiot::UeSpec>> shards(cells);
        if (cells == 1) {
            shards[0] = fleet;
        } else {
            std::vector<std::uint32_t> classes;
            if (spec.assignment == multicell::AssignmentPolicy::class_affinity) {
                for (const traffic::GeneratedDevice& d : generated) {
                    classes.push_back(static_cast<std::uint32_t>(d.class_index));
                }
            }
            const multicell::DeviceAssignment assignment =
                tracer.span("multicell.assign", run_span, [&] {
                    return multicell::assign_devices(topology, fleet, classes,
                                                     spec.assignment, spec.base_seed);
                });
            for (std::size_t d = 0; d < fleet.size(); ++d) {
                std::vector<nbiot::UeSpec>& bucket = shards[assignment.cell_of_device[d]];
                nbiot::UeSpec ue = fleet[d];
                ue.device = nbiot::DeviceId{static_cast<std::uint32_t>(bucket.size())};
                bucket.push_back(ue);
            }
        }

        for (std::size_t cell = 0; cell < cells; ++cell) {
            const std::vector<nbiot::UeSpec>& specs = shards[cell];
            if (specs.empty()) {
                timing.spans.push_back(multicell::CellRunSpan{0, 0});
                task_horizons.push_back(0);
                continue;
            }
            const int cell_span = tracer.open("pass.cell", run_span);
            const sim::RngFactory rng(multicell::cell_seed_root(
                spec.base_seed, cells, static_cast<std::uint32_t>(cell)));
            const core::CampaignConfig& base = cell_configs[cell];
            const nbiot::SimTime horizon =
                core::recommended_horizon(specs, base, spec.payload_bytes);
            const std::uint64_t run_seed = sim::derive_seed(rng.root_seed(), "run", run);
            const bool outage_here = spec.cell_down && base.outage_at_ms >= 1 &&
                                     spec.cell_down->cell == cell &&
                                     spec.cell_down->at_ms < horizon.count();

            const auto campaign = [&](core::MechanismKind kind, std::string_view stream,
                                      std::size_t slot) {
                core::CampaignConfig config = base;
                if (collector) config.telemetry = collector->sink(run, cell, slot);
                const std::string key = metric_key(kind);
                const core::MulticastPlan plan = tracer.span("plan." + key, cell_span, [&] {
                    sim::RandomStream plan_rng = rng.stream(stream, run);
                    return core::make_mechanism(kind)->plan(specs, config, plan_rng);
                });
                if (kind == core::MechanismKind::dr_sc) {
                    out.counts.dr_sc_planned += plan.transmissions.size();
                }
                const core::CampaignResult result =
                    tracer.span("campaign." + key, cell_span, [&] {
                        return core::CampaignRunner(config).run(plan, specs, spec.payload_bytes,
                                                                horizon, run_seed);
                    });
                const std::size_t healed =
                    outage_here ? tracer.span("multicell.redeliver", cell_span, [&] {
                        return redeliver(spec, topology, config, result);
                    })
                                : 0;
                out.counts.add(result, healed);
            };
            campaign(core::MechanismKind::unicast, "plan-unicast", 0);
            for (std::size_t m = 0; m < spec.mechanisms.size(); ++m) {
                campaign(spec.mechanisms[m], core::make_mechanism(spec.mechanisms[m])->name(),
                         m + 1);
            }
            timing.spans.push_back(multicell::CellRunSpan{specs.size(), horizon.count()});
            task_horizons.push_back(horizon.count());
            tracer.close(cell_span);
        }
        tracer.close(run_span);
    }

    std::optional<multicell::CoordinationAggregates> coordination;
    if (spec.coordinator) {
        coordination = tracer.span("multicell.coordinate", root, [&] {
            return multicell::coordinate_deployment(timing, *spec.coordinator,
                                                    spec.payload_bytes,
                                                    collector ? &*collector : nullptr,
                                                    spec.base_seed);
        });
    }

    if (collector) {
        if (spec.telemetry.trace) {
            out.trace = tracer.span("telemetry.export", root, [&] {
                return telemetry::trace_jsonl(*collector);
            });
            tracer.span("telemetry.export", root, [&] {
                return telemetry::timeline_json(*collector,
                                                coordination ? &*coordination : nullptr);
            });
            for (std::size_t run = 0; run < collector->runs(); ++run) {
                for (std::size_t cell = 0; cell < collector->cells(); ++cell) {
                    for (std::size_t k = 0; k < collector->campaigns(); ++k) {
                        out.trace_records += collector->slot(run, cell, k).records().size();
                    }
                }
                out.trace_records += collector->city_slot(run).records().size();
            }
        }
        if (spec.telemetry.metrics) {
            tracer.span("telemetry.export", root,
                        [&] { return telemetry::metrics_table(*collector); });
        }
    }

    // The snapshot layer: read the engine's final snapshot back and write
    // the same sections once more.
    if (!spec.checkpoint.out.empty()) {
        const std::vector<snapshot::Section> sections = tracer.span(
            "snapshot.load", root, [&] { return snapshot::read_snapshot_file(spec.checkpoint.out); });
        out.snapshot_rewrite = out_dir + "/rewrite.snap";
        tracer.span("snapshot.write", root,
                    [&] { snapshot::write_snapshot_file(out.snapshot_rewrite, sections); });
        out.snapshot_final_bytes = std::filesystem::file_size(out.snapshot_rewrite);
        out.snapshot_saves = checkpoint_saves(spec.checkpoint, task_horizons);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

int mode_context() {
    JsonLine()
        .add("build_type", std::string(PERFBENCH_BUILD_TYPE))
        .raw("lto", PERFBENCH_LTO ? "true" : "false")
        .add("compiler", std::string("g++ ") + __VERSION__)
        .print();
    return 0;
}

/// Set-up as the end-to-end pass does it: read, parse and validate.
scenario::ScenarioSpec load_spec(const std::string& spec_path) {
    scenario::ScenarioSpec spec = scenario::parse_scenario_text(read_file(spec_path), spec_path);
    spec.validate();
    return spec;
}

int mode_setup(const std::string& spec_path) {
    load_spec(spec_path);
    JsonLine().add("handoff_ns", static_cast<std::uint64_t>(monotonic_ns())).print();
    return 0;
}

int mode_run(const std::string& spec_path, const std::string& out_dir) {
    const scenario::ScenarioSpec spec = load_spec(spec_path);
    // The probe runs right before and right after the timed call, at one
    // thread (where a serial run executes) and at the run's thread count.
    const std::size_t threads = core::resolve_threads(spec.threads);
    const ProbeTimes before = probe_in_child(threads);
    const double cpu_before = cpu_seconds();
    const Clock::time_point start = Clock::now();
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    const Clock::time_point end = Clock::now();
    const double cpu = cpu_seconds() - cpu_before;
    const ProbeTimes after = probe_in_child(threads);
    write_outputs(result, out_dir);
    JsonLine()
        .add("wall_s", seconds_between(start, end))
        .add("cpu_s", cpu)
        .add("peak_rss_mb", peak_rss_mb())
        .add("probe_s", std::sqrt((before.one + after.one) * (before.all + after.all)) / 2.0)
        .print();
    return 0;
}

int mode_trace(const std::string& spec_path, const std::string& out_dir, double seconds) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    double serial_peak_mb = 0.0;
    for (int repetition = 0; repetition == 0 || Clock::now() < deadline; ++repetition) {
        Tracer tracer;
        const std::string text = read_file(spec_path);
        scenario::ScenarioSpec spec = tracer.span(
            "scenario.parse", -1, [&] { return scenario::parse_scenario_text(text, spec_path); });
        spec.threads = 1;

        const scenario::ScenarioResult serial = tracer.span(
            "engine.serial", -1, [&] { return scenario::run_scenario(spec); });
        if (repetition == 0) serial_peak_mb = peak_rss_mb();
        write_outputs(serial, out_dir);

        const int root = tracer.open("pass.rebuild", -1);
        const RebuildOutput rebuilt = rebuild(spec, tracer, root, out_dir);
        tracer.close(root);
        tracer.write_json(out_dir + "/spans.json");
        const double overhead_s = tracer.replay_seconds();

        // Checks of the rebuild against run_scenario's own outputs, outside
        // every span.
        const bool snapshot_roundtrip =
            rebuilt.snapshot_rewrite.empty() ||
            read_file(rebuilt.snapshot_rewrite) == read_file(spec.checkpoint.out);
        const std::string no_trace;
        const std::string& engine_trace =
            serial.telemetry ? serial.telemetry->trace_jsonl : no_trace;
        double engine_unreceived = 0.0;
        double engine_stranded = 0.0;
        for (std::size_t m = 0; m <= serial.mechanism_count(); ++m) {
            const core::MechanismStats& s =
                m == 0 ? serial.unicast_stats() : serial.mechanism_stats(m - 1);
            engine_unreceived += s.unreceived_devices.sum();
            engine_stranded += s.stranded_devices.sum();
        }
        const auto whole = [](double value) {
            return static_cast<std::uint64_t>(std::llround(value));
        };
        JsonLine engine;
        engine.add("campaign.unreceived_devices", whole(engine_unreceived))
            .add("campaign.stranded_devices", whole(engine_stranded))
            .add("telemetry.trace_records",
                 static_cast<std::uint64_t>(
                     std::count(engine_trace.begin(), engine_trace.end(), '\n')));

        const std::map<std::string, double> totals = tracer.totals();
        const auto total = [&](const std::string& name) {
            const auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second;
        };
        // Layer spans are the named calls; the pass.* spans only group them,
        // and the read path is not part of a fresh run.
        double layers = 0.0;
        double campaign_s = 0.0;
        for (const auto& [name, value] : totals) {
            if (name.rfind("campaign.", 0) == 0) campaign_s += value;
            if (name.rfind("pass.", 0) == 0 || name == "scenario.parse" ||
                name == "engine.serial" || name == "snapshot.load") {
                continue;
            }
            layers += value;
        }
        const double serial_s = total("engine.serial");
        const WorkCounts& c = rebuilt.counts;
        const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

        // Host times, in seconds per layer span name.
        JsonLine spans;
        for (const auto& [name, value] : totals) {
            if (name.rfind("pass.", 0) != 0) spans.add(name + "_s", value);
        }
        spans.add("engine.other_s", serial_s - layers)
            .add("engine.peak_rss_mb", serial_peak_mb)
            .add("trace.overhead_s", overhead_s)
            .add("traffic.ns_per_device",
                 per(total("traffic.population") * 1e9,
                     static_cast<double>(spec.device_count * spec.runs)))
            .add("campaign.ns_per_rach_attempt",
                 per(campaign_s * 1e9, static_cast<double>(c.rach_attempts)));
        // Work counts: deterministic, the same on every repetition.
        JsonLine counts;
        counts.add("campaign.rach_attempts", c.rach_attempts)
            .add("campaign.rach_collisions", c.rach_collisions)
            .add("campaign.rach_failures", c.rach_failures)
            .add("campaign.paging_messages", c.paging_messages)
            .add("campaign.recovery_tx", c.recovery_tx)
            .add("campaign.transmissions", c.transmissions)
            .add("campaign.max_attempts_per_device", c.max_attempts_per_device)
            .add("campaign.device_campaigns", c.devices)
            .add("campaign.recovered_devices", c.recovered_devices)
            .add("campaign.unreceived_devices", c.unreceived_devices)
            .add("campaign.stranded_devices", c.stranded_devices)
            .add("plan.dr_sc.transmissions", c.dr_sc_planned)
            .add("telemetry.trace_records", rebuilt.trace_records)
            .add("telemetry.trace_mb", static_cast<double>(rebuilt.trace.size()) / 1e6)
            .add("snapshot.saves", rebuilt.snapshot_saves)
            .add("snapshot.final_bytes", rebuilt.snapshot_final_bytes);

        JsonLine()
            .add("repetition", static_cast<std::uint64_t>(repetition))
            .raw("times", spans.str())
            .raw("counts", counts.str())
            .raw("engine", engine.str())
            .raw("trace_identical", rebuilt.trace == engine_trace ? "true" : "false")
            .raw("snapshot_roundtrip", snapshot_roundtrip ? "true" : "false")
            .print();
        std::fflush(stdout);
    }
    return 0;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_driver context\n"
                 "       perfbench_driver setup <spec-file>\n"
                 "       perfbench_driver run <spec-file> <out-dir>\n"
                 "       perfbench_driver trace <spec-file> <out-dir> <seconds>\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 1 && args[0] == "context") return mode_context();
        if (args.size() == 2 && args[0] == "setup") return mode_setup(args[1]);
        if (args.size() == 3 && args[0] == "run") return mode_run(args[1], args[2]);
        if (args.size() == 4 && args[0] == "trace") {
            return mode_trace(args[1], args[2], std::stod(args[3]));
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
        return 1;
    }
    return usage();
}
