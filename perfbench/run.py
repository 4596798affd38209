#!/usr/bin/env python3
"""End-to-end benchmark of the nbmg simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Builds perfbench_driver (the library plus
driver.cpp, Release) into .bench_build/, then:

  --trace 0  end-to-end pass: a closed loop that runs the workload's
             scenario through scenario::run_scenario, one fresh process per
             run at --threads = nproc, until --seconds have passed.  Reports
             medians of wall_s, cpu_s, device_campaigns_per_s and setup_s,
             at the reference host speed (below).
  --trace 1  traced pass, serial: repeats run_scenario at one thread plus
             the span-instrumented rebuild from the layers' public functions
             for --seconds, and reports medians of the per-layer metrics.

Correctness gate: every run's deterministic outputs (summary CSV, plus the
coordination and metrics CSVs where the workload writes them) must digest
to the threads-1 reference, and, for the default seed, to the digest pinned
in pinned_digests.json.  The traced pass's RACH attempts, collisions and
transmissions must equal run_scenario's telemetry counters, and its
unreceived and stranded devices and its trace must equal run_scenario's.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Earlier lines carry the recording context, the model
health of the workload and the per-metric sample spread.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_build" / "work"
TRACES = ROOT / ".bench_build" / "traces"
DRIVER = BUILD / "perfbench_driver"
PINNED = HERE / "pinned_digests.json"
DEFAULT_SEED = 42
# Workload size; the benchmark's own tests set "tiny".
SIZE = "full"
# A single driver process never legitimately runs this long; the whole
# benchmark must end within 180 s.
RUN_TIMEOUT_S = 150
# Set-up takes about a millisecond, mostly exec and dynamic loading, and a
# launch that lands while the host is busy takes twice that.  Each timed run
# therefore takes the fastest of this many set-up launches as its sample.
SETUP_PROBES = 5
# The host's speed moves by a fifth within minutes on a shared VM, and the
# simulator's times move with it.  Each timed run process therefore also
# times a fixed probe kernel right before and after run_scenario (driver.cpp,
# probe_kernel), and every time metric is reported at the reference host
# speed: the measured seconds x REFERENCE_PROBE_S / that run's probe_s.  This
# is the probe's median on the 4-vCPU Xeon VM the benchmark was recorded on.
# The measured host times are printed on the "host" line.
REFERENCE_PROBE_S = 0.06

# Scenario text per workload.  {seed}, {threads} and {dir} are filled in per
# run; sizes are per SIZE.  Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "paper-sweep": {
        "sizes": {"full": {"devices": 300, "runs": 150}, "tiny": {"devices": 100, "runs": 3}},
        "spec": """name = paper-sweep
profile = massive_iot_city
devices = {devices}
payload_kb = 100
runs = {runs}
seed = {seed}
threads = {threads}
mechanisms = dr-sc,da-sc,dr-si
ti_ms = 10000
""",
    },
    "rach-storm": {
        "sizes": {"full": {"devices": 50000, "runs": 1}, "tiny": {"devices": 3000, "runs": 1}},
        "spec": """name = rach-storm
profile = massive_iot_city
devices = {devices}
payload_kb = 100
runs = {runs}
seed = {seed}
threads = {threads}
mechanisms = dr-si
strata = 1
""",
    },
    "city-rollout": {
        "sizes": {"full": {"devices": 4000, "runs": 2}, "tiny": {"devices": 400, "runs": 1}},
        "spec": """name = city-rollout
profile = massive_iot_city
devices = {devices}
payload_kb = 1024
runs = {runs}
seed = {seed}
threads = {threads}
mechanisms = dr-sc,da-sc,dr-si
cells = 16
assignment = uniform
coordinator = backhaul
coordinator.backhaul_kbps = 512
churn.leave_rate = 2
churn.rejoin_ms = 120000
faults.cell_down = 3@60000
faults.backhaul_loss = 0.05
telemetry = full
metrics_out = {dir}/metrics.csv
timeline_out = {dir}/timeline.json
checkpoint.out = {dir}/checkpoint.snap
checkpoint.every_ms = 160000000
""",
    },
}

# Files whose bytes make up a run's output digest, when the run writes them.
DIGESTED = ("summary.csv", "coordination.csv", "metrics.csv")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no nbmg sources next to {HERE.name}/ (expected src/ and CMakeLists.txt)")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                   "-j", str(nproc())]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def spec_text(workload, size, seed, threads, run_dir):
    entry = WORKLOADS[workload]
    return entry["spec"].format(seed=seed, threads=threads, dir=run_dir, **entry["sizes"][size])


def digest(run_dir):
    sha = hashlib.sha256()
    for name in DIGESTED:
        path = run_dir / name
        if path.is_file():
            sha.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return sha.hexdigest()


def last_json(text):
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError("driver printed no JSON")
    return json.loads(lines[-1])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Run:
    """One driver process; always reaped, killed on timeout."""

    def __init__(self, args, run_dir, timeout=RUN_TIMEOUT_S):
        self.launch_ns = time.monotonic_ns()
        with open(run_dir / "stdout", "wb") as out, open(run_dir / "stderr", "wb") as err:
            proc = subprocess.Popen([str(DRIVER), *args], stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            self.returncode = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        self.stdout = (run_dir / "stdout").read_text()
        self.stderr = (run_dir / "stderr").read_text()

    def result(self):
        if self.returncode != 0:
            raise RuntimeError(f"driver exited {self.returncode}: {self.stderr.strip()[-400:]}")
        return last_json(self.stdout)


def traced_pass(workload, size, seed, seconds, run_dir):
    """Serial traced pass; returns (per-repetition records, threads-1 digest)."""
    spec = run_dir / "spec.scenario"
    spec.write_text(spec_text(workload, size, seed, 1, run_dir))
    run = Run(["trace", str(spec), str(run_dir), repr(seconds)], run_dir)
    run.result()
    reps = [json.loads(line) for line in run.stdout.splitlines() if line.startswith("{")]
    return reps, digest(run_dir)


def layer_values(rep):
    """Per-layer metric values of one traced repetition."""
    counts = rep["counts"]
    attempts = counts["campaign.rach_attempts"]
    useful = attempts - counts["campaign.rach_collisions"]
    return {**rep["times"], **counts, **health(counts),
            "campaign.rach_success_ratio": useful / attempts if attempts else 0.0}


def health(counts):
    """Model-health counts: deterministic, from the campaign results."""
    attempts = counts["campaign.rach_attempts"]
    devices = counts["campaign.device_campaigns"]
    return {
        "health.rach_collision_share":
            counts["campaign.rach_collisions"] / attempts if attempts else 0.0,
        "health.max_attempts_per_device": counts["campaign.max_attempts_per_device"],
        "health.recovery_share":
            counts["campaign.recovered_devices"] / devices if devices else 0.0,
        "health.unreceived_devices": counts["campaign.unreceived_devices"],
        "health.stranded_devices": counts["campaign.stranded_devices"],
    }


# Work counts that must repeat exactly and match run_scenario's telemetry.
# The driver reports run_scenario's own figures for the rest it counts.
COUNTED = {
    "campaign.rach_attempts": ("rach_attempt",),
    "campaign.rach_collisions": ("rach_collision",),
    "campaign.transmissions": ("tx_multicast", "tx_unicast", "tx_recovery"),
}


def telemetry_counters(metrics_csv):
    totals = {}
    with open(metrics_csv, newline="") as f:
        for row in csv.DictReader(f):
            if row["window_start_ms"] == "-":
                totals[row["metric"]] = totals.get(row["metric"], 0) + int(row["value"])
    return totals


def work_checks(workload, size, seed, rep, run_dir):
    """Traced work counts next to run_scenario's: its telemetry counters,
    unreceived and stranded devices, and trace records."""
    metrics_csv = run_dir / "metrics.csv"
    if not metrics_csv.is_file():
        spec = spec_text(workload, size, seed, nproc(), run_dir)
        spec += f"telemetry = metrics\nmetrics_out = {metrics_csv}\n"
        (run_dir / "counters.scenario").write_text(spec)
        Run(["run", str(run_dir / "counters.scenario"), str(run_dir)], run_dir).result()
    counters = telemetry_counters(metrics_csv)
    checks = {name: {"traced": rep["counts"][name],
                     "engine": sum(counters.get(k, 0) for k in kinds)}
              for name, kinds in COUNTED.items()}
    checks.update({name: {"traced": rep["counts"][name], "engine": value}
                   for name, value in rep["engine"].items()})
    return checks


def spread(values):
    values = sorted(values)
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    sha = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in [ROOT / "CMakeLists.txt", *files]:
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def recording_context(args, threads):
    context = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "threads": threads,
        "loadavg_1m": float(Path("/proc/loadavg").read_text().split()[0]),
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }
    driver_context = subprocess.run([str(DRIVER), "context"], capture_output=True,
                                    text=True, timeout=30)
    context.update(last_json(driver_context.stdout))
    return context


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def end_to_end(args, pinned, work_dir):
    """--trace 0: timed runs of the front door, checked against the reference."""
    threads = nproc()
    reps, reference = traced_pass(args.workload, args.size, args.seed, 0,
                                  fresh_dir(work_dir / "reference"))
    print(json.dumps({"health": health(reps[0]["counts"])}))
    # devices x runs x (mechanisms + unicast reference)
    units = reps[0]["counts"]["campaign.device_campaigns"]

    samples = {"wall_s": [], "cpu_s": [], "device_campaigns_per_s": [], "setup_s": []}
    host = {"wall_s": [], "cpu_s": [], "setup_s": [], "probe_s": [], "peak_rss_mb": []}
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    while attempted == 0 or time.monotonic() < deadline:
        run_dir = fresh_dir(work_dir / "timed")
        spec = run_dir / "spec.scenario"
        spec.write_text(spec_text(args.workload, args.size, args.seed, threads, run_dir))
        attempted += 1
        try:
            # Set-up is sampled by extra launches that stop where
            # run_scenario would start.
            probes = [Run(["setup", str(spec)], run_dir) for _ in range(SETUP_PROBES)]
            setup = min((p.result()["handoff_ns"] - p.launch_ns) * 1e-9 for p in probes)
            run = Run(["run", str(spec), str(run_dir)], run_dir)
            result = run.result()
        except RuntimeError as error:
            print(f"perfbench: run {attempted} failed: {error}", file=sys.stderr)
            failed += 1
            continue
        # A wrong output fails the run but its time still counts, so the
        # result line can report the failure.
        output = digest(run_dir)
        if output != reference or (pinned is not None and output != pinned):
            print(f"perfbench: run {attempted}: output digest {output} differs from the "
                  f"threads-1 reference {reference} or the pinned {pinned}", file=sys.stderr)
            failed += 1
        scale = REFERENCE_PROBE_S / result["probe_s"]
        samples["wall_s"].append(result["wall_s"] * scale)
        samples["cpu_s"].append(result["cpu_s"] * scale)
        samples["device_campaigns_per_s"].append(units / (result["wall_s"] * scale))
        samples["setup_s"].append(setup * scale)
        for name, value in (("wall_s", result["wall_s"]), ("cpu_s", result["cpu_s"]),
                            ("setup_s", setup), ("probe_s", result["probe_s"]),
                            ("peak_rss_mb", result["peak_rss_mb"])):
            host[name].append(value)
    print(json.dumps({"host": {name: spread(values) for name, values in host.items()}}))
    return samples, attempted, failed


def traced(args, pinned, work_dir, wanted):
    """--trace 1: per-layer metrics from the serial traced pass."""
    run_dir = fresh_dir(work_dir / "traced")
    reps, reference = traced_pass(args.workload, args.size, args.seed, args.seconds, run_dir)
    TRACES.mkdir(parents=True, exist_ok=True)
    spans = TRACES / f"{args.workload}-{args.size}-seed{args.seed}.json"
    shutil.copy(run_dir / "spans.json", spans)
    print(json.dumps({"spans": str(spans.relative_to(ROOT))}))
    check = work_checks(args.workload, args.size, args.seed, reps[0], run_dir)
    print(json.dumps({"work_counts": check}))
    print(json.dumps({"health": health(reps[0]["counts"])}))

    # Checks of the whole pass fail every repetition; the others fail one.
    pass_ok = True
    if pinned is not None and reference != pinned:
        print(f"perfbench: threads-1 digest {reference} differs from the pinned {pinned}",
              file=sys.stderr)
        pass_ok = False
    if any(v["traced"] != v["engine"] for v in check.values()):
        print("perfbench: traced work counts differ from run_scenario's", file=sys.stderr)
        pass_ok = False
    failed = 0
    for rep in reps:
        if rep["counts"] != reps[0]["counts"]:
            print(f"perfbench: repetition {rep['repetition']} did different work",
                  file=sys.stderr)
        if not rep["snapshot_roundtrip"]:
            print(f"perfbench: repetition {rep['repetition']}: snapshot rewrite is not "
                  "byte-identical", file=sys.stderr)
        if not rep["trace_identical"]:
            print(f"perfbench: repetition {rep['repetition']}: rebuilt trace differs from "
                  "run_scenario's", file=sys.stderr)
        if not (pass_ok and rep["counts"] == reps[0]["counts"] and rep["snapshot_roundtrip"]
                and rep["trace_identical"]):
            failed += 1

    # A layer the workload never calls reports zero.
    samples = {m["name"]: [0.0] * len(reps) for m in wanted}
    for i, rep in enumerate(reps):
        for name, value in layer_values(rep).items():
            if name in samples:
                samples[name][i] = value
    return samples, len(reps), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.size = SIZE

    build()
    end_to_end_specs, per_layer_specs = load_metric_specs()
    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads(PINNED.read_text())[args.workload][args.size]
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    print(json.dumps({"context": recording_context(args, 1 if args.trace else nproc())}))
    try:
        if args.trace:
            wanted = per_layer_specs
            samples, attempted, failed = traced(args, pinned, work_dir, wanted)
        else:
            wanted = end_to_end_specs
            samples, attempted, failed = end_to_end(args, pinned, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"samples": {m["name"]: spread(samples.get(m["name"], []))
                                  for m in wanted}}))
    if any(not samples.get(m["name"]) for m in wanted):
        print("perfbench: no successful run to report", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
