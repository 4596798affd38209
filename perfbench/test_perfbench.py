#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at the tiny size.

    python3 perfbench/test_perfbench.py

Each workload runs once per mode for about a second, with run.SIZE set to
"tiny".  The tests check that every metric BENCHMARK.json names is printed
with its unit, that the measured host times and the host-speed probe are
printed next to them, that the traced pass's work counts equal run_scenario's
telemetry counters, its unreceived and stranded devices and its trace
records, and that its spans are written out.  They check that a tampered
pinned digest is reported as a failure, that a non-default seed passes the
threads-1 vs nproc digest check, and that the benchmark refuses to run
without the simulator's sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "test"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload, trace, seed=7, cwd=ROOT, pinned=None):
    """Runs the benchmark at the tiny size, with `pinned` in place of its
    pinned digests when given; returns (exit code, JSON lines)."""
    argv = ["run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    program = "\n".join([
        "import sys",
        "from pathlib import Path",
        f"sys.path.insert(0, {str(Path(cwd) / 'perfbench')!r})",
        "import run",
        "run.SIZE = 'tiny'",
        *([f"run.PINNED = Path({str(pinned)!r})"] if pinned else []),
        f"sys.argv = {argv!r}",
        "sys.exit(run.main())",
    ])
    proc = subprocess.run([sys.executable, "-c", program], cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, lines


def section(lines, key):
    return next(line[key] for line in lines if key in line)


class Metrics(unittest.TestCase):
    def check_metrics(self, trace, specs):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, trace)
                self.assertEqual(code, 0)
                result = lines[-1]
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                                 {m["name"]: m["unit"] for m in specs})
                self.assertIn("health.rach_collision_share", section(lines, "health"))
                context = section(lines, "context")
                for key in ("nproc", "threads", "build_type", "lto", "compiler",
                            "loadavg_1m", "git_commit", "source_sha256"):
                    self.assertIn(key, context)
                if not trace:
                    host = section(lines, "host")
                    self.assertEqual(set(host),
                                     {"wall_s", "cpu_s", "setup_s", "probe_s", "peak_rss_mb"})
                    self.assertGreater(host["probe_s"]["median"], 0)
                if trace:
                    counts = section(lines, "work_counts")
                    self.traced_counts_match(workload, counts)
                    self.assertEqual(section(lines, "health")["health.unreceived_devices"],
                                     counts["campaign.unreceived_devices"]["engine"])
                    spans = json.loads((ROOT / section(lines, "spans")).read_text())
                    self.assertIn("engine.serial", {s["name"] for s in spans})
                    self.assertTrue(all(s["end_ns"] >= s["start_ns"] for s in spans))

    def traced_counts_match(self, workload, counts):
        self.assertEqual(set(counts), {"campaign.rach_attempts", "campaign.rach_collisions",
                                       "campaign.transmissions", "campaign.unreceived_devices",
                                       "campaign.stranded_devices", "telemetry.trace_records"})
        for name, pair in counts.items():
            self.assertEqual(pair["traced"], pair["engine"], f"{workload}: {name}")
        self.assertGreater(counts["campaign.rach_attempts"]["traced"], 0)
        self.assertGreater(counts["campaign.transmissions"]["traced"], 0)
        if workload == "city-rollout":
            # The outage strands devices; the engine heals them, so they
            # must not stay unreceived in the health line either.
            self.assertGreater(counts["campaign.stranded_devices"]["engine"], 0)
            self.assertGreater(counts["telemetry.trace_records"]["engine"], 0)

    def test_end_to_end_metrics_print_with_units(self):
        self.check_metrics(0, BENCHMARK["end_to_end"])

    def test_per_layer_metrics_print_with_units_and_counts_match(self):
        self.check_metrics(1, BENCHMARK["per_layer"])


class Digests(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def test_default_seed_matches_pinned_digest(self):
        code, lines = bench("paper-sweep", 0, seed=42)
        self.assertEqual(code, 0)
        self.assertTrue(lines[-1]["correct"])

    def test_tampered_pinned_digest_is_a_failure(self):
        pinned = json.loads((HERE / "pinned_digests.json").read_text())
        digest = pinned["paper-sweep"]["tiny"]
        pinned["paper-sweep"]["tiny"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        tampered = SCRATCH / "tampered.json"
        tampered.write_text(json.dumps(pinned))
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, lines = bench("paper-sweep", trace, seed=42, pinned=tampered)
                self.assertNotEqual(code, 0)
                self.assertFalse(lines[-1]["correct"])
                self.assertGreaterEqual(lines[-1]["failed"], 1)

    def test_other_seed_matches_threads_1_reference(self):
        code, lines = bench("city-rollout", 0, seed=1234)
        self.assertEqual(code, 0)
        self.assertTrue(lines[-1]["correct"])
        self.assertEqual(lines[-1]["failed"], 0)


class Checkout(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = bench("paper-sweep", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
