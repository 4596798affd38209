#!/usr/bin/env python3
"""nbmg determinism lint.

Every result this repro reports rests on one invariant: campaigns are
bit-identical at any --threads and across mechanisms.  This checker scans
C++ sources for the nondeterminism sources this codebase specifically must
never grow:

  wall-clock      time(), clock(), std::chrono::system_clock — and
                  steady_clock outside bench/ (benches time themselves;
                  simulation code must never read a host clock).
  raw-rng         std::rand/srand/random_device, or constructing a
                  std::mt19937* engine or the simulator's own
                  MersenneTwister64 outside sim/random.* — every draw
                  must flow through a derive_seed()-rooted RandomStream.
  unordered-iter  any use of std::unordered_map/std::unordered_set.
                  Iteration order is implementation-defined, so an
                  unordered container that feeds output or RNG draws
                  breaks bit-identity.  Lookup-only uses are fine but
                  must be audited by a human and annotated (below).
  pointer-key     std::map/set/multimap/multiset keyed on a pointer:
                  iteration follows allocation addresses, which vary
                  run to run (ASLR, allocator state).
  uninit-pod      struct members of arithmetic type without an
                  initializer.  Aggregates flow into Summary::merge and
                  the bit-exact golden comparisons; an uninitialized
                  member merges garbage that happens to be zero — until
                  it is not.
  telemetry       two rules for the observability layer.  (1) Host
                  clocks inside src/telemetry/ are confined to the
                  self-profiler TU (telemetry/profiler.cpp, the one
                  audited clock read; bench shells only) — a clock
                  anywhere else in telemetry/ is a finding NO pragma can
                  excuse, because telemetry artifacts are compared
                  byte-for-byte across thread counts.  (2) An
                  NBMG_TELEMETRY_EMIT call whose payload looks like a
                  pointer (reinterpret_cast, uintptr_t, void* cast, or a
                  &-of-lvalue argument): addresses vary run to run
                  (ASLR, allocator state), so a pointer smuggled into a
                  trace payload breaks byte-identical traces.  Rule (2)
                  is excusable with allow(telemetry) after human audit.
  snapshot        three rules for src/snapshot/, whose persisted
                  artifacts must read back on any build of any host.
                  (1) reinterpret_cast — the raw-struct-dump idiom
                  serializes padding, field order, and host endianness;
                  a finding NO pragma can excuse.  Serialize
                  field-by-field through the Writer/Reader primitives.
                  (2) sizeof — sizing a write from a host struct layout
                  instead of spelling the wire width.  (3) host-width
                  integer types (size_t, uintptr_t, intptr_t,
                  ptrdiff_t) — their width differs across platforms, so
                  a snapshot written on one host would not parse on
                  another.  Rules (2) and (3) are excusable with
                  allow(snapshot) after human audit.

Audited exceptions carry an inline pragma on the flagged line or the line
directly above:

    // nbmg-lint: allow(<category>) <reason>

The pragma is itself verified: the category must be one of those
above, a non-empty reason is mandatory, and a pragma that no longer
annotates a finding of its category is reported as stale (so allowlist
entries cannot outlive the code they excused).

Usage:
    lint_determinism.py [--root DIR] [FILE...]

With no FILE arguments, scans every *.cpp/*.hpp/*.h under DIR/src
(DIR defaults to the repository root containing this script).  Exits 0
when clean, 1 with file:line diagnostics when findings remain, 2 on
usage errors.  stdlib only; runs in both ci/verify.sh sanitizer legs and
ci/analyze.sh, and under ctest -L analysis.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CATEGORIES = (
    "wall-clock",
    "raw-rng",
    "unordered-iter",
    "pointer-key",
    "uninit-pod",
    "telemetry",
    "snapshot",
)

PRAGMA_RE = re.compile(
    r"//\s*nbmg-lint:\s*allow\(([a-z-]+)\)\s*(.*)$"
)

# Files whose job is randomness: the one place engine construction and
# seeding primitives are allowed.
RNG_HOME_RE = re.compile(r"(^|/)sim/random\.(cpp|hpp|h)$")
# Benches may read the host clock to time themselves.
BENCH_DIR_RE = re.compile(r"(^|/)bench/")
# The telemetry layer, whose artifacts are compared byte-for-byte across
# thread counts — and its self-profiler TU, the one audited clock read in
# the library (opt-in, bench shells only, never feeds an artifact).
TELEMETRY_DIR_RE = re.compile(r"(^|/)telemetry/")
PROFILER_HOME_RE = re.compile(r"(^|/)telemetry/profiler\.(cpp|hpp|h)$")
# The snapshot layer, whose persisted bytes must be portable across builds
# and platforms: struct dumps and host-width integer types are banned.
SNAPSHOT_DIR_RE = re.compile(r"(^|/)snapshot/")
SNAPSHOT_CAST_RE = re.compile(r"\breinterpret_cast\b")
SNAPSHOT_SIZEOF_RE = re.compile(r"\bsizeof\b")
SNAPSHOT_HOST_WIDTH_RE = re.compile(
    r"\b(?:std::)?(?:size_t|uintptr_t|intptr_t|ptrdiff_t)\b")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::system_clock"
    r"|std::chrono::high_resolution_clock"
    r"|(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0|\)|&)"
    r"|(?<![\w:])clock\s*\(\s*\)"
    r"|gettimeofday|clock_gettime|localtime|gmtime"
)
STEADY_CLOCK_RE = re.compile(r"std::chrono::steady_clock")
RAW_RNG_RE = re.compile(
    r"std::s?rand\b|(?<![\w:])srand\s*\("
    r"|std::random_device|(?<![\w:])random_device\b"
    r"|std::(?:mt19937|mt19937_64|minstd_rand|minstd_rand0|ranlux\w+|"
    r"knuth_b|default_random_engine)\b"
    r"|\bMersenneTwister64\b"
)
UNORDERED_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b")
UNORDERED_INCLUDE_RE = re.compile(r'#\s*include\s*<unordered_(?:map|set)>')
POINTER_KEY_RE = re.compile(
    r"std::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+"
    r"(?:\s*<[^<>]*>)?\s*(?:const\s*)?\*"
)

# Arithmetic/POD member declaration with no initializer, e.g.
#   double mean_;      std::uint64_t count_;      int attempts;
# but not
#   double mean_ = 0;  std::uint64_t count_{0};   SimTime t{0};
ARITH_TYPE = (
    r"(?:unsigned\s+|signed\s+)?"
    r"(?:bool|char|short|int|long|long\s+long|float|double|size_t|"
    r"std::size_t|std::u?int(?:8|16|32|64)_t|std::ptrdiff_t|"
    r"u?int(?:8|16|32|64)_t)"
    r"(?:\s+(?:unsigned|signed|int|long))*"
)
UNINIT_POD_RE = re.compile(
    r"^\s*(?:static\s+)?(?:mutable\s+)?" + ARITH_TYPE +
    r"\s+\w+(?:\s*,\s*\w+)*\s*;\s*$"
)
STRUCT_OPEN_RE = re.compile(r"^\s*(?:struct|class)\s+\w+[^;]*$")

TELEMETRY_EMIT_RE = re.compile(r"NBMG_TELEMETRY_EMIT\s*\(")
# Pointer-like payload inside an emit call: a raw address, an integer
# that was an address a cast ago, or a &-of-lvalue argument.
TELEMETRY_POINTER_RE = re.compile(
    r"reinterpret_cast"
    r"|\bu?intptr_t\b"
    r"|\(\s*(?:const\s+)?void\s*\*\s*\)"
    r"|,\s*&[A-Za-z_]"
)


class Finding:
    def __init__(self, path: Path, line: int, category: str, message: str):
        self.path = path
        self.line = line
        self.category = category
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.category}] {self.message}"


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blanks comment and string-literal text, preserving line structure
    so diagnostics keep their line numbers.  Pragmas are extracted from
    the raw lines before this runs."""
    out = []
    in_block = False
    for raw in lines:
        buf = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end == -1:
                    buf.append(" " * (n - i))
                    i = n
                else:
                    buf.append(" " * (end + 2 - i))
                    i = end + 2
                    in_block = False
                continue
            ch = raw[i]
            two = raw[i:i + 2]
            if two == "//":
                buf.append(" " * (n - i))
                break
            if two == "/*":
                in_block = True
                i += 2
                buf.append("  ")
                continue
            if ch in "\"'":
                quote = ch
                j = i + 1
                while j < n:
                    if raw[j] == "\\":
                        j += 2
                        continue
                    if raw[j] == quote:
                        break
                    j += 1
                j = min(j, n - 1)
                buf.append(quote + " " * (j - i - 1) + quote)
                i = j + 1
                continue
            buf.append(ch)
            i += 1
        out.append("".join(buf))
    return out


def scan_file(path: Path, rel: str) -> list[Finding]:
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    findings: list[Finding] = []
    pragma_findings: list[Finding] = []

    # Pass 1: pragmas, from the raw text (they live in comments).
    # pragmas[line_no] = (category, reason); line numbers are 1-based.
    pragmas: dict[int, str] = {}
    for no, line in enumerate(raw_lines, 1):
        m = PRAGMA_RE.search(line)
        if not m:
            continue
        category, reason = m.group(1), m.group(2).strip()
        if category not in CATEGORIES:
            pragma_findings.append(Finding(
                path, no, "pragma",
                f"unknown allow() category '{category}' "
                f"(expected one of: {', '.join(CATEGORIES)})"))
            continue
        if not reason:
            pragma_findings.append(Finding(
                path, no, "pragma",
                f"allow({category}) pragma has no reason; write "
                f"'// nbmg-lint: allow({category}) <why this is safe>'"))
            continue
        pragmas[no] = category

    code = strip_comments_and_strings(raw_lines)
    in_rng_home = bool(RNG_HOME_RE.search(rel))
    in_bench = bool(BENCH_DIR_RE.search(rel))
    in_telemetry = bool(TELEMETRY_DIR_RE.search(rel))
    in_profiler_home = bool(PROFILER_HOME_RE.search(rel))
    in_snapshot = bool(SNAPSHOT_DIR_RE.search(rel))

    def emit(no: int, category: str, message: str) -> None:
        findings.append(Finding(path, no, category, message))

    struct_depth = 0
    brace_depth = 0
    struct_stack: list[int] = []
    used_pragmas: set[int] = set()

    def allowed(no: int, category: str) -> bool:
        for cand in (no, no - 1):
            if pragmas.get(cand) == category:
                used_pragmas.add(cand)
                return True
        return False

    for no, line in enumerate(code, 1):
        if STRUCT_OPEN_RE.match(line) and ";" not in line:
            struct_stack.append(brace_depth)
            struct_depth += 1
        opens = line.count("{")
        closes = line.count("}")
        brace_depth += opens - closes
        while struct_stack and brace_depth <= struct_stack[-1] and closes:
            struct_stack.pop()
            struct_depth -= 1

        hits_wall = bool(WALL_CLOCK_RE.search(line))
        hits_steady = bool(STEADY_CLOCK_RE.search(line))
        if in_telemetry and not in_profiler_home and (hits_wall or hits_steady):
            # Deliberately bypasses allowed(): telemetry artifacts are
            # byte-compared across thread counts, so the only audited clock
            # read lives in the self-profiler TU — no pragma can move it.
            emit(no, "telemetry",
                 "host clock in telemetry/ outside the self-profiler TU "
                 "(telemetry/profiler.cpp); telemetry artifacts are "
                 "byte-identical goldens — no pragma can excuse this")
        else:
            if hits_wall:
                if not allowed(no, "wall-clock"):
                    emit(no, "wall-clock",
                         "wall-clock source; simulation results must be a pure "
                         "function of (spec, seed)")
            if hits_steady and not in_bench:
                if not allowed(no, "wall-clock"):
                    emit(no, "wall-clock",
                         "steady_clock outside bench/; host time must not "
                         "reach simulation code")
        if TELEMETRY_EMIT_RE.search(line) and "#define" not in line:
            # The payload may wrap onto continuation lines: scan the call
            # line plus the next two code lines.
            window = " ".join(code[no - 1:no + 2])
            if TELEMETRY_POINTER_RE.search(window):
                if not allowed(no, "telemetry"):
                    emit(no, "telemetry",
                         "NBMG_TELEMETRY_EMIT with a pointer-like payload: "
                         "addresses vary run to run (ASLR, allocator state) "
                         "and break byte-identical traces — pass values, "
                         "not pointers")
        if not in_rng_home and RAW_RNG_RE.search(line):
            if not allowed(no, "raw-rng"):
                emit(no, "raw-rng",
                     "raw RNG primitive outside sim/random.*; draw through "
                     "a derive_seed()-rooted sim::RandomStream")
        if UNORDERED_RE.search(line) or UNORDERED_INCLUDE_RE.search(line):
            if not allowed(no, "unordered-iter"):
                emit(no, "unordered-iter",
                     "unordered container: iteration order is "
                     "implementation-defined; prove lookup-only use and "
                     "annotate, or switch to a sorted/indexed container")
        if POINTER_KEY_RE.search(line):
            if not allowed(no, "pointer-key"):
                emit(no, "pointer-key",
                     "pointer-keyed ordered container: iteration follows "
                     "allocation addresses, which vary run to run")
        if in_snapshot:
            if SNAPSHOT_CAST_RE.search(line):
                # Deliberately bypasses allowed(): a reinterpret_cast in the
                # serialization layer is the raw-struct-dump idiom (padding,
                # field order, host endianness on the wire) — no pragma can
                # make that portable.
                emit(no, "snapshot",
                     "reinterpret_cast in snapshot/: raw struct dumps "
                     "serialize padding and host endianness — write "
                     "field-by-field through the Writer/Reader primitives; "
                     "no pragma can excuse this")
            if SNAPSHOT_SIZEOF_RE.search(line):
                if not allowed(no, "snapshot"):
                    emit(no, "snapshot",
                         "sizeof in snapshot/: sizes a write from a host "
                         "struct layout — spell the wire width explicitly")
            if SNAPSHOT_HOST_WIDTH_RE.search(line):
                if not allowed(no, "snapshot"):
                    emit(no, "snapshot",
                         "host-width integer type in snapshot/: width "
                         "differs across platforms, so the persisted bytes "
                         "would not read back everywhere — use a fixed-width "
                         "std::uintNN_t")
        if struct_depth > 0 and UNINIT_POD_RE.match(line):
            if not allowed(no, "uninit-pod"):
                emit(no, "uninit-pod",
                     "uninitialized arithmetic struct member; aggregates "
                     "reach Summary::merge and bit-exact goldens — "
                     "default-initialize it")

    for no in sorted(set(pragmas) - used_pragmas):
        pragma_findings.append(Finding(
            path, no, "pragma",
            f"stale allow({pragmas[no]}) pragma: no {pragmas[no]} finding "
            f"on this or the next line — delete it"))

    return findings + pragma_findings


def collect_default_files(root: Path) -> list[Path]:
    src = root / "src"
    if not src.is_dir():
        print(f"lint_determinism: no src/ under {root}", file=sys.stderr)
        sys.exit(2)
    return sorted(p for p in src.rglob("*")
                  if p.suffix in (".cpp", ".hpp", ".h") and p.is_file())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_determinism.py",
        description="nbmg determinism lint (see module docstring)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("files", nargs="*", type=Path,
                        help="explicit files to scan (default: root/src)")
    args = parser.parse_args(argv)

    files = [f.resolve() for f in args.files] if args.files \
        else collect_default_files(args.root.resolve())
    for f in files:
        if not f.is_file():
            print(f"lint_determinism: no such file: {f}", file=sys.stderr)
            return 2

    root = args.root.resolve()
    all_findings: list[Finding] = []
    for f in files:
        try:
            rel = str(f.relative_to(root))
        except ValueError:
            rel = str(f)
        all_findings.extend(scan_file(f, rel))

    for finding in all_findings:
        print(finding.render())
    if all_findings:
        print(f"lint_determinism: {len(all_findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_determinism: clean ({len(files)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
