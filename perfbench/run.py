"""The ellfam benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload {cli_cold,scan_radius2,rootnum_sweep}
        --seed N --seconds S --trace {0,1}

Every workload is one closed loop in one thread: each answer is asked for
only after the previous one arrived.  The last line of stdout is the result
object (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1); the line before it is a report with the workload's own figures,
failures by reason, a quality record and the environment.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")
OUT = os.path.join(ROOT, ".perfbench_out")
SCAN_BUDGET = (10**5, 2 * 10**5)
TWISTS_PER_CURVE = 2
TWIST_RANGE = 200  # |d| <= TWIST_RANGE
# The twists are drawn with this fixed seed and --seed only orders the
# curves: which small-number prime sieves a pass has to build depends on
# the curves, and with twists drawn per --seed the sweep's 90th percentile
# moved by 15% from seed to seed.
TWIST_SEED = 0
TRACED_SWEEP_CURVES = 900
TRACE_CHUNK = 50
SETUP_REPEATS = 3
SWEEP_SEGMENT_S = 2.0  # the sweep's answers are scaled by their segment's probes

sys.path.insert(0, HERE)
from checks import (  # noqa: E402
    CATALOG_HASH,
    CATALOG_SIZE,
    CLI_MEMBERS,
    catalog_hash,
    is_fundamental,
    kronecker,
)
from pace import Pace  # noqa: E402
from tracer import LAYER_METRICS, OP, Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "certified_share": "%",
    "peak_rss_mb": "MB",
}


class Tally:
    """Answers of one measured phase, with the correctness verdict.

    latencies are as measured, less the reference probes run in them (see
    pace.py); scaled holds the same latencies at reference speed, and
    scaled_wall the measured phase's time on the same footing.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.scaled_wall = 0.0
        self.failed = 0
        self.certified = 0
        self.judged = 0  # answers (or scan cells) that could be certified
        self.uncertified: Counter = Counter()
        self.details: dict[str, Counter] = {}
        self.errors: list[str] = []
        self.wall = 0.0

    def answer(self, seconds: float, factor: float = 1.0) -> None:
        self.latencies.append(seconds)
        self.scaled.append(seconds * factor)

    def judge(self, certified: bool, reason: str = "", detail: str = "") -> None:
        self.judged += 1
        if certified:
            self.certified += 1
            return
        self.uncertified[reason] += 1
        if detail:
            self.details.setdefault(reason, Counter())[detail] += 1

    def by_reason(self) -> dict:
        """Uncertified answers per reason, with the ten commonest details."""
        return {
            reason: {"count": n, "top": dict(self.details.get(reason, Counter()).most_common(10))}
            for reason, n in self.uncertified.items()
        }

    def wrong(self, message: str) -> None:
        self.errors.append(message)

    def metrics(self, setup_s: float) -> dict[str, float]:
        lat = sorted(self.scaled)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
        return {
            "setup_s": setup_s,
            "answers_per_s": len(lat) / self.scaled_wall,
            "answer_p50_ms": statistics.median(lat) * 1e3,
            "answer_p90_ms": p90 * 1e3,
            "certified_share": 100.0 * self.certified / self.judged,
            "peak_rss_mb": peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ELLFAM_BUDGET", None)
    env["PYTHONPATH"] = "src"
    return env


def require_checkout() -> None:
    needed = [
        os.path.join(SRC, "ellfam", "__init__.py"),
        os.path.join(DATA, "rootnum_oracle.json"),
        os.path.join(DATA, "scan_oracle.json"),
    ]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not an ellfam checkout, missing {missing}", file=sys.stderr)
        sys.exit(2)


def sieve_restorer():
    """A function that puts arith's prime-sieve cache back as it is now.

    factor() caches one sieve per trial bound, so the first pass over some
    inputs costs more than the next; restoring the cache lets two passes,
    or an untraced and a traced one, do the same work.
    """
    from ellfam import arith

    cache = getattr(arith, "_sieve_cache", None)
    saved = dict(cache) if isinstance(cache, dict) else None

    def restore() -> None:
        if saved is not None:
            cache.clear()
            cache.update(saved)

    return restore


def load_json(name: str):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


MARK = "@@perfbench"


def session_cmd(*args: str) -> list[str]:
    return [sys.executable, os.path.join("perfbench", "cli_session.py"), *args]


def parse_marker(line: str, seconds: float):
    """(command, exit code, seconds less the child's probes, speed factor)
    from a marker line read the given seconds after the previous one."""
    _, command, rc, spent, factor = line.split()
    return command, int(rc), seconds - float(spent), float(factor)


def session_plan(seed: int) -> list[tuple[str, str | None]]:
    """(command, label) in the order one cold session runs them: catalog,
    rootnumber for every member in a seeded order, then heights and
    sections for a seeded member."""
    rng = random.Random(seed)
    labels = sorted(CLI_MEMBERS)
    rng.shuffle(labels)
    label = rng.choice(labels)
    return [("catalog", None), *(("rootnumber", x) for x in labels), ("heights", label), ("sections", label)]


def run_session(plan, pace: bool, trace_out: str | None):
    """Spawn one cold CLI session running plan; return (answers, wall,
    catalog line).

    answers: list of (command, exit code, seconds from the previous answer
    (or the spawn) until this one was on stdout, less the child's probes,
    speed factor of those seconds, output text).
    """
    label = plan[-1][1]
    cmd = session_cmd("--label", f"{label}={CLI_MEMBERS[label][0]}")
    cmd += [f"{label}={CLI_MEMBERS[label][0]}" for command, label in plan if command == "rootnumber"]
    if pace:
        cmd.append("--pace")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    answers = []
    tail = None
    buf: list[str] = []
    start = last = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            now = time.perf_counter()
            if line.startswith(MARK + "-hash "):
                parts = line.split(maxsplit=2)
                tail = (parts[1], json.loads(parts[2]))
            elif line.startswith(MARK + " "):
                answers.append((*parse_marker(line, now - last), "".join(buf)))
                buf = []
                last = now
            else:
                buf.append(line)
        rc = proc.wait(timeout=60)
    wall = last - start
    if rc != 0:
        answers.append(("session", rc, time.perf_counter() - last, 1.0, ""))
    return answers, wall, tail


def check_session(plan, answers, tail, tally: Tally) -> None:
    """Gate every answer and record its latency.

    Every CLI command a user runs starts a fresh interpreter and builds the
    catalog, so an answer's latency is the session's cold start (spawn until
    the catalog answer) plus the answer's own time, and the answering time
    is the sum of the latencies, as for commands run one by one.
    """
    commands = [a[0] for a in answers]
    if commands != [command for command, _ in plan]:
        tally.wrong(f"session answered {commands}")
    cold = cold_scaled = 0.0
    for i, (command, rc, seconds, factor, text) in enumerate(answers):
        if i == 0:
            cold, cold_scaled = seconds, seconds * factor
            tally.answer(cold)
            tally.scaled[-1] = cold_scaled
        else:
            tally.answer(cold + seconds)
            tally.scaled[-1] = cold_scaled + seconds * factor
        tally.scaled_wall += tally.scaled[-1]
        label = plan[i][1] if i < len(plan) else None
        if rc != 0:
            tally.failed += 1
            tally.judge(False, "nonzero-exit", f"{command} {label}")
            tally.wrong(f"{command} {label} exited {rc}")
            continue
        certified = True
        try:
            if command == "catalog":
                entries = json.loads(text)
                if len(entries) != CATALOG_SIZE or not set(CLI_MEMBERS) <= {e["label"] for e in entries}:
                    tally.wrong("catalog listing")
            elif command == "rootnumber":
                u, w_expected = CLI_MEMBERS[label]
                rn = json.loads(text)
                certified = rn["complete"]
                if certified and rn["value"] != w_expected:
                    tally.wrong(f"rootnumber {label} --u {u}: {rn['value']} != {w_expected}")
            elif command == "heights":
                if json.loads(text)["certificate"] != "independent":
                    tally.wrong(f"heights {label}: not independent")
            elif command == "sections":
                got = json.loads(text)
                if not got["points_on_curve"] or not all(x["verified"] for x in got["sections"]):
                    tally.wrong(f"sections {label}: not verified")
        except (ValueError, KeyError, TypeError) as exc:
            tally.wrong(f"{command} {label}: unreadable output ({exc})")
        tally.judge(certified, "" if certified else "unfactored", f"{command} {label}")
    if tail is None:
        tally.wrong("session printed no catalog hash")
    else:
        digest, hints = tail
        if digest != CATALOG_HASH:
            tally.wrong(f"catalog hash {digest} != {CATALOG_HASH}")
        for label, (u, _) in CLI_MEMBERS.items():
            if hints.get(label) != u:
                tally.wrong(f"spec_hint of {label} is {hints.get(label)}, not {u}")


def cold_import_s() -> float:
    """Seconds from spawning an interpreter until it has imported ellfam.cli,
    less probes and at reference speed."""
    start = time.perf_counter()
    done = subprocess.run(
        session_cmd("--import-only", "--pace"),
        cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
    )
    _, _, seconds, factor = parse_marker(done.stdout.strip().splitlines()[-1], time.perf_counter() - start)
    return seconds * factor


def cli_cold(seed: int, seconds: float, trace: bool):
    plan = session_plan(seed)
    setup_s = statistics.median(cold_import_s() for _ in range(SETUP_REPEATS))
    tally = Tally()
    answers, tally.wall, tail = run_session(plan, not trace, None)
    check_session(plan, answers, tail, tally)
    own: dict[str, list[float]] = {"rootnumber": [], "heights": [], "sections": []}
    for (command, label), answer in zip(plan[1:], answers[1:]):
        own[command].append(answer[2])
    report = {
        "label": plan[-1][1],
        "cold_start_s": answers[0][2] if answers else None,
        "cold_query_s": answers[0][2] + statistics.median(own["rootnumber"]) if own["rootnumber"] else None,
        "own_s": {k: {"median": statistics.median(v), "max": max(v)} for k, v in own.items() if v},
        "session_s": tally.wall,
    }
    tracer = None
    if trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-cli_cold-{seed}.jsonl")
        traced_tally = Tally()
        answers, traced_tally.wall, tail = run_session(plan, False, path)
        check_session(plan, answers, tail, traced_tally)
        tally.errors += traced_tally.errors
        tracer = Tracer.load(path)
        tracer.run_id = "session"
        report["trace_walls"] = (tally.wall, traced_tally.wall)
    return setup_s, tally, report, tracer


# ---------------------------------------------------------------------------
# scan_radius2
# ---------------------------------------------------------------------------


def scan_pass(
    grids_to_run, oracle, tally: Tally, quality: dict,
    tracer: Tracer | None = None, pace: Pace | None = None,
) -> None:
    from ellfam import scan

    for spec in grids_to_run:
        idx = tracer.open(OP) if tracer is not None else None
        mark = pace.mark() if pace is not None else None
        t0 = time.perf_counter()
        grid = scan.lattice_scan(spec)
        rep = scan.symmetry_audit(grid, spec.symmetry, spec=spec)
        if pace is not None:
            tally.answer(pace.work(mark), pace.factor(mark))
        else:
            tally.answer(time.perf_counter() - t0)
        if idx is not None:
            tracer.close(idx)
        frozen = {(c["n"], c["m"]): c for c in oracle[spec.name]["cells"]}
        for cell in grid.cells:
            ref = frozen[(cell.n, cell.m)]
            if cell.skipped != ref["skipped"]:
                tally.wrong(f"{spec.name} {cell.n},{cell.m}: skipped {cell.skipped}")
            if cell.complete and ref["complete"] and cell.root != ref["root"]:
                tally.wrong(f"{spec.name} {cell.n},{cell.m}: root {cell.root} != {ref['root']}")
            if not cell.skipped:
                tally.judge(cell.complete, "incomplete")
        if rep.violations or rep.isomorphism_failures:
            tally.wrong(f"{spec.name}: symmetry audit {rep}")
        csv = grid.to_csv()
        plus, minus, incomplete, skipped = grid.counts
        quality[f"{spec.name}@r{spec.radius}"] = {
            "csv_sha1": hashlib.sha1(csv.encode()).hexdigest(),
            "plus": plus,
            "minus": minus,
            "incomplete": incomplete,
            "skipped": skipped,
            "cells": len(grid.cells),
        }


def scan_radius2(seed: int, seconds: float, trace: bool):
    # The seed does not change this workload: scan_oracle.json pins its
    # grids and budget.
    oracle = load_json("scan_oracle.json")
    tracer = Tracer() if trace else None
    pace = None if trace else Pace()
    t0 = time.perf_counter()
    if pace is not None:
        mark = pace.mark()
        pace.start()
    import ellfam  # noqa: F401  (the import is part of the set-up)

    if tracer is not None:
        tracer.install()
    from ellfam import FactorBudget, builtin_scans, catalog

    budget = FactorBudget(*SCAN_BUDGET)
    cat = catalog()
    radius2 = builtin_scans(radius=2, budget=budget)
    radius1 = builtin_scans(radius=1, budget=budget)
    setup_s = time.perf_counter() - t0
    if pace is not None:
        setup_s = pace.work(mark) * pace.factor(mark)
    if tracer is not None:
        tracer.uninstall()
    # The whole Z2x6 grid and the radius-1 centres of the two Z8 grids: the
    # full radius-2 grids of the Z8 scans take about a minute and do not
    # fit a run; these 43 cells still include rho-bound incomplete cells.
    grids_to_run = [radius2["Z2x6-scan-1"], radius1["Z8-scan-1"], radius1["Z8-scan-2"]]
    tally = Tally()
    quality: dict = {}
    for name in oracle:
        if oracle[name]["budget"] != list(SCAN_BUDGET):
            tally.wrong(f"{name}: oracle budget {oracle[name]['budget']}")
    digest = catalog_hash(cat)
    if digest != CATALOG_HASH:
        tally.wrong(f"catalog hash {digest} != {CATALOG_HASH}")
    restore = sieve_restorer()
    start = time.perf_counter()
    passes = 0
    while True:
        restore()
        scan_pass(grids_to_run, oracle, tally, quality, pace=pace)
        passes += 1
        elapsed = time.perf_counter() - start
        if trace or elapsed * (passes + 1) / passes > seconds:
            break
    if pace is not None:
        pace.stop()
    tally.wall = elapsed
    tally.scaled_wall = sum(tally.scaled)
    cells = sum(q["cells"] for q in quality.values()) * passes
    report = {
        "passes": passes,
        "cells": cells,
        "scan_cells_per_s": cells / sum(tally.latencies),
        "certified_cells": tally.certified // passes,
        "grid_s": {s.name: lat for s, lat in zip(grids_to_run, tally.latencies)},
        "quality": quality,
    }
    if tracer is not None:
        traced = Tally()
        tracer.run_id = "pass"
        restore()
        tracer.install()
        scan_pass(grids_to_run, oracle, traced, {}, tracer)
        tracer.uninstall()
        tally.errors += traced.errors
        report["trace_walls"] = (sum(tally.latencies) / passes, sum(traced.latencies))
    return setup_s, tally, report, tracer


# ---------------------------------------------------------------------------
# rootnum_sweep
# ---------------------------------------------------------------------------


def sweep_items(seed: int):
    """(a-invariants, expected W, kind) for every oracle curve and its twists,
    in an order drawn from seed.

    A twist E^d by a fundamental discriminant d coprime to N has
    w(E^d) = chi_d(-N) w(E).
    """
    from fractions import Fraction

    rows = load_json("rootnum_oracle.json")
    rng = random.Random(TWIST_SEED)
    discs = [d for d in range(-TWIST_RANGE, TWIST_RANGE + 1) if is_fundamental(d)]
    items = []
    for row in rows:
        a = tuple(Fraction(x) for x in row["a"])
        w, n = row["W"], row["N"]
        items.append((a, w, "oracle"))
        a1, a2, a3, a4, a6 = a
        b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        coprime = [d for d in discs if math.gcd(d, n) == 1]
        for d in rng.sample(coprime, TWISTS_PER_CURVE):
            twist = (Fraction(0), Fraction(0), Fraction(0), -27 * c4 * d * d, -54 * c6 * d**3)
            items.append((twist, kronecker(d, -n) * w, "twist"))
    random.Random(seed).shuffle(items)
    return items


def sweep_answer(item, tally: Tally, tracer: Tracer | None, pace: Pace | None = None) -> None:
    from ellfam import rootnum
    from ellfam.arith import Unfactored
    from ellfam.curves import WeierstrassCurve

    a, expected, kind = item
    idx = tracer.open(OP) if tracer is not None else None
    E = WeierstrassCurve(*a)
    mark = pace.mark() if pace is not None else None
    t0 = time.perf_counter()
    try:
        rn = rootnum.global_root_number(E)
        reason, detail = ("", "") if rn.complete else ("unfactored", "")
    except rootnum.MissingLocalCase as exc:
        rn, reason, detail = None, "missing-local-case", str(exc)
    except Unfactored as exc:
        rn, reason, detail = None, "unfactored", str(exc)
    tally.answer(pace.work(mark) if pace is not None else time.perf_counter() - t0)
    tally.judge(not reason, reason, detail)
    if kind == "oracle" and reason:
        tally.wrong(f"oracle curve {a}: {reason}")
    if rn is not None and rn.complete and rn.value != expected:
        tally.wrong(f"{kind} {a}: W = {rn.value}, expected {expected}")
    if idx is not None:
        tracer.close(idx)


def sweep_compared(items, tracer: Tracer) -> tuple[Tally, float, float]:
    """Answer the first TRACED_SWEEP_CURVES curves in chunks of
    TRACE_CHUNK, each chunk untraced and then traced from the same
    prime-sieve cache state, so that the host's drift falls alike on both.

    Returns the traced answers and the untraced and traced walls.
    """
    tally, untraced = Tally(), Tally()
    todo = items[:TRACED_SWEEP_CURVES]
    for k in range(0, len(todo), TRACE_CHUNK):
        chunk = todo[k:k + TRACE_CHUNK]
        restore = sieve_restorer()
        t0 = time.perf_counter()
        for item in chunk:
            sweep_answer(item, untraced, None)
        untraced.wall += time.perf_counter() - t0
        restore()
        tracer.install()
        t0 = time.perf_counter()
        for item in chunk:
            sweep_answer(item, tally, tracer)
        tally.wall += time.perf_counter() - t0
        tracer.uninstall()
    tally.errors += untraced.errors
    return tally, untraced.wall, tally.wall


def rootnum_sweep(seed: int, seconds: float, trace: bool):
    import_s = statistics.median(cold_import_s() for _ in range(SETUP_REPEATS))
    durations = []
    for _ in range(SETUP_REPEATS):
        pace = Pace()
        mark = pace.mark()
        pace.start()
        items = sweep_items(seed)
        durations.append(pace.work(mark) * pace.factor(mark))
        pace.stop()
    setup_s = import_s + statistics.median(durations)
    import ellfam  # noqa: F401  (timed above in a fresh interpreter)

    report: dict = {"curves": len(items)}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.run_id = "sweep"
        tally, untraced_wall, traced_wall = sweep_compared(items, tracer)
        report["trace_walls"] = (untraced_wall, traced_wall)
    else:
        # Whole passes over the list, another one only if it fits in the
        # run; each pass starts from the set-up's sieve cache, so passes
        # repeat the same work.
        restore = sieve_restorer()
        tally = Tally()
        pace = Pace()
        pace.start()
        start = time.perf_counter()
        passes = 0
        while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
            restore()
            first = len(tally.latencies)
            segment = pace.mark()
            for item in items:
                sweep_answer(item, tally, None, pace)
                if time.perf_counter() - segment[0] >= SWEEP_SEGMENT_S:
                    factor = pace.factor(segment)
                    tally.scaled[first:] = [t * factor for t in tally.latencies[first:]]
                    first = len(tally.latencies)
                    segment = pace.mark()
            factor = pace.factor(segment)
            tally.scaled[first:] = [t * factor for t in tally.latencies[first:]]
            passes += 1
        pace.stop()
        report["passes"] = passes
        tally.wall = time.perf_counter() - start
        tally.scaled_wall = sum(tally.scaled)
    lat = sorted(tally.latencies)
    report.update({
        "curves_per_s": len(lat) / sum(lat),
        "curve_p50_ms": statistics.median(lat) * 1e3,
        "curve_p99_ms": statistics.quantiles(lat, n=100, method="inclusive")[98] * 1e3,
        "samples": len(lat),
    })
    return setup_s, tally, report, tracer


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = {
    "cli_cold": cli_cold,
    "scan_radius2": scan_radius2,
    "rootnum_sweep": rootnum_sweep,
}


def environment() -> dict:
    import mpmath
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src = hashlib.sha1()
    for name in sorted(os.listdir(os.path.join(SRC, "ellfam"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "ellfam", name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "commit": commit,
        "source_sha1": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "mpmath": mpmath.__version__,
    }


def layer_metrics(tracer: Tracer, walls: tuple[float, float]) -> dict[str, float]:
    out = tracer.layer_metrics()
    untraced, traced = walls
    out["trace.untraced_wall_s"] = untraced
    out["trace.traced_wall_s"] = traced
    out["trace.overhead_share"] = 100.0 * (traced - untraced) / untraced
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    require_checkout()
    os.environ.pop("ELLFAM_BUDGET", None)
    sys.path.insert(0, SRC)

    setup_s, tally, report, tracer = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    report["failures_by_reason"] = tally.by_reason()
    if tracer is not None:
        report["missing_local_case_keys"] = dict(tracer.missing_keys.most_common(10))
        report["unfactored_residue_digits"] = dict(sorted(tracer.unfactored_digits.items()))
        metrics = layer_metrics(tracer, report.pop("trace_walls"))
        units = LAYER_METRICS
        # self times over the traced phase, including the bench.op remainder,
        # set against the untraced wall of the same work
        phase = tracer.run_id
        own = sum(
            end - start
            for name, start, end, parent, run in tracer.spans
            if run == phase and parent < 0
        )
        untraced = metrics["trace.untraced_wall_s"]
        overhead = metrics["trace.traced_wall_s"] - untraced
        report["trace_accounting"] = {
            "layer_self_sum_s": own,
            "untraced_wall_s": untraced,
            "overhead_s": overhead,
            # interpreter start-up before the first span is the 1% slack
            "within_overhead": abs(own - untraced) <= abs(overhead) + 0.01 * untraced,
        }
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = tally.metrics(setup_s)
        units = END_TO_END_UNITS
    report["setup_s"] = setup_s
    report["environment"] = environment()
    report["errors"] = tally.errors[:20]
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    result = {
        "correct": not tally.errors,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
