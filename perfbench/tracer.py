"""In-memory span tracer installed around ellfam's public functions.

The package source is not touched: ``Tracer.install`` replaces each listed
function with a wrapper in every ``ellfam`` module that bound it at import
(``factor`` alone is bound in arith, families, localdata, rootnum, heights,
sections and scan), and each listed method on its class.  ``uninstall``
puts the originals back, so one process can time the same work untraced
and traced.

A span is (name, start, end, parent, run id).  A layer's self time is its
spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path, record spans?).  Layers listed
# without spans only count calls: they are called too often for a span
# each.  local_root_number is wrapped to see MissingLocalCase where it is
# raised, since its callers may catch it.
LAYERS = (
    ("arith.factor", "ellfam.arith", "factor", True),
    ("arith.is_prime", "ellfam.arith", "is_prime", True),
    ("polyq.PolyQ.gcd", "ellfam.polyq", "PolyQ.gcd", True),
    ("polyq.PolyQ.factor", "ellfam.polyq", "PolyQ.factor", True),
    ("polyq.RatFunc.init", "ellfam.polyq", "RatFunc.__init__", False),
    ("families.catalog", "ellfam.families", "catalog", True),
    ("families.substitute_parameter", "ellfam.families", "substitute_parameter", True),
    ("families.CurveFamily.verify", "ellfam.families", "CurveFamily.verify", True),
    ("families.CurveFamily.specialize", "ellfam.families", "CurveFamily.specialize", True),
    ("curves.WeierstrassCurve.mul", "ellfam.curves", "WeierstrassCurve.mul", False),
    ("curves.torsion_subgroup", "ellfam.curves", "torsion_subgroup", True),
    ("curves.isomorphic_over_Q", "ellfam.curves", "isomorphic_over_Q", True),
    ("sections.quartic_jacobian", "ellfam.sections", "quartic_jacobian", True),
    ("localdata.minimal_model", "ellfam.localdata", "minimal_model", True),
    ("localdata.tate_local", "ellfam.localdata", "tate_local", True),
    ("rootnum.global_root_number", "ellfam.rootnum", "global_root_number", True),
    ("rootnum.local_root_number", "ellfam.rootnum", "local_root_number", False),
    ("heights.pairing_matrix", "ellfam.heights", "pairing_matrix", True),
    ("heights.canonical_height", "ellfam.heights", "canonical_height", True),
    ("scan.lattice_scan", "ellfam.scan", "lattice_scan", True),
    ("scan.ParameterMap.parameter", "ellfam.scan", "ParameterMap.parameter", True),
    ("scan.symmetry_audit", "ellfam.scan", "symmetry_audit", True),
)

SCANS = ("Z8-scan-1", "Z8-scan-2", "Z2x6-scan-1")

# Span name of the benchmark's own root span around each operation; its self
# time is the time spent outside every listed layer.
OP = "bench.op"

# Per-layer metrics reported by a traced run, with their units.  The
# README maps each to the end-to-end metric and workload it should move.
LAYER_METRICS = {
    "arith.factor.calls": "count",
    "arith.factor.self_s": "s",
    "arith.factor.incomplete": "count",
    "arith.is_prime.calls": "count",
    "arith.is_prime.self_s": "s",
    "polyq.PolyQ.gcd.calls": "count",
    "polyq.PolyQ.gcd.self_s": "s",
    "polyq.PolyQ.factor.calls": "count",
    "polyq.PolyQ.factor.self_s": "s",
    "polyq.RatFunc.init.calls": "count",
    "families.catalog.self_s": "s",
    "families.substitute_parameter.calls": "count",
    "families.CurveFamily.verify.self_s": "s",
    "families.CurveFamily.specialize.calls": "count",
    "families.CurveFamily.specialize.self_s": "s",
    "curves.WeierstrassCurve.mul.calls": "count",
    "curves.torsion_subgroup.self_s": "s",
    "curves.isomorphic_over_Q.self_s": "s",
    "sections.quartic_jacobian.self_s": "s",
    "localdata.minimal_model.calls": "count",
    "localdata.minimal_model.self_s": "s",
    "localdata.tate_local.calls": "count",
    "localdata.tate_local.self_s": "s",
    "rootnum.global_root_number.calls": "count",
    "rootnum.global_root_number.self_s": "s",
    "rootnum.missing_local_case": "count",
    "heights.pairing_matrix.calls": "count",
    "heights.pairing_matrix.self_s": "s",
    "heights.canonical_height.calls": "count",
    **{f"scan.lattice_scan.wall_s.{name}": "s" for name in SCANS},
    "scan.ParameterMap.parameter.self_s": "s",
    "scan.symmetry_audit.self_s": "s",
    "bench.op.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_share": "%",
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.missing_keys: Counter = Counter()
        self.unfactored_digits: Counter = Counter()
        self.run_id = "setup"
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, prefix: str, fn, spans: bool):
        calls = self.calls
        if not spans:
            def counted(*args, **kwargs):
                calls[prefix] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    self._note_exception(exc)
                    raise

            return counted

        def traced(*args, **kwargs):
            calls[prefix] += 1
            name = prefix
            if prefix == "scan.lattice_scan":
                name = f"{prefix}.{args[0].name}"
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._note_exception(exc)
                raise
            finally:
                self.close(idx)
            if prefix == "arith.factor" and not result.complete:
                calls["arith.factor.incomplete"] += 1
                self.unfactored_digits[len(str(result.residue))] += 1
            return result

        return traced

    def _note_exception(self, exc: Exception) -> None:
        # a MissingLocalCase passes through local_root_number and every
        # traced caller; count it once, where it is raised
        if type(exc).__name__ == "MissingLocalCase" and not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            self.missing_keys[str(exc)] += 1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for prefix, module, path, spans in LAYERS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            wrapper = self._wrap(prefix, original, spans)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name != "ellfam" and not name.startswith("ellfam."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, over every run id."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = Counter()
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return out

    def walls(self) -> dict[str, float]:
        """Summed span duration per span name."""
        out: dict[str, float] = Counter()
        for name, start, end, _parent, _run in self.spans:
            out[name] += end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The LAYER_METRICS that spans and counters give (trace.* aside)."""
        own = self.self_times()
        wall = self.walls()
        out: dict[str, float] = {}
        for key in LAYER_METRICS:
            if key.startswith("trace."):
                continue
            layer, _, stat = key.rpartition(".")
            if key.startswith("scan.lattice_scan.wall_s."):
                out[key] = wall.get(f"scan.lattice_scan.{stat}", 0.0)
            elif key == "arith.factor.incomplete":
                out[key] = self.calls["arith.factor.incomplete"]
            elif key == "rootnum.missing_local_case":
                out[key] = sum(self.missing_keys.values())
            elif stat == "calls":
                out[key] = self.calls[layer]
            else:
                out[key] = own.get(layer, 0.0)
        return out

    def dump(self, path: str) -> None:
        """Write spans as JSON lines and counters as a final line."""
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")
            fh.write(json.dumps({
                "calls": self.calls,
                "missing_keys": self.missing_keys,
                "unfactored_digits": {str(k): v for k, v in self.unfactored_digits.items()},
            }) + "\n")

    @classmethod
    def load(cls, path: str) -> "Tracer":
        tr = cls()
        with open(path) as fh:
            lines = fh.read().splitlines()
        for line in lines[:-1]:
            tr.spans.append(json.loads(line))
        tail = json.loads(lines[-1])
        tr.calls.update(tail["calls"])
        tr.missing_keys.update(tail["missing_keys"])
        tr.unfactored_digits.update({int(k): v for k, v in tail["unfactored_digits"].items()})
        return tr
