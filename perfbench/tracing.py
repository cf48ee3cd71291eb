"""Spans at the package's module boundaries, and the per-layer metrics.

Tracer.install replaces every binding of the traced public functions in the
bqf modules with a wrapper that records one span per call: a name, start
and end times, the enclosing span and the benchmark op that caused it.
Calls from the benchmark and calls between (or within) the package's
modules are both recorded, so cli.main has its reduction, enumeration and
qfield calls as child spans. Spans are kept in flat arrays in memory and
written once, at the end of the run. The library source is not touched.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from array import array

from calibration import Calibrator
from workloads import VERBS, admissible, cf_form, irrational

# (module, attribute) -> span name; the layer is the module
TRACED = {
    ("reduction", "reduce_form"): "reduction.reduce_form",
    ("reduction", "equivalent"): "reduction.equivalent",
    ("group", "act_on_form"): "group.act_on_form",
    ("group", "act_on_point"): "group.act_on_point",
    ("group", "element_to_word"): "group.element_to_word",
    ("group", "word_to_element"): "group.word_to_element",
    ("group", "normalize_word"): "group.normalize_word",
    ("points", "base_point"): "points.base_point",
    ("points", "form_from_point"): "points.form_from_point",
    ("enumeration", "class_number"): "enumeration.class_number",
    ("enumeration", "enumerate_reduced"): "enumeration.enumerate_reduced",
    ("enumeration", "enumerate_almost_reduced"): "enumeration.enumerate_almost_reduced",
    ("residues", "legendre"): "residues.legendre",
    ("residues", "is_prime"): "residues.is_prime",
    ("residues", "quadratic_residues"): "residues.quadratic_residues",
    ("residues", "residue_complement_law"): "residues.residue_complement_law",
    ("residues", "scaled_representation_oracle"): "residues.scaled_representation_oracle",
    ("qfield", "orbit_explore"): "qfield.orbit_explore",
    ("qfield", "same_orbit_form_check"): "qfield.same_orbit_form_check",
    ("qfield", "act"): "qfield.act_on_element",
    ("cli", "main"): "cli.main",
    ("cli", "render_region_svg"): "cli.render_region_svg",
}
# legendre is reported in two parts: the first call for a prime validates it
# (a Miller-Rabin run), later calls hit the library's cache. Every function
# here validates its prime the same way; the value is the prime's position.
PRIME_ARG = {
    "residues.legendre": 1,
    "residues.quadratic_residues": 0,
    "residues.residue_complement_law": 0,
    "residues.scaled_representation_oracle": 1,
}
SPAN_NAMES = sorted(
    {n for n in TRACED.values() if n != "residues.legendre"}
    | {"residues.legendre_cold", "residues.legendre_warm"}
)
COUNTS = ("reduction.steps", "reduction.word_letters", "reduction.witness_bits_max",
          "points.gcd_bits_max", "enumeration.pairs_scanned", "enumeration.yield_ratio",
          "qfield.orbit_elements")
SWEEP_BITS = (32, 64, 128, 256, 512)
SWEEP_DELTAS = (3, 4, 5, 6)
SWEEP_DEPTHS = (4, 8, 12)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): p99 by nearest rank, or the highest percentile
    that still has ten samples above it; the maximum below 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    k = min(math.ceil(0.99 * n) - 1, n - 11)
    if k < 0:
        k = n - 1
    return 100.0 * (k + 1) / n, ordered[k]


def _pairs_scanned(delta: int) -> int:
    # sum of (a + 1) over 1 <= a <= sqrt(|delta|/3): the (a, b) cells a
    # rectangle scan of this discriminant visits
    top = math.isqrt(-delta // 3)
    return top * (top + 1) // 2 + top


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_kinds: list[str] = []
        self.op_scale = array("d")  # calibration factor of each op
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._primes: set[int] = set()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.forms_returned = 0

    def begin_op(self, kind: str, scale: float) -> None:
        self.op_kinds.append(kind)
        self.op_scale.append(scale)

    def clear(self) -> None:
        """Drop recorded spans and counts; keep which primes were seen."""
        for arr in (self.name, self.start, self.end, self.parent, self.op):
            del arr[:]
        self.op_kinds.clear()
        del self.op_scale[:]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.forms_returned = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_name(self, name: str, args) -> str:
        if name not in PRIME_ARG or len(args) <= PRIME_ARG[name]:
            return name
        p = args[PRIME_ARG[name]]
        cold = p not in self._primes
        self._primes.add(p)
        if name != "residues.legendre":
            return name
        return "residues.legendre_cold" if cold else "residues.legendre_warm"

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(self._id(self._span_name(name, args)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(len(self.op_kinds) - 1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx], self.end[idx] = t0, t1
            self._count(name, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, idx: int, args, result) -> None:
        c = self.counts
        if name == "reduction.reduce_form":
            w = result.witness
            c["reduction.steps"] += result.steps
            c["reduction.word_letters"] += len(result.word)
            c["reduction.witness_bits_max"] = max(
                c["reduction.witness_bits_max"], *(abs(x).bit_length() for x in (w.r, w.s, w.t, w.u)))
        elif name == "points.base_point":
            f = args[0]
            c["points.gcd_bits_max"] = max(c["points.gcd_bits_max"], math.gcd(f.b, 2 * f.a).bit_length())
        elif name == "group.act_on_point":
            g, z = args
            m, n = g.r * z.p + g.s * z.q, g.t * z.p + g.u * z.q
            bits = math.gcd(m * n - g.r * g.t * z.D, n * n - g.t * g.t * z.D).bit_length()
            c["points.gcd_bits_max"] = max(c["points.gcd_bits_max"], bits)
        elif name.startswith("enumeration."):
            parent = self.parent[idx]
            if parent < 0 or not self.names[self.name[parent]].startswith("enumeration."):
                c["enumeration.pairs_scanned"] += _pairs_scanned(args[0])
                self.forms_returned += result if isinstance(result, int) else len(result)
        elif name == "qfield.orbit_explore":
            c["qfield.orbit_elements"] += len(result)

    def install(self) -> None:
        """Wrap the traced functions wherever a bqf module binds them."""
        originals = {}
        for (module, attr), name in TRACED.items():
            fn = getattr(sys.modules.get(f"bqf.{module}"), attr, None)
            if fn is not None:
                originals[id(fn)] = (fn, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bqf" and not mod_name.startswith("bqf."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and callable(value):
                    fn, name = originals[id(value)]
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, self time and duration percentiles, the
        counts, and cli.main's median per verb; times are calibrated with
        the factor of the op each span belongs to."""
        durations: dict[str, list[float]] = {n: [] for n in SPAN_NAMES}
        busy = dict.fromkeys(SPAN_NAMES, 0.0)
        span = [(e - s) * self.op_scale[o] for s, e, o in zip(self.start, self.end, self.op)]
        child = [0.0] * len(span)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += span[i]
        verbs: dict[str, list[float]] = {v: [] for v in VERBS}
        main_id = self._ids.get("cli.main")
        for i, d in enumerate(span):
            name = self.names[self.name[i]]
            durations[name].append(d)
            busy[name] += d - child[i]
            if self.name[i] == main_id and self.op_kinds[self.op[i]] in verbs:
                verbs[self.op_kinds[self.op[i]]].append(d)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            ds = durations[name]
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.us_p50"] = statistics.median(ds) * 1e6 if ds else 0.0
            out[f"{name}.us_p99"] = tail_percentile(ds)[1] * 1e6 if ds else 0.0
        out.update(self.counts)
        pairs = self.counts["enumeration.pairs_scanned"]
        out["enumeration.yield_ratio"] = self.forms_returned / pairs if pairs else 0.0
        for verb, ds in verbs.items():
            out[f"cli.main.us_p50.{verb}"] = statistics.median(ds) * 1e6 if ds else 0.0
        return out

    def write(self, path) -> None:
        """All spans, column by column, as one JSON document."""
        doc = {
            "names": self.names,
            "op_kinds": self.op_kinds,
            "op_scale": self.op_scale.tolist(),
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": {
                "name": self.name.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist(), "op": self.op.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def sweeps(bqf, rng) -> dict[str, float]:
    """Scaling curves, timed without tracing: reduce_form over coefficient
    bits, class_number over |delta|, orbit_explore over depth."""
    clock = Calibrator()

    def median_time(calls) -> float:
        times = []
        for call in calls:
            clock.tick()
            t0 = time.perf_counter()
            call()
            times.append((time.perf_counter() - t0) * clock.scale())
        return statistics.median(times)

    out = {}
    f0s = [(1, 1, 6), (2, 1, 3), (1, 0, 5), (3, 2, 5), (2, 2, 3)]
    for bits in SWEEP_BITS:
        forms = [bqf.QuadraticForm(*cf_form(rng, rng.choice(f0s), bits, 1, 3)[1]) for _ in range(15)]
        out[f"reduction.reduce_form.us_p50.bits_{bits}"] = 1e6 * median_time(
            [lambda f=f: bqf.reduce_form(f) for f in forms])
    for k in SWEEP_DELTAS:
        deltas = [admissible(10**k + rng.randint(0, 10**k // 10), rng.choice((0, 3))) for _ in range(5)]
        out[f"enumeration.class_number.ms.delta_1e{k}"] = 1e3 * median_time(
            [lambda d=d: bqf.class_number(d) for d in deltas])
    alphas = []
    for _ in range(5):
        n, a = rng.randint(1, 60), rng.randint(-6, 6)
        alphas.append(bqf.QuadFieldElement(*irrational(rng, a, n)))
    for depth in SWEEP_DEPTHS:
        out[f"qfield.orbit_explore.ms.depth_{depth}"] = 1e3 * median_time(
            [lambda e=e: bqf.orbit_explore(e, depth) for e in alphas])
    return out
