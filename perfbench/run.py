"""bqf benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, measured without tracing; with --trace 1 they are the
per-layer ones, from a traced pass over a fixed number of ops and an
untraced replay of the same ops, plus scaling sweeps and the stress cases.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stress
import calibration
import tracing
from calibration import Calibrator
from workloads import OPS, WORKLOADS, Context

OP_DEADLINE_S = 1.0      # an op slower than this counts as failed
SETUP_SAMPLES = 15       # fresh interpreters timed for setup_s
WARMUP_OPS = 40
# the traced pass covers exactly this many ops, so its counts repeat
# exactly for a seed whenever the ops finish within --seconds
TRACED_OPS = {"forms": 2000, "discriminants": 120, "queries": 1500}
GRACE_S = 60             # a run still measuring this long after its windows is stuck

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# calibration imports only `time`, so the timed import still loads all of
# bqf's own dependencies
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from calibration import reference_seconds\n"
    "ref = sorted(reference_seconds() for _ in range(5))[2]\n"
    "t = time.perf_counter()\n"
    "import bqf, bqf.cli\n"
    "print(time.perf_counter() - t, ref, bqf.__file__)\n"
)


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".steps", ".word_letters", ".pairs_scanned", ".orbit_elements")):
        return "count"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith((".busy_s", ".s")) or name.startswith("stress."):
        return "s"
    if ".ms." in name:
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "us"


def layer_names() -> list[str]:
    names = [f"{n}.{m}" for n in tracing.SPAN_NAMES for m in ("calls", "busy_s", "us_p50", "us_p99")]
    names += list(tracing.COUNTS)
    names += [f"cli.main.us_p50.{v}" for v in tracing.VERBS]
    names += [f"reduction.reduce_form.us_p50.bits_{b}" for b in tracing.SWEEP_BITS]
    names += [f"enumeration.class_number.ms.delta_1e{k}" for k in tracing.SWEEP_DELTAS]
    names += [f"qfield.orbit_explore.ms.depth_{d}" for d in tracing.SWEEP_DEPTHS]
    names += ["trace.overhead_ratio"] + [f"stress.{c}.s" for c in stress.CASES]
    return names


def setup_seconds(src: Path) -> float:
    """Median calibrated time to import bqf and bqf.cli, timed inside fresh
    interpreters."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_TIMER, str(src), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        if not Path(out[2]).resolve().is_relative_to(src):
            raise RuntimeError(f"imported bqf from {out[2]}, not from {src}")
        if i:  # the first interpreter may still be writing bytecode caches
            times.append(float(out[0]) * calibration.NOMINAL_S / float(out[1]))
    return statistics.median(times)


class Loop:
    """Outcome of one closed-loop pass: per-op latencies and failures."""

    def __init__(self):
        self.latencies: list[float] = []  # calibrated seconds
        self.measured: list[float] = []   # wall seconds
        self.failed = 0
        self.first_failure = ""

    def record(self, op, measured: float, scale: float, ok: bool, detail: str) -> None:
        seconds = measured * scale
        if not ok:
            self.failed += 1
            seconds = max(seconds, OP_DEADLINE_S)  # a failed op misses every latency limit
            if not self.first_failure:
                self.first_failure = f"{op.kind} {str(op.inputs)[:200]}: {detail}"
        self.latencies.append(seconds)
        self.measured.append(measured)


def closed_loop(ops, seconds: float, tracer=None, max_ops: int | None = None) -> Loop:
    """One client: issue the next op only after the previous one is checked."""
    loop = Loop()
    clock = Calibrator()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (max_ops is None or len(loop.latencies) < max_ops):
        clock.tick()
        scale = clock.scale()
        op = next(ops)
        if tracer is not None:
            tracer.begin_op(op.kind, scale)
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an uncaught library exception fails the op
            loop.record(op, time.perf_counter() - t0, scale, False, repr(exc))
            continue
        elapsed = time.perf_counter() - t0
        if elapsed > calibration.PERIOD_S:
            scale = clock.after_long_op(scale)
        try:
            ok, detail = op.check(result), "wrong answer"
        except Exception as exc:  # a malformed answer fails the op
            ok, detail = False, f"unreadable answer: {exc!r}"
        if elapsed > OP_DEADLINE_S:
            ok, detail = False, f"over the {OP_DEADLINE_S} s deadline"
        loop.record(op, elapsed, scale, ok, detail)
    return loop


def _abort(*_):
    print("error: run exceeded its time budget", file=sys.stderr)
    sys.stderr.flush()
    raise SystemExit(3)


def end_to_end(workload: str, seed: int, seconds: int, ctx, root: Path, bqf) -> tuple[Loop, dict]:
    setup = setup_seconds(root / "src")
    loop = closed_loop(OPS[workload](seed, ctx, bqf), seconds)
    lat, raw = loop.latencies, loop.measured
    pct, p_tail = tracing.tail_percentile(lat)
    print(f"latency samples={len(lat)}; latency_p99_ms is the p{pct:.2f} value")
    print(f"uncalibrated: ops_per_s={len(raw) / sum(raw):.2f} "
          f"latency_p50_ms={statistics.median(raw) * 1e3:.4f} "
          f"latency_p99_ms={tracing.tail_percentile(raw)[1] * 1e3:.4f}")
    return loop, {
        "setup_s": setup,
        "ops_per_s": (len(lat) - loop.failed) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p99_ms": p_tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload: str, seed: int, seconds: int, ctx, tracer, root: Path,
              bqf) -> tuple[Loop, dict]:
    tracer.clear()
    max_ops = TRACED_OPS[workload]
    loop = closed_loop(OPS[workload](seed, ctx, bqf), seconds, tracer, max_ops)
    tracer.uninstall()
    # replay the same ops untraced, from caches as cold as the traced pass found them
    for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "bqf"]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    plain = closed_loop(OPS[workload](seed, ctx, bqf), seconds, max_ops=len(loop.latencies))
    signal.alarm(0)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(loop.latencies) / statistics.fmean(plain.latencies))
    metrics.update(tracing.sweeps(bqf, random.Random(f"sweeps:{seed}")))
    for case, (status, elapsed) in stress.run_cases(root).items():
        metrics[f"stress.{case}.s"] = elapsed
        print(f"stress {case}: {status} {elapsed:.3f} s")
    out = root / ".perfbench" / f"trace-{workload}.json"
    out.parent.mkdir(exist_ok=True)
    tracer.write(out)
    print(f"traced ops={len(loop.latencies)} of {max_ops}; spans={len(tracer.start)} "
          f"written to {out.relative_to(root)}")
    loop.latencies += plain.latencies
    loop.failed += plain.failed
    loop.first_failure = loop.first_failure or plain.first_failure
    return loop, metrics


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path, bqf) -> dict:
    ctx = Context(seed, workload)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()  # before warm-up, so legendre's cold/warm split matches the cache
    closed_loop(OPS[workload](f"warmup:{seed}", ctx, bqf), seconds, max_ops=WARMUP_OPS)
    signal.signal(signal.SIGALRM, _abort)
    signal.alarm(2 * seconds + GRACE_S)
    if trace:
        loop, metrics = per_layer(workload, seed, seconds, ctx, tracer, root, bqf)
        units = {name: layer_unit(name) for name in metrics}
    else:
        loop, metrics = end_to_end(workload, seed, seconds, ctx, root, bqf)
        units = END_TO_END
    signal.alarm(0)

    attempted, failed = len(loop.latencies), loop.failed
    print(f"ops attempted={attempted} failed={failed} failed_share={failed / attempted} share")
    if loop.first_failure:
        print(f"first failure: {loop.first_failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "bqf" / "__init__.py").is_file():
        print(f"error: no bqf package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bqf
    import bqf.cli  # noqa: F401

    if not Path(bqf.__file__).resolve().is_relative_to(src):
        print(f"error: imported bqf from {bqf.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root, bqf)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
