"""Pathological inputs, each run alone in a child process under a deadline.

`python3 perfbench/stress.py <case>` runs one case and prints its elapsed
seconds. An exception exits 3 with its type on stderr; a case still running
at the deadline is stopped by a timer and exits 4. The parent side,
run_cases, starts the children one at a time, kills any child that outlives
the deadline by 5 s, and reports ok, crash or timeout per case with the
seconds the case ran.
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import arith
from workloads import cf_form, run_cli

CASES = (
    "base_point_gcd",       # base_point([p, p, p+1]), p a 50-bit prime (~10^15)
    "act_on_point_300bit",  # act_on_point with the witness of a 300-bit form
    "reduce_form_wide",     # reduce_form([1, 2*10^7, 10^14+1])
    "equivalent_wide",      # equivalent([1, 2*10^7, 10^14+1], [1, 0, 1])
    "class_number_huge",    # class_number(-400000000000003)
    "plot_overflow",        # main(["plot", "--points", "1,1,-10^400"])
)
DEADLINE_S = 2.0
MEMORY_CAP = 1 << 30  # address space of a child, bytes


def _case(name: str, bqf):
    rng = random.Random(name)
    wide = bqf.QuadraticForm(1, 2 * 10**7, 10**14 + 1)
    if name == "base_point_gcd":
        p = arith.certified_prime(rng, 50)
        f = bqf.QuadraticForm(p, p, p + 1)
        return lambda: bqf.base_point(f)
    if name == "act_on_point_300bit":
        f = bqf.QuadraticForm(*cf_form(rng, (1, 1, 6), 300, 1, 3)[1])
        g = bqf.base_point_transform(bqf.reduce_form(f).witness)
        z = bqf.base_point(f)
        return lambda: bqf.act_on_point(g, z)
    if name == "reduce_form_wide":
        return lambda: bqf.reduce_form(wide)
    if name == "equivalent_wide":
        return lambda: bqf.equivalent(wide, bqf.QuadraticForm(1, 0, 1))
    if name == "class_number_huge":
        return lambda: bqf.class_number(-400000000000003)
    if name == "plot_overflow":
        import bqf.cli
        return lambda: run_cli(bqf.cli, ["plot", "--points", "1,1,-1" + "0" * 400])
    raise ValueError(f"unknown stress case {name!r}")


def run_cases(root: Path) -> dict[str, tuple[str, float]]:
    """{case: (status, seconds the case ran)}."""
    results = {}
    for name in CASES:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), name],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = child.communicate(timeout=DEADLINE_S + 5.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            results[name] = ("timeout", time.perf_counter() - started)
            continue
        lines = out.split()
        elapsed = float(lines[-1]) if lines else time.perf_counter() - started
        if child.returncode == 0:
            results[name] = ("ok", elapsed)
        elif child.returncode == 4:
            results[name] = ("timeout", elapsed)
        else:
            kind = err.strip().splitlines()[-1] if err.strip() else f"exit {child.returncode}"
            results[name] = (f"crash ({kind})", elapsed)
    return results


class Deadline(BaseException):
    # not an Exception, so neither the library nor run_cli can swallow it
    pass


def _expire(*_):
    raise Deadline


def main(name: str) -> int:
    import signal

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import bqf

    call = _case(name, bqf)
    # the case itself gets the deadline; interpreter start and input set-up do not count
    signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    t0 = time.perf_counter()
    try:
        call()
    except Deadline:
        print(time.perf_counter() - t0)
        return 4
    except Exception as exc:  # a crash is the finding; report it and its type
        signal.setitimer(signal.ITIMER_REAL, 0)
        print(time.perf_counter() - t0)
        print(type(exc).__name__, file=sys.stderr)
        return 3
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
