"""Seeded inputs and answer checks for the three workloads.

Each workload is an endless, seeded stream of Op objects. An op's `call`
makes the timed library calls and returns their raw results; its `check`
runs afterwards, outside the timed region, and compares those results with
the oracles in arith.py. The library sees only the generated inputs.

Op kinds follow a fixed repeating schedule and input sizes come from
low-discrepancy draws, so the mix a run measures barely depends on the
seed or on how many ops fit in the run; the seed picks the inputs.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import arith

WORKLOADS = ("forms", "discriminants", "queries")

# steps of the low-discrepancy draws: irrationals that are rationally
# independent, so draws that advance together (two sizes of one op) are
# jointly equidistributed instead of moving in lockstep
STEPS = ((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1, math.sqrt(3) - 1,
         math.sqrt(7) - 2, math.sqrt(11) - 3)


@dataclass
class Op:
    kind: str
    inputs: tuple  # raw values, hashed into the input digest
    call: Callable[[], object]
    check: Callable[[object], bool]


class Stratified:
    """Draws in [0, 1) that cover the interval evenly: a seeded offset plus
    a fixed irrational step."""

    def __init__(self, rng: random.Random, step: float):
        self.x = rng.random()
        self.step = step

    def __call__(self) -> float:
        self.x = (self.x + self.step) % 1.0
        return self.x


def admissible(m: int, residue: int) -> int:
    """The discriminant -m' with m' >= m and m' = residue (0 or 3) mod 4."""
    return -(m + (residue - m) % 4)


def random_word(rng: random.Random, length: int, letters: str = "TUV") -> str:
    return "".join(rng.choice(letters) for _ in range(length))


def uniform_form(rng: random.Random, bound: int) -> tuple:
    a, c = rng.randint(1, bound), rng.randint(1, bound)
    b_max = min(bound, math.isqrt(4 * a * c - 1))
    return (a, rng.randint(-b_max, b_max), c)


def irrational(rng: random.Random, a: int, n: int) -> tuple:
    """(a, c, n) for (a + sqrt(-n))/c with c a random divisor of a^2 + n."""
    return (a, rng.choice([c for c in range(1, a * a + n + 1) if (a * a + n) % c == 0]), n)


def cf_pairs(rng: random.Random, f0: tuple, pairs: int, qmin: int, qmax: int) -> tuple:
    """f0 moved by a det +1 continued-fraction element of 2 * pairs partial
    quotients in [qmin, qmax]."""
    m = arith.cf_element([rng.randint(qmin, qmax) for _ in range(2 * pairs)])
    return arith.substitute(m, f0)


def cf_form(rng: random.Random, f0: tuple, bits: int, qmin: int, qmax: int):
    """(M, M f0): f0 moved by a det +1 continued-fraction element with partial
    quotients in [qmin, qmax], until a coefficient has `bits` bits."""
    quotients: list[int] = []
    while True:
        quotients += [rng.randint(qmin, qmax), rng.randint(qmin, qmax)]
        m = arith.cf_element(quotients)
        f = arith.substitute(m, f0)
        if max(map(abs, f)).bit_length() >= bits:
            return m, f


class Context:
    """Set-up shared by the workloads, built before any timing.

    `pool` maps small discriminants (|delta| <= 10^4, at least three reduced
    forms) to their reduced forms from the rectangle scan.
    """

    def __init__(self, seed: int, workload: str):
        rng = random.Random(f"context:{seed}")
        self.pool: dict[int, list[tuple]] = {}
        while len(self.pool) < 64:
            delta = admissible(rng.randint(20, 10_000 - 3), rng.choice((0, 3)))
            forms = arith.rectangle_reduced(delta)
            if len(forms) >= 3:
                self.pool[delta] = forms
        self.deltas = sorted(self.pool)
        self.odd_primes = arith.odd_primes_below(10_000)
        self.scan = arith.DivisorScan(DELTA_MAX // 3 + 1) if workload == "discriminants" else None
        self.orbits: dict[tuple, dict] = {}
        if workload == "queries":
            while len(self.orbits) < 16:
                n = rng.randint(1, 60)
                alpha = irrational(rng, rng.randint(-6, 6), n)
                self.orbits[alpha] = arith.orbit_depths(alpha, 12)
        self.alphas = sorted(self.orbits)

    def reduced_form(self, rng) -> tuple:
        return rng.choice(self.pool[rng.choice(self.deltas)])

    def inequivalent_pair(self, rng, mode: str):
        """Two reduced forms of one discriminant, inequivalent in `mode`."""
        forms = self.pool[rng.choice(self.deltas)]
        f1 = rng.choice(forms)
        excluded = {f1, (f1[0], -f1[1], f1[2])} if mode == "extended" else {f1}
        return f1, rng.choice([f for f in forms if f not in excluded])


def _equiv_check(form, other, mode, expect: bool):
    def check(w) -> bool:
        if not expect:
            return w is None
        g = (w.r, w.s, w.t, w.u)
        return (
            arith.substitute(g, other) == tuple(form)
            and (mode == "extended" or arith.det(g) == 1)
        )
    return check


def _reduce_check(form, expected):
    def check(res) -> bool:
        red = (res.reduced.a, res.reduced.b, res.reduced.c)
        g = (res.witness.r, res.witness.s, res.witness.t, res.witness.u)
        return (
            red == expected
            and arith.substitute(g, form) == red
            and arith.det(g) == 1
            and arith.is_normal_word(res.word)
            and arith.same_element(arith.word_product(res.word), g)
        )
    return check


def _roundtrip_check(form):
    def check(res) -> bool:
        z, (g, scale) = res
        prim = arith.primitive_part(form)
        return (
            arith.triple_point(z.p, z.q, z.D) == arith.form_point(form)
            and (g.a, g.b, g.c) == prim
            and scale == Fraction(1, prim[2])
        )
    return check


# --- forms -------------------------------------------------------------------

# 60% uniform (coefficients <= 10^6), 20% deep, 10% wide, 10% point queries
FORMS_SCHEDULE = (
    "reduce", "equiv", "deep_reduce", "words", "reduce", "wide_reduce", "equiv",
    "roundtrip", "deep_equiv", "reduce", "gcd_point", "equiv", "words",
    "deep_reduce", "reduce", "equiv", "wide_equiv", "deep_equiv", "reduce",
    "witness_point",
)
EQUIV_CASES = (("proper", True), ("extended", True), ("proper", False), ("extended", False))
WORD_CASES = ("element_to_word", "word_to_element", "normalize_word", "act_on_form")


def forms_ops(seed: int, ctx: Context, bqf):
    rng = random.Random(f"forms:{seed}")
    draw = {name: Stratified(rng, step)
            for name, step in zip(("deep", "wide", "qmax", "gcd", "witness"), STEPS)}
    QF, GE = bqf.QuadraticForm, bqf.GroupElement
    counters = dict.fromkeys(FORMS_SCHEDULE, 0)

    def moved(kind, f):
        """f moved by a short word (uniform pairs), to a deep or to a wide form."""
        if kind == "equiv":
            return arith.substitute(arith.word_product(random_word(rng, rng.randint(4, 12))), f)
        if kind.startswith("deep"):
            return cf_form(rng, f, 64 + int(448 * draw["deep"]()), 1, 3)[1]
        # one or two pairs of quotients within 10% of a qmax of 10^3 to 10^4:
        # about 40 to 120 bits and words of 4*10^3 to 8*10^4 letters. An op's
        # cost, and the memory its word takes, then follow from the two
        # stratified draws, so a run's tail and peak memory do not hinge on a
        # few lucky quotients.
        qmax = int(10 ** (3 + draw["qmax"]()))
        return cf_pairs(rng, f, 1 + int(2 * draw["wide"]()), qmax - qmax // 10, qmax)

    def moved_pair(kind, mode, expect):
        if expect:
            f0 = uniform_form(rng, 10**6) if kind == "equiv" else ctx.reduced_form(rng)
            other = (f0[0], -f0[1], f0[2]) if mode == "extended" else f0
            return moved(kind, f0), moved(kind, other)
        f1, f2 = ctx.inequivalent_pair(rng, mode)
        return moved(kind, f1), moved(kind, f2)

    i = 0
    while True:
        kind = FORMS_SCHEDULE[i % len(FORMS_SCHEDULE)]
        k = counters[kind]
        counters[kind] += 1
        i += 1
        if kind in ("reduce", "deep_reduce", "wide_reduce"):
            if kind == "reduce":
                f = uniform_form(rng, 10**6)
                expected = arith.reduce_triple(f)
            else:
                expected = ctx.reduced_form(rng)
                f = moved(kind, expected)
            F = QF(*f)
            yield Op(kind, f, lambda F=F: bqf.reduce_form(F), _reduce_check(f, expected))
        elif kind in ("equiv", "deep_equiv", "wide_equiv"):
            mode, expect = EQUIV_CASES[k % 4]
            f, g = moved_pair(kind, mode, expect)
            F, G = QF(*f), QF(*g)
            yield Op(kind, (f, g, mode), lambda F=F, G=G, mode=mode: bqf.equivalent(F, G, mode),
                     _equiv_check(f, g, mode, expect))
        elif kind == "words":
            case = WORD_CASES[k % 4]
            word = random_word(rng, rng.randint(8, 40), "RTUV")
            g = arith.word_product(word)
            if case == "element_to_word":
                E = GE(*g)
                yield Op(case, g, lambda E=E: bqf.element_to_word(E),
                         lambda w, g=g: arith.is_normal_word(w)
                         and arith.same_element(arith.word_product(w), g))
            elif case == "word_to_element":
                yield Op(case, (word,), lambda word=word: bqf.word_to_element(word),
                         lambda e, g=g: arith.same_element((e.r, e.s, e.t, e.u), g))
            elif case == "normalize_word":
                yield Op(case, (word,), lambda word=word: bqf.normalize_word(word),
                         lambda w, g=g: arith.is_normal_word(w)
                         and arith.same_element(arith.word_product(w), g))
            else:
                f = uniform_form(rng, 10**6)
                E, F = GE(*g), QF(*f)
                expected = arith.substitute(g, f)
                yield Op(case, (g, f), lambda E=E, F=F: bqf.act_on_form(E, F),
                         lambda h, e=expected: (h.a, h.b, h.c) == e)
        elif kind in ("roundtrip", "gcd_point"):
            if kind == "roundtrip":
                f = uniform_form(rng, 10**6)
            else:
                p = arith.certified_prime(rng, 24 + int(13 * draw["gcd"]()))
                f = (p, p, p + 1)
            F = QF(*f)
            yield Op(kind, f, lambda F=F: (z := bqf.base_point(F), bqf.form_from_point(z)),
                     _roundtrip_check(f))
        else:  # witness_point
            f0 = ctx.reduced_form(rng)
            m, f = cf_form(rng, f0, 24 + int(13 * draw["witness"]()), 1, 3)
            W, F = GE(*arith.adjugate(m)), QF(*f)
            expected = arith.form_point(f0)
            yield Op(kind, (m, f),
                     lambda W=W, F=F: bqf.act_on_point(bqf.base_point_transform(W), bqf.base_point(F)),
                     lambda z, e=expected: arith.triple_point(z.p, z.q, z.D) == e)


# --- discriminants -------------------------------------------------------------

DELTA_MIN, DELTA_MAX = 10**3, 4 * 10**6
ENUM_CASES = ("class_number", "enumerate_reduced", "enumerate_reduced_primitive",
              "enumerate_almost_reduced")
SMALL_PRIMES = tuple(arith.odd_primes_below(80)[:20])


def discriminants_ops(seed: int, ctx: Context, bqf):
    rng = random.Random(f"discriminants:{seed}")
    size, prime_bits = Stratified(rng, STEPS[0]), Stratified(rng, STEPS[1])
    seen_primes: set[int] = set()
    span = math.log(DELTA_MAX / DELTA_MIN)
    i = 0
    while True:
        case = ENUM_CASES[i % 4]
        primitive = case == "enumerate_reduced_primitive" or (
            case == "enumerate_almost_reduced" and (i // 4) % 2 == 1)
        m = int(DELTA_MIN * math.exp(span * size()))
        delta = admissible(min(m, DELTA_MAX - 3), (0, 3)[(i // 4) % 2])
        i += 1
        bits = 64 + int(64 * prime_bits())
        big = arith.certified_prime(rng, bits)
        while big in seen_primes:
            big = arith.certified_prime(rng, bits)
        seen_primes.add(big)
        p = rng.choice(ctx.odd_primes[1:])
        a_res = rng.randrange(1, p) ** 2 % p
        r, t = rng.randint(0, 300), rng.randint(0, 30)
        value = r * r + p * t * t + (rng.randint(1, 3) if i % 3 == 0 else 0)
        bound = rng.randint(max(r, t, 1), 1000)

        def call(delta=delta, case=case, primitive=primitive, big=big, p=p,
                 a_res=a_res, value=value, bound=bound):
            if case == "class_number":
                enum = bqf.class_number(delta)
            elif case == "enumerate_almost_reduced":
                enum = bqf.enumerate_almost_reduced(delta, primitive_only=primitive)
            else:
                enum = bqf.enumerate_reduced(delta, primitive_only=primitive)
            return (
                enum,
                [bqf.legendre(delta, q) for q in SMALL_PRIMES],
                bqf.legendre(delta, big),
                bqf.is_prime(big),
                bqf.quadratic_residues(p),
                bqf.residue_complement_law(p, a_res),
                bqf.scaled_representation_oracle(value, p, bound),
            )

        def check(res, delta=delta, case=case, primitive=primitive, big=big, p=p,
                  a_res=a_res, value=value, bound=bound):
            enum, small, leg_big, prime, residues, complement, rep = res
            reduced = ctx.scan.reduced(delta)
            if case == "class_number":
                ok = enum == sum(map(arith.is_primitive, reduced))
            else:
                almost = case == "enumerate_almost_reduced"
                forms = arith.almost_from_reduced(reduced) if almost else reduced
                if primitive:
                    forms = [f for f in forms if arith.is_primitive(f)]
                ok = [(f.a, f.b, f.c) for f in enum] == forms
            return (
                ok
                and small == [arith.jacobi(delta, q) for q in SMALL_PRIMES]
                and leg_big == arith.jacobi(delta, big)
                and prime is True
                and residues == {x * x % p for x in range(1, p)}
                and complement == (arith.jacobi(p - a_res, p) == 1) == (p % 4 == 1)
                and rep == _representation(value, p, bound)
            )

        yield Op(case, (delta, primitive, big, p, a_res, value, bound), call, check)


def _representation(value: int, p: int, bound: int):
    """First (r, t) by increasing t with r^2 + p t^2 = value, both <= bound."""
    for t in range(bound + 1):
        rest = value - p * t * t
        if rest < 0:
            return None
        r = math.isqrt(rest)
        if r * r == rest and r <= bound:
            return (r, t)
    return None


# --- queries -------------------------------------------------------------------

VERBS = ("reduce", "equiv", "class-number", "enumerate", "base-point", "point-form",
         "legendre", "orbit", "check-t32", "plot")
QUERIES_SCHEDULE = VERBS + (
    "malformed", "reduce", "equiv", "enumerate", "orbit", "check-t32", "act_on_element",
    "class-number", "legendre", "malformed",
)
# usage errors exit 2, domain errors exit 1
MALFORMED = (
    (["reduce", "1,2"], 2),
    (["reduce", "1,0,-1"], 1),
    (["equiv", "1,0,1", "1,1,x"], 2),
    (["equiv", "1,0,1", "1,0,1", "--mode", "loose"], 2),
    (["class-number", "-6"], 1),
    (["class-number", "7"], 1),
    (["enumerate", "-5"], 1),
    (["legendre", "3", "9"], 1),
    (["legendre", "3", "2"], 1),
    (["orbit", "1/4/5"], 2),
    (["orbit", "1/2/5", "--depth", "13"], 1),
    (["base-point", "1,5,1"], 1),
    (["point-form", "1,0,-3"], 2),
    (["check-t32", "1/2/5", "0/1/6"], 1),
    (["plot", "1,0,1", "--region", "square"], 2),
    (["frobnicate", "1"], 2),
)


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) in-process with stdout and stderr captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _form(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _element(text: str) -> tuple:
    top, bottom = text.split(";")
    return _form(top) + _form(bottom)


def cli_fields(verb: str, fmt: str, out: str) -> dict:
    """The JSON object of a reply; text replies are parsed into the same keys."""
    if fmt == "json":
        return json.loads(out)
    lines = out.splitlines()
    if verb in ("enumerate", "orbit"):
        key, total = lines[-1].split("=")
        return {"forms" if verb == "enumerate" else "elements": lines[:-1], key: int(total)}
    if verb == "class-number":
        return {"h": int(lines[0].removeprefix("h="))}
    if verb == "base-point":
        return {"point": lines[0]}
    if verb == "legendre":
        return {"legendre": int(lines[0])}
    data: dict = {}
    for line in lines:
        key, _, value = line.partition(": ")
        data[key.replace("-", "_")] = {"yes": True, "no": False}.get(value, value)
    for key in ("steps", "depth"):
        if key in data:
            data[key] = int(data[key])
    return data


def _witness_ok(data: dict, form, other, mode) -> bool:
    g = _element(data["witness"])
    return (
        arith.substitute(g, other) == tuple(form)
        and (mode == "extended" or arith.det(g) == 1)
        and arith.is_normal_word(data["word"])
        and arith.same_element(arith.word_product(data["word"]), g)
    )


def queries_ops(seed: int, ctx: Context, bqf):
    rng = random.Random(f"queries:{seed}")
    plot_size, depth_draw = Stratified(rng, STEPS[0]), Stratified(rng, STEPS[1])
    cli = bqf.cli
    i = 0
    while True:
        verb = QUERIES_SCHEDULE[i % len(QUERIES_SCHEDULE)]
        i += 1
        fmt = rng.choice(("text", "json"))
        if verb == "act_on_element":
            alpha = rng.choice(ctx.alphas)
            g = arith.word_product(random_word(rng, rng.randint(1, 6)))
            A, G = bqf.QuadFieldElement(*alpha), bqf.GroupElement(*g)
            expected = arith.move_irrational(g, alpha)
            yield Op(verb, (g, alpha), lambda G=G, A=A: bqf.act_on_element(G, A),
                     lambda e, x=expected: (e.a, e.c, e.n) == x)
            continue
        if verb == "malformed":
            argv, code = MALFORMED[rng.randrange(len(MALFORMED))]
            yield Op(verb, tuple(argv), lambda argv=argv: run_cli(cli, argv),
                     lambda res, code=code: res[0] == code)
            continue
        positional, options, expect = _query(verb, rng, ctx, plot_size, depth_draw)
        if verb != "plot" and fmt == "json":
            options = options + ["--format", "json"]
        # a leading '-' that is not a plain number would read as an option
        if any(x.startswith("-") and not x.lstrip("-").isdigit() for x in positional):
            options = options + ["--"]
        argv = [verb] + options + positional

        def check(res, verb=verb, fmt=fmt, expect=expect):
            code, out = res
            if code != 0:
                return False
            if verb == "plot":
                return out.count("<circle ") == expect
            return expect(cli_fields(verb, fmt, out))

        yield Op(verb, tuple(argv), lambda argv=argv: run_cli(cli, argv), check)


def _query(verb: str, rng, ctx: Context, plot_size, depth_draw):
    """Positional arguments and options of one well-formed query, and the
    check of its reply (the marker count for plot)."""
    if verb == "reduce":
        f = uniform_form(rng, 1000)
        expected = arith.reduce_triple(f)

        def expect(d):
            g = _element(d["witness"])
            return (
                _form(d["reduced"]) == expected
                and arith.substitute(g, f) == expected
                and arith.same_element(arith.word_product(d["word"]), g)
                and d["steps"] >= 0
            )
        return [_text(f)], [], expect
    if verb == "equiv":
        mode = rng.choice(("proper", "extended"))
        if rng.random() < 0.5:
            f = uniform_form(rng, 1000)
            word = ("R" if mode == "extended" else "") + random_word(rng, rng.randint(2, 6))
            g = arith.substitute(arith.word_product(word), f)
            expect = lambda d: d["equivalent"] is True and _witness_ok(d, f, g, mode)  # noqa: E731
        else:
            f, g = ctx.inequivalent_pair(rng, mode)
            expect = lambda d: d["equivalent"] is False  # noqa: E731
        return [_text(f), _text(g)], ["--mode", mode], expect
    if verb in ("class-number", "enumerate"):
        delta = rng.choice(ctx.deltas)
        forms = ctx.pool[delta]
        if verb == "class-number":
            h = sum(map(arith.is_primitive, forms))
            return [str(delta)], [], lambda d: d["h"] == h
        almost, primitive = rng.random() < 0.5, rng.random() < 0.5
        if almost:
            forms = arith.almost_from_reduced(forms)
        if primitive:
            forms = [f for f in forms if arith.is_primitive(f)]
        names = [_text(f) for f in forms]
        flags = ["--almost"] * almost + ["--primitive"] * primitive
        return [str(delta)], flags, lambda d: d["forms"] == names and d["h"] == len(names)
    if verb == "base-point":
        f = uniform_form(rng, 1000)
        point = arith.form_point(f)
        return [_text(f)], [], lambda d: arith.triple_point(*_form(d["point"])) == point
    if verb == "point-form":
        f = uniform_form(rng, 1000)
        k = rng.randint(1, 5)
        prim = arith.primitive_part(f)
        triple = (k * f[1], 2 * k * f[0], k * k * arith.disc(f))
        return [_text(triple)], [], lambda d: (
            _form(d["form"]) == prim and Fraction(d["scale"]) == Fraction(1, prim[2]))
    if verb == "legendre":
        value, p = rng.randint(-10**6, 10**6), rng.choice(ctx.odd_primes)
        return [str(value), str(p)], [], lambda d: d["legendre"] == arith.jacobi(value, p)
    depth = 4 + int(9 * depth_draw())
    alpha = rng.choice(ctx.alphas)
    dist = ctx.orbits[alpha]
    if verb == "orbit":
        names = sorted(_irr(e) for e, dd in dist.items() if dd <= depth)
        return [_irr(alpha)], ["--depth", str(depth)], lambda d: (
            sorted(d["elements"]) == names and d["count"] == len(names))
    if verb == "check-t32":
        if rng.random() < 0.5:
            beta = rng.choice(sorted(dist))
        else:
            beta = irrational(rng, rng.randint(-6, 6), alpha[2])
        fa, fb = arith.irrational_form(alpha), arith.irrational_form(beta)
        equivalent = arith.reduce_triple(fa) == arith.reduce_triple(fb)
        reachable = dist.get(beta, depth + 1) <= depth
        expected = {
            "alpha_form": _text(fa), "beta_form": _text(fb), "forms_equivalent": equivalent,
            "reachable": reachable, "depth": depth, "consistent": not reachable or equivalent,
        }
        return [_irr(alpha), _irr(beta)], ["--depth", str(depth)], lambda d: d == expected
    # plot: 10 to 1000 markers, uniform, forms or points, both regions; the
    # large plots set the p99, and a flat density there keeps it steady
    count = 10 + int(991 * plot_size())
    region = rng.choice(("pi", "pibar"))
    forms = [uniform_form(rng, 1000) for _ in range(count)]
    if rng.random() < 0.5:
        items = [_text((f[1], 2 * f[0], arith.disc(f))) for f in forms]
        return items, ["--region", region, "--points"], count
    return [_text(f) for f in forms], ["--region", region], count


def _text(triple) -> str:
    return ",".join(map(str, triple))


def _irr(element) -> str:
    return "/".join(map(str, element))


OPS = {"forms": forms_ops, "discriminants": discriminants_ops, "queries": queries_ops}
