"""Command line behaviour, frozen against known-good output."""

import hashlib
import io
import json
import math
import random
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf import base_point, cli, residues
from bqf.cli import main, render_region_svg
from bqf.forms import QuadraticForm
from bqf.points import AlgebraicPoint
from bqf.qfield import QuadFieldElement, orbit_explore

from helpers import README, Overtime, python, random_positive_definite, within


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# README examples that write a file, not stdout; every other `$ bqf` example is a golden
README_FILE_WRITERS = [
    "plot 1,0,1 --region pi > unit.svg",
    "plot 1,1,6 2,-1,3 2,1,3 --region pibar --out delta-23.svg",
]


def readme_examples():
    """(command, stdout) of each `$ bqf` line in README.md's sh blocks, the stdout being
    the lines after it up to the next `$` line or the end of the block."""
    text = README.read_text(encoding="utf-8")
    return [
        example
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        for example in re.findall(r"^\$ bqf (.*)\n((?:(?!\$ ).*\n)*)", block, re.M)
    ]


README_GOLDENS = [
    (shlex.split(command), out)
    for command, out in readme_examples()
    if command not in README_FILE_WRITERS
]
# (argv, exact stdout) pairs the README does not show.  Regenerate only after
# deliberate output changes.
GOLDENS = [
    (
        ["reduce", "11,49,55", "--format", "json"],
        '{"reduced": "1,1,5", "steps": 3, "witness": "-3,-7;1,2", "word": "VTVTVTUTU"}\n',
    ),
    (["class-number", "-163", "--format", "json"], '{"h": 1}\n'),
    (["enumerate", "-20", "--format", "json"], '{"forms": ["1,0,5", "2,2,3"], "h": 2}\n'),
    (["base-point", "11,49,55", "--format", "json"], '{"point": "49,22,-19"}\n'),
    (["point-form", "0,1,-1", "--format", "json"], '{"form": "1,0,1", "scale": "1"}\n'),
    (["legendre", "-1", "37", "--format", "json"], '{"legendre": 1}\n'),
    (
        ["orbit", "1/2/5", "--depth", "2", "--format", "json"],
        '{"count": 8, "elements": ["-4/3/5", "-3/7/5", "-2/3/5", "-1/2/5",'
        ' "-1/3/5", "1/2/5", "3/2/5", "4/7/5"]}\n',
    ),
    (
        ["check-t32", "0/1/5", "1/2/5", "--depth", "6", "--format", "json"],
        '{"alpha_form": "1,0,5", "beta_form": "2,-2,3", "consistent": true,'
        ' "depth": 6, "forms_equivalent": false, "reachable": false}\n',
    ),
]
ALL_GOLDENS = README_GOLDENS + GOLDENS


def test_readme_examples_are_goldens():
    # each README example is a golden but the named file writers, and none is
    # written again in GOLDENS
    commands = [command for command, _ in readme_examples()]
    assert set(README_FILE_WRITERS) <= set(commands)
    assert len(README_GOLDENS) == len(commands) - len(README_FILE_WRITERS) >= 21
    assert not {shlex.join(argv) for argv, _ in GOLDENS} & set(commands)


def test_goldens_exact():
    for argv, want in ALL_GOLDENS:
        code, out, err = run(argv)
        assert code == 0, (argv, err)
        assert err == ""
        assert out == want, argv


def test_goldens_deterministic():
    for argv, _ in ALL_GOLDENS:
        first = run(argv)
        second = run(argv)
        assert first == second, argv


def test_json_goldens_parse():
    for argv, want in ALL_GOLDENS:
        if "json" not in argv:
            continue
        assert json.loads(want) == json.loads(run(argv)[1])


def test_text_json_agree_on_reduce():
    _, text, _ = run(["reduce", "11,49,55"])
    _, blob, _ = run(["reduce", "11,49,55", "--format", "json"])
    data = json.loads(blob)
    fields = dict(line.split(": ") for line in text.strip().split("\n"))
    assert fields["reduced"] == data["reduced"]
    assert fields["witness"] == data["witness"]
    assert fields["word"] == data["word"]
    assert int(fields["steps"]) == data["steps"]


def test_words_past_the_bound_are_counted():
    # reduce and equiv answer in full but for the word, which they count, not write
    wide = "1,2000000000000,1000000000000000000000001"  # translation by 10^12
    text = "equivalent: yes\nwitness: 1,%s;0,1\nword-letters: 2000000000000\n"
    cases = [
        (["reduce", wide], "reduced: 1,0,1\nword-letters: 2000000000000\n"
         "witness: 1,1000000000000;0,1\nsteps: 1\n"),
        (["equiv", wide, "1,0,1"], text % -(10**12)),
        (["equiv", "1,0,1", wide], text % 10**12),
        (["reduce", "1,200000000,10000000000000001"], "reduced: 1,0,1\nword-letters: 200000000\n"
         "witness: 1,100000000;0,1\nsteps: 1\n"),
        (["reduce", wide, "--format", "json"], '{"reduced": "1,0,1", "steps": 1, "witness": '
         '"1,1000000000000;0,1", "word": null, "word_letters": 2000000000000}\n'),
        (["equiv", "1,0,1", wide, "--format", "json"], '{"equivalent": true, "witness": '
         '"1,1000000000000;0,1", "word": null, "word_letters": 2000000000000}\n'),
    ]
    for argv, want in cases:
        assert run(argv) == (0, want, ""), argv


def test_domain_errors_exit_one():
    cases = [
        (["reduce", "1,3,1"], "error: only positive definite forms can be reduced\n"),
        (["equiv", "1,3,1", "1,0,1"], "error: only positive definite forms can be reduced\n"),
        (
            ["equiv", "1,0,1", "1,3,1", "--mode", "extended"],
            "error: only positive definite forms can be reduced\n",
        ),
        (
            ["class-number", "-6"],
            "error: invalid discriminant -6: need delta < 0 and delta = 0 or 1 (mod 4)\n",
        ),
        (
            ["class-number", "-400000000000003"],
            "error: |delta| = 400000000000003 exceeds the enumeration bound 10^10\n",
        ),
        (["orbit", "1/2/5", "--depth", "99"], "error: depth 99 exceeds the configured maximum 12\n"),
        (["legendre", "1", "9"], "error: 9 is not an odd prime\n"),
        (
            ["check-t32", "0/1/5", "0/1/1", "--depth", "2"],
            "error: elements lie over different n\n",
        ),
        (["plot", "1,3,1"], "error: base point defined only for positive definite forms\n"),
        (["plot", "1,0,1", "1_1,4_9,55"], "error: expected 'a,b,c', got '1_1,4_9,55'\n"),
        # joined, these items read 1,0,1,1,2,3,4,5,6: three definite forms; the first bad
        # item is named, not the last
        (["plot", "1,0,1", "1,2", "3,4,5,6"], "error: expected 'a,b,c', got '1,2'\n"),
        (["plot", "1,3,1", "x,1,1"], "error: base point defined only for positive definite forms\n"),
        (["plot", "--points", "0,1,-\u0661"], "error: expected 'p,q,D', got '0,1,-\u0661'\n"),
        (
            ["plot", "--points", "1,1,-1" + "0" * 400],
            "error: point 1,1,-1" + "0" * 400 + " does not fit in a float\n",
        ),
        (  # Re = 10^307 fits in a float, but its screen x does not
            ["plot", "--points", "1" + "0" * 307 + ",1,-1"],
            "error: point 1" + "0" * 307 + ",1,-1 does not fit in a float\n",
        ),
        (  # Re = 10^400 overflows first, but Re = 1 comes first in exact order
            ["plot", "--points", "1" + "0" * 400 + ",1,-1", "1,1,-1" + "0" * 400],
            "error: point 1,1,-1" + "0" * 400 + " does not fit in a float\n",
        ),
    ]
    for argv, want in cases:
        code, out, err = run(argv)
        assert code == 1, argv
        assert out == ""
        assert err == want, argv


# positionals per verb: "i" an int, "f" a form a,b,c, "p" a point p,q,D,
# "e" an element a/c/n; each drawn valid or as three arbitrary ints
SHAPES = {"reduce": "f", "equiv": "ff", "class-number": "i", "enumerate": "i",
          "base-point": "f", "point-form": "p", "legendre": "ii", "orbit": "e",
          "check-t32": "ee", "plot": "fff"}
# every option but --out, which would write files; for the same reason no
# drawn text contains "o", so nothing abbreviates it either
FLAGS = (["--format", "json"], ["--format", "text"], ["--mode", "extended"], ["--almost"],
         ["--primitive"], ["--points"], ["--region", "pibar"], ["-h"])
TEXT = "0123456789-+,/ ._ejx\u0661\u00b2"
FUZZ_SECONDS = 5  # the slowest verb at its documented bound takes about 1 s


nums = st.one_of(
    st.integers(-100, 100), st.integers(-(10**12), 10**12), st.integers(-(10**400), 10**400)
)
ints = nums.map(str)
positive = st.integers(1, 100) | st.integers(1, 10**400)
triples = st.lists(ints, min_size=3, max_size=3)


def _definite(a, c, t):
    r = math.isqrt(a * c)  # |b| <= r keeps b^2 < 4ac
    return f"{a},{t % (2 * r + 1) - r},{c}"


PARTS = {
    "i": ints,
    "f": triples.map(",".join) | st.builds(_definite, positive, positive, positive),
    "p": triples.map(",".join) | st.builds("{},{},-{}".format, nums, positive, positive),
    "e": triples.map("/".join)
    | st.builds(lambda a, c, m: f"{a}/{c}/{c * m - a * a % c}", nums, positive, positive),
}
flags = st.just([]) | st.lists(
    st.sampled_from(FLAGS) | ints.map(lambda d: ["--depth", d]), max_size=2
)
shaped = st.sampled_from(tuple(SHAPES)).flatmap(
    lambda verb: st.tuples(st.tuples(*(PARTS[k] for k in SHAPES[verb])), flags).map(
        lambda drawn: [verb, *drawn[0], *sum(drawn[1], [])]
    )
)
noise = st.one_of(*PARTS.values(), st.sampled_from(sum(FLAGS, [])), st.text(TEXT, max_size=12))
unshaped = st.tuples(
    st.sampled_from(tuple(SHAPES)) | st.text(TEXT, max_size=8), st.lists(noise, max_size=4)
)


@settings(deadline=None, max_examples=300)
@given(shaped | unshaped.map(lambda drawn: [drawn[0], *drawn[1]]))
def test_cli_exit_contract(argv):
    # 0, 1 or 2 on every input, never a traceback, and within the time bound
    code, _, _ = within(FUZZ_SECONDS, lambda: run(argv))
    assert code in (0, 1, 2)


def test_the_fuzz_draws_every_verb_and_option():
    # a verb or an option that SHAPES or FLAGS misses would escape the fuzz above
    verbs = cli.build_parser().verbs
    assert set(SHAPES) == set(verbs)
    options = {name for p in verbs.values() for name in p._option_string_actions}
    assert {flag[0] for flag in FLAGS} | {"--depth"} == options - {"--help", "--out"}


def test_the_time_bound_passes_through_main():
    # main turns a ValueError or OSError into exit 1; the alarm's Overtime is neither, so a
    # slow call fails the fuzz above, where a TimeoutError would pass as a domain error.
    # The slow call proves a 4096-bit prime (~0.5 s), which no cache answers once cleared:
    # C-level int arithmetic allocates little, so the alarm does not land in a gc callback
    residues.is_prime.cache_clear()
    with pytest.raises(Overtime):
        within(0.05, lambda: run(["legendre", "3", str(2**4095 + 579)]))


def full_parse(argv):
    """(code, stdout, stderr) of a fresh full parser that exits on argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} parsed without exiting")


def test_usage_errors_exit_two():
    # main parses argv with the verb's own parser alone; what it writes on a
    # usage error must still be exactly what the full parser writes
    for argv in (
        ["reduce", "1,2"],
        ["point-form", "1,2,5"],
        ["nonsense"],
        ["equiv", "1,0,1"],
        [],
        ["reduce", "1,0,1", "extra"],
        ["plot", "--bogus", "1,0,1"],
        ["--format", "json"],
    ):
        code, out, err = run(argv)
        assert code == 2, argv
        assert "usage:" in err
        assert (code, out, err) == full_parse(argv), argv
    code, out, err = run(["reduce", "-h"])
    assert (code, err) == (0, "") and out.startswith("usage: bqf reduce")
    assert (code, out, err) == full_parse(["reduce", "-h"])


def test_malformed_value_names_its_format():
    # argparse would name the type callable, "invalid parse value"; the message
    # names the value's format instead, still as the full parser's usage error
    for argv, message in (
        (["reduce", "abc"], "argument form: expected 'a,b,c', got 'abc'"),
        (["point-form", "1,2"], "argument point: expected 'p,q,D', got '1,2'"),
        (["orbit", "1/2"], "argument element: expected 'a/c/n', got '1/2'"),
        # an int part that does not parse is the format's error too, not int()'s
        (["equiv", "1,0,1", "1,1,x"], "argument other: expected 'a,b,c', got '1,1,x'"),
        (["point-form", "1,1,x"], "argument point: expected 'p,q,D', got '1,1,x'"),
        (["orbit", "1/1/x"], "argument element: expected 'a/c/n', got '1/1/x'"),
        (["reduce", "1_1,4_9,55"], "argument form: expected 'a,b,c', got '1_1,4_9,55'"),
        (["reduce", "\u0661,1,5"], "argument form: expected 'a,b,c', got '\u0661,1,5'"),
        # a value that parses keeps its own domain error
        (["point-form", "1,0,-3"], "argument point: denominator q must be positive"),
    ):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"bqf {argv[0]}: error: {message}\n"), err
        assert (code, out, err) == full_parse(argv), argv


def test_second_double_dash_is_a_usage_error():
    # argparse up to 3.13.0 drops the second "--" and hands the next positional
    # an unconverted []; main must report that as a usage error, not a traceback
    for argv in (
        ["check-t32", "--", "1/2/5", "--"],
        ["equiv", "--", "1,0,1", "--"],
        ["legendre", "--", "1", "--"],
    ):
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == ""
        assert "usage:" in err and "Traceback" not in err, argv
        assert err.endswith(f"bqf {argv[0]}: error: '--' may be given only once\n"), argv


def test_second_double_dash_among_plot_items_is_a_usage_error():
    # a "*" positional keeps the second "--" as an item; that is a usage error too
    for argv in (["plot", "--", "1,0,1", "--"], ["plot", "--points", "--", "1,2,-5", "--"]):
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == ""
        assert "usage:" in err and "Traceback" not in err, argv
        assert err.endswith(f"bqf {argv[0]}: error: '--' may be given only once\n"), argv


def test_orbit_prints_the_sorted_orbit_explore_elements():
    # bqf orbit prints the walk's int triples, no element per member; both formats must
    # render orbit_explore's validated elements sorted by (a, c) through str, also at the
    # stabilized points i = 0/1/1 and rho = -1/2/3, where two words meet
    alphas = [QuadFieldElement(*t) for t in [(0, 1, 1), (-1, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 5),
                                             (-7, 4, 15), (-1375, 37, 999963)]]
    for alpha in alphas:
        for depth in (0, 1, 5, 12):
            names = [str(e) for e in sorted(orbit_explore(alpha, depth), key=lambda e: (e.a, e.c))]
            argv = ["--depth", str(depth), "--", str(alpha)]
            text = "".join(f"{name}\n" for name in names) + f"count={len(names)}\n"
            assert run(["orbit", *argv]) == (0, text, "")
            json_out = json.dumps({"count": len(names), "elements": names}, sort_keys=True) + "\n"
            assert run(["orbit", "--format", "json", *argv]) == (0, json_out, "")


def test_values_may_start_with_minus():
    # a value such as -1,2,-5 is not read as an unknown option, so it needs no --
    assert run(["orbit", "-1/2/5", "--depth", "2"]) == run(["orbit", "--depth", "2", "--", "-1/2/5"])
    assert run(["plot", "--points", "-1,2,-3"]) == run(["plot", "--points", "--", "-1,2,-3"])
    assert run(["check-t32", "1/2/5", "-1/2/5"])[0] == 0


def test_parser_is_built_once_and_reused(monkeypatch):
    # main keeps one parser; calls after other verbs and after a usage
    # error must behave exactly as on a parser built fresh for each call
    argvs = [
        ["reduce", "11,49,55"],
        ["enumerate", "-20", "--primitive", "--format", "json"],
        ["equiv", "1,0,1"],
        ["orbit", "1/2/5", "--depth", "2"],
    ]
    reused = [run(argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cli.build_parser() is not cli.build_parser()
    fresh = [run(argv) for argv in argvs]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]


def test_plot_svg_structure():
    code, out, err = run(["plot", "1,0,1", "--region", "pi"])
    assert code == 0 and err == ""
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480"')
    assert out.endswith("</svg>\n")
    assert '<circle cx="320.000000" cy="280.000000" r="4"/>' in out
    # pi walls sit at re = -1/2 and re = 1/2
    assert 'x1="220.000000"' in out and 'x1="420.000000"' in out


def test_plot_pibar_markers():
    code, out, _ = run(["plot", "1,1,6", "2,-1,3", "2,1,3", "--region", "pibar"])
    assert code == 0
    # pibar left wall is the imaginary axis
    assert '<line x1="320.000000" y1="280.000000" x2="320.000000" y2="0.000000"/>' in out
    assert out.count("<circle") == 3
    body = out[out.index('<g fill="#335577">') :]
    circles = [line for line in body.split("\n") if line.startswith("<circle")]
    assert circles == [
        '<circle cx="270.000000" cy="240.208424" r="4"/>',
        '<circle cx="370.000000" cy="240.208424" r="4"/>',
        '<circle cx="420.000000" cy="0.416848" r="4"/>',
    ]


def test_plot_points_flag_matches_form_base_points():
    _, via_form, _ = run(["plot", "1,0,1", "2,2,3", "--region", "pi"])
    _, via_point, _ = run(["plot", "--points", "0,1,-1", "1,2,-5", "--region", "pi"])
    assert via_form == via_point


def test_plot_out_writes_file(tmp_path):
    target = tmp_path / "region.svg"
    code, out, err = run(["plot", "1,0,1", "--out", str(target)])
    assert (code, out, err) == (0, "", "")
    _, want, _ = run(["plot", "1,0,1"])
    assert target.read_text(encoding="utf-8") == want


def test_plot_out_unwritable_exits_one(tmp_path):
    code, out, err = run(["plot", "1,0,1", "--out", str(tmp_path / "no" / "dir.svg")])
    assert code == 1
    assert err.startswith("error: ")


def fraction_order_svg(points, region):
    """The plot as rendered by sorting on the exact Fraction key alone."""
    head = render_region_svg([], region).removesuffix("</g>\n</svg>\n")
    circles = []
    for z in sorted(points, key=lambda w: (w.re(), w.abs_sq())):
        try:
            cx, cy = cli._screen([(z.p / z.q, math.sqrt(-z.D) / z.q)])
        except OverflowError:
            cx = math.inf
        if math.isinf(cx):  # Re, Im or the screen x past the float range
            return f"point {z} does not fit in a float"
        circles.append(f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="4"/>\n')
    return head + "".join(circles) + "</g>\n</svg>\n"


def per_item_plot(items, points, region):
    """(exit code, stdout, stderr) of bqf plot with each item parsed on its own."""
    try:
        if points:
            markers = [AlgebraicPoint.parse(item) for item in items]
        else:
            markers = [base_point(QuadraticForm.parse(item)) for item in items]
        return 0, render_region_svg(markers, region), ""
    except ValueError as exc:
        return 1, "", f"error: {exc}\n"


# runs of items that a plot refuses, or that only a per-item parse reads right; each pair
# joins to two valid triples, and "1,0,10000…" is past CPython's default 4300 digits
PLOT_ODD_ITEMS = [
    ["1,2", "3,4,5,6"], ["1,2", "-3,4,5,-6"], ["1,2,3,4", "5,6"], [""], ["1,,3"], ["1,2,"],
    ["1_1,4_9,55"], ["1,\t1,5"], ["0,1,-\u0661"], ["1,0,1\n"], ["1,3,1"], ["1,0,-1"],
    ["1,-2,-3"], ["1,1,0"], ["1,2,3"], [" +1, 0 ,01"], ["1,0,1" + "0" * 4999],
]


@st.composite
def plot_items(draw):
    points = draw(st.booleans())
    valid = (st.builds("{},{},-{}".format, nums, positive, positive) if points
             else st.builds(_definite, positive, positive, positive))
    items = draw(st.lists(valid, max_size=6))
    for odd in draw(st.lists(st.sampled_from(PLOT_ODD_ITEMS), max_size=2)):
        at = draw(st.integers(0, len(items)))
        items[at:at] = odd
    return points, items


@settings(deadline=None, max_examples=150)
@given(plot_items(), st.sampled_from(("pi", "pibar")))
def test_plot_parses_as_each_item_alone(drawn, region):
    # exit code, stdout and stderr of the one-pass parse are those of the per-item parse
    points, items = drawn
    argv = ["plot", *["--points"] * points, "--region", region, "--", *items]
    assert run(argv) == per_item_plot(items, points, region)


@st.composite
def plot_points(draw):
    q = 2**60 + draw(st.integers(0, 2**20))
    kinds = st.one_of(
        st.builds(
            AlgebraicPoint, st.integers(-60, 60), st.integers(1, 30), st.integers(-500, -1)
        ),
        # p/q and (p + 1)/q round to one float near 1/3
        st.builds(
            lambda j, d: AlgebraicPoint(q // 3 + j, q, -d),
            st.integers(0, 3),
            st.integers(1, 10**40),
        ),
        # Re past the float range, either sign
        st.builds(
            lambda s, k, d: AlgebraicPoint(s * 10**400 + k, 1, -d),
            st.sampled_from((-1, 1)),
            st.integers(-2, 2),
            st.integers(1, 5),
        ),
        # Im past the float range
        st.builds(lambda p: AlgebraicPoint(p, 1, -(10**400)), st.integers(-2, 2)),
        # Re within the float range, screen x past it
        st.builds(
            lambda s, k: AlgebraicPoint(s * 10**307 + k, 1, -1),
            st.sampled_from((-1, 1)),
            st.integers(-2, 2),
        ),
    )
    points = draw(st.lists(kinds, max_size=25))
    if points:
        same_re = st.builds(
            lambda z, k: AlgebraicPoint(z.p, z.q, z.D * k),
            st.sampled_from(points),
            st.integers(2, 7),
        )
        points += draw(st.lists(st.sampled_from(points) | same_re, max_size=15))
    return draw(st.permutations(points))


@settings(deadline=None)
@given(plot_points(), st.sampled_from(("pi", "pibar")))
def test_plot_order_is_the_fraction_order(points, region):
    try:
        got = render_region_svg(points, region)
    except ValueError as exc:
        got = str(exc)
    assert got == fraction_order_svg(points, region)


def test_large_plots_are_the_fraction_order():
    # plot_points draws at most 40 points; plots of 10^3 set the tail, so check that size
    rng = random.Random(0x5F6)
    forms = [random_positive_definite(rng, 1000) for _ in range(1000)]
    q = 2**60 + 12345  # p/q, (p + 1)/q, (p + 2)/q round to one float near 1/3
    ties = [AlgebraicPoint(q // 3 + rng.randrange(3), q, -rng.randint(1, 10**30))
            for _ in range(500)]
    ties += [AlgebraicPoint(rng.randint(-3, 3), rng.randint(1, 4), -rng.randint(1, 50))
             for _ in range(500)]  # equal Re, as floats and exactly
    # an Im past the float range before a +inf Re in marker order, and -inf Re before both
    far = [AlgebraicPoint(10**400, 1, -1), AlgebraicPoint(1, 1, -(10**400))]
    left = AlgebraicPoint(-(10**400), 1, -1)
    errors = []
    for points in ([base_point(f) for f in forms], ties, ties + far[:1], ties + far,
                   ties + far + [left]):
        rng.shuffle(points)
        for region in ("pi", "pibar"):
            try:
                got = render_region_svg(points, region)
            except ValueError as exc:
                got = str(exc)
                errors.append(got)
            assert got == fraction_order_svg(points, region)
    assert errors == [f"point {z} does not fit in a float" for z in [far[0]] * 2 + [far[1]] * 2
                      + [left] * 2]


def plot_forms(rng):
    """500 forms with coefficients <= 1000 and 500 tall ones, Im up to ~10^9: there a
    marker's screen y is ~10^11, so one ulp shows in its six decimals."""
    forms = [random_positive_definite(rng, 1000) for _ in range(500)]
    for a in (rng.randint(1, 50) for _ in range(500)):
        forms.append(QuadraticForm(a, rng.randint(-a, a), rng.randint(10**12, 10**18)))
    rng.shuffle(forms)
    return forms


def test_plot_of_odd_multiples_is_byte_identical():
    # k*f, and the point spelling k*(b, 2a, b^2 - 4ac) of its base point, carry an odd
    # factor that normalization strips; unstripped, sqrt(-D)/q can round another way
    rng = random.Random(0x5F7)
    forms = plot_forms(rng)
    ks = [rng.choice((3, 5, 9, 15)) for _ in forms]
    scaled = [f"{k * a},{k * b},{k * c}" for k, (a, b, c) in zip(ks, forms)]
    spelled = [f"{k * f.b},{2 * k * f.a},{k * k * f.discriminant()}" for k, f in zip(ks, forms)]
    for region in ("pi", "pibar"):
        want = run(["plot", "--region", region, *map(str, forms)])
        assert want[0] == 0 and want[1].count("<circle") == 1000
        assert run(["plot", "--region", region, *scaled]) == want
        assert run(["plot", "--points", "--region", region, "--", *spelled]) == want


@pytest.mark.parametrize("points", [False, True], ids=["forms", "points"])
def test_one_bad_item_among_many_is_named_as_alone(points):
    # 1,0,-1 is indefinite as a form and has q = 0 as a point
    rng = random.Random(0x5F8 + points)
    items = [str(base_point(f)) if points else str(f) for f in plot_forms(rng)[:999]]
    for at in (0, 500, 999):
        bad = items[:at] + ["1,0,-1"] + items[at:]
        got = run(["plot", *["--points"] * points, "--", *bad])
        assert got[0] == 1 and got == per_item_plot(bad, points, "pi")


def test_render_takes_stored_triples():
    rng = random.Random(0x5F9)
    q = 2**60 + 12345
    ties = [AlgebraicPoint(q // 3 + rng.randrange(3), q, -rng.randint(1, 10**30))
            for _ in range(200)]
    far = [AlgebraicPoint(10**400, 1, -1), AlgebraicPoint(1, 1, -(10**400))]
    for pts in ([base_point(f) for f in plot_forms(rng)], ties, ties + far):
        for region in ("pi", "pibar"):
            try:
                want = render_region_svg(pts, region)
            except ValueError as exc:
                want = str(exc)
            try:
                got = render_region_svg(list(map(tuple, pts)), region)
            except ValueError as exc:
                got = str(exc)
            assert got == want


FRAME_SHA256 = {
    "pi": "8b3b982f6649e787a4b0898f1b2364285f7b2f6b0a59ba86d132e31ca72582e8",
    "pibar": "b587c48321468a2cee01309a24c7ebfc0860e1c1a9238ef9fd87630ea594e166",
}


@pytest.mark.parametrize("region", sorted(FRAME_SHA256))
def test_region_frame_is_pinned(region):
    # the header, both walls and the 65-point arc, byte for byte
    frame = render_region_svg([], region).encode()
    assert (len(frame), hashlib.sha256(frame).hexdigest()) == (1934, FRAME_SHA256[region])


def test_render_rejects_unknown_region():
    with pytest.raises(ValueError, match=r"^region must be 'pi' or 'pibar', got 'disc'$"):
        render_region_svg([], "disc")


def test_render_rejects_too_many_points():
    points = [AlgebraicPoint(p, 1, -1) for p in range(10_001)]
    with pytest.raises(ValueError, match=r"^too many points to plot \(limit 10000\)$"):
        render_region_svg(points, "pi")
    # exactly at the limit is fine
    assert render_region_svg(points[:10_000], "pi").count("<circle") == 10_000


def test_plot_item_limit_comes_before_a_malformed_item():
    # the plot's own count check, not render_region_svg's after the parse, names the limit
    code, out, err = run(["plot", *["1,0,1"] * 10_000, "x"])
    assert (code, out, err) == (1, "", "error: too many points to plot (limit 10000)\n")


def test_module_entry_point():
    stdout = "reduced: 1,1,5\nword: VTVTVTUTU\nwitness: -3,-7;1,2\nsteps: 3\n"
    assert python("-m", "bqf", "reduce", "11,49,55") == (0, stdout, "")


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (  # 5001 digits, past CPython's default int/str limit of 4300
            ["reduce", "1,1,1" + "0" * 5000],
            "reduced: 1,1,1" + "0" * 5000 + "\nword: \nwitness: 1,0;0,1\nsteps: 0\n",
        ),
        (  # p = 10^3000 + 7: the form 1,2p,p^2 + 1 and its scale have 6001-digit ints
            ["point-form", "1" + "0" * 2999 + "7,1,-1"],
            "form: 1,2" + "0" * 2998 + "14,1" + "0" * 2998 + "14" + "0" * 2998 + "50\n"
            "scale: 1/1" + "0" * 2998 + "14" + "0" * 2998 + "50\n",
        ),
    ],
    ids=["reduce", "point-form"],
)
def test_bqf_process_has_no_digit_limit(argv, stdout):
    # a bqf process lifts CPython's digit limit; argv's own length cap bounds every int
    assert python("-m", "bqf", *argv) == (0, stdout, "")


def test_point_form_past_the_prime_bound_is_fast():
    # F = 2^16384 + 1 has no prime factor below 2^16, so the cofactor F^2 of the point
    # F,F,-1 is above MAX_PRIME_BITS: no primality test, and one gcd skips trial division
    code, digits, err = python("-X", "int_max_str_digits=0", "-c",
                               "f = 2**16384 + 1; print(f, f * f, 2 * f * f, f * f + 1)")
    assert code == 0, err
    f, a, b, c = digits.split()
    stdout = f"form: {a},{b},{c}\nscale: 1/{c}\n"
    assert python("-m", "bqf", "point-form", f"{f},{f},-1", seconds=20.0) == (0, stdout, "")
