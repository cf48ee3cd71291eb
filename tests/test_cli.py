"""Command line behaviour, frozen against known-good output."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from bqf import cli
from bqf.cli import main, render_region_svg
from bqf.points import AlgebraicPoint


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# (argv, exact stdout) pairs.  Regenerate only after deliberate output changes.
GOLDENS = [
    (["reduce", "11,49,55"], "reduced: 1,1,5\nword: VTVTVTUTU\nwitness: -3,-7;1,2\nsteps: 3\n"),
    (
        ["reduce", "11,49,55", "--format", "json"],
        '{"reduced": "1,1,5", "steps": 3, "witness": "-3,-7;1,2", "word": "VTVTVTUTU"}\n',
    ),
    (["reduce", "1,1,1"], "reduced: 1,1,1\nword: \nwitness: 1,0;0,1\nsteps: 0\n"),
    (["equiv", "2,1,3", "2,-1,3"], "equivalent: no\n"),
    (
        ["equiv", "2,1,3", "2,-1,3", "--mode", "extended"],
        "equivalent: yes\nwitness: -1,0;0,1\nword: R\n",
    ),
    (["equiv", "1,0,5", "2,2,3"], "equivalent: no\n"),
    (
        ["equiv", "11,49,55", "1,1,5", "--format", "json"],
        '{"equivalent": true, "witness": "-2,-7;1,3", "word": "VTVTUTUTU"}\n',
    ),
    (["class-number", "-23"], "h=3\n"),
    (["class-number", "-163", "--format", "json"], '{"h": 1}\n'),
    (["enumerate", "-23"], "1,1,6\n2,-1,3\n2,1,3\nh=3\n"),
    (["enumerate", "-23", "--almost"], "1,-1,6\n1,1,6\n2,-1,3\n2,1,3\nh=4\n"),
    (["enumerate", "-20", "--primitive"], "1,0,5\n2,2,3\nh=2\n"),
    (["enumerate", "-20", "--format", "json"], '{"forms": ["1,0,5", "2,2,3"], "h": 2}\n'),
    (["base-point", "2,2,3"], "1,2,-5\n"),
    (["base-point", "11,49,55", "--format", "json"], '{"point": "49,22,-19"}\n'),
    (["point-form", "1,2,-5"], "form: 2,2,3\nscale: 1/3\n"),
    (["point-form", "0,1,-1"], "form: 1,0,1\nscale: 1\n"),
    (["point-form", "0,1,-1", "--format", "json"], '{"form": "1,0,1", "scale": "1"}\n'),
    (["legendre", "-1", "37"], "1\n"),
    (["legendre", "-1", "79"], "-1\n"),
    (["legendre", "-1", "37", "--format", "json"], '{"legendre": 1}\n'),
    (
        ["orbit", "1/2/5", "--depth", "2"],
        "-4/3/5\n-3/7/5\n-2/3/5\n-1/2/5\n-1/3/5\n1/2/5\n3/2/5\n4/7/5\ncount=8\n",
    ),
    (
        ["orbit", "1/2/5", "--depth", "2", "--format", "json"],
        '{"count": 8, "elements": ["-4/3/5", "-3/7/5", "-2/3/5", "-1/2/5",'
        ' "-1/3/5", "1/2/5", "3/2/5", "4/7/5"]}\n',
    ),
    (
        ["check-t32", "1/2/5", "3/2/5", "--depth", "8"],
        "alpha-form: 2,-2,3\nbeta-form: 2,-6,7\nforms-equivalent: yes\n"
        "reachable: yes\ndepth: 8\nconsistent: yes\n",
    ),
    (
        ["check-t32", "0/1/5", "1/2/5", "--depth", "6", "--format", "json"],
        '{"alpha_form": "1,0,5", "beta_form": "2,-2,3", "consistent": true,'
        ' "depth": 6, "forms_equivalent": false, "reachable": false}\n',
    ),
]


def test_goldens_exact():
    for argv, want in GOLDENS:
        code, out, err = run(argv)
        assert code == 0, (argv, err)
        assert err == ""
        assert out == want, argv


def test_goldens_deterministic():
    for argv, _ in GOLDENS:
        first = run(argv)
        second = run(argv)
        assert first == second, argv


def test_json_goldens_parse():
    for argv, want in GOLDENS:
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


def test_domain_errors_exit_one():
    wide = "1,2000000000000,1000000000000000000000001"  # translation by 10^12
    refused = "error: word of 2000000000000 letters exceeds the word bound 10^8\n"
    cases = [
        (["reduce", "1,3,1"], "error: only positive definite forms can be reduced\n"),
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
        (["reduce", wide], refused),
        (["equiv", wide, "1,0,1"], refused),
        (["equiv", "1,0,1", wide], refused),
        (
            ["reduce", "1,200000000,10000000000000001"],
            "error: word of 200000000 letters exceeds the word bound 10^8\n",
        ),
        (["plot", "1,3,1"], "error: base point defined only for positive definite forms\n"),
        (
            ["plot", "--points", "1,1,-1" + "0" * 400],
            "error: point 1,1,-1" + "0" * 400 + " does not fit in a float\n",
        ),
    ]
    for argv, want in cases:
        code, out, err = run(argv)
        assert code == 1, argv
        assert out == ""
        assert err == want, argv


def test_usage_errors_exit_two():
    for argv in (
        ["reduce", "1,2"],
        ["point-form", "1,2,5"],
        ["nonsense"],
        ["equiv", "1,0,1"],
        [],
    ):
        code, out, err = run(argv)
        assert code == 2, argv
        assert "usage:" in err


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


def test_render_rejects_unknown_region():
    try:
        render_region_svg([], "disc")
    except ValueError as exc:
        assert "region" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_render_rejects_too_many_points():
    points = [AlgebraicPoint(p, 1, -1) for p in range(10_001)]
    try:
        render_region_svg(points, "pi")
    except ValueError as exc:
        assert str(exc) == "too many points to plot (limit 10000)"
    else:
        raise AssertionError("expected ValueError")
    # exactly at the limit is fine
    assert render_region_svg(points[:10_000], "pi").count("<circle") == 10_000


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bqf", "reduce", "11,49,55"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "reduced: 1,1,5\nword: VTVTVTUTU\nwitness: -3,-7;1,2\nsteps: 3\n"
