"""Command-line front end: ten verbs and one table of their grammar, _VERBS.

Text output is line oriented; all verbs but plot (which writes SVG) take --format json,
the same data as one sorted JSON object. Exit codes: 0 on success, 1 on domain errors, 2
on usage errors. main reads a plain argv off the table alone; argparse, built from the
same table, is imported only for -h, usage errors and other spellings of an argv.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
import types
from operator import eq, itemgetter

from ._value import _plain
from .enumeration import class_number, enumerate_almost_reduced, enumerate_reduced
from .forms import QuadraticForm
from .group import GroupElement, element_to_word
from .points import AlgebraicPoint, _normalize, base_point, form_from_point
from .qfield import QuadFieldElement, _orbit, same_orbit_form_check
from .reduction import _reduce, equivalent
from .residues import legendre

# plot geometry: 200 px per unit on [-1.6, 1.6] x [0, 2.4]
_SCALE = 200.0
_XMIN, _XMAX, _YMAX = -1.6, 1.6, 2.4
_ARC_SEGMENTS = 64
_POINT_LIMIT = 10_000


def _plottable(items: list) -> list:  # items, or ValueError past _POINT_LIMIT of them
    if len(items) > _POINT_LIMIT:
        raise ValueError(f"too many points to plot (limit {_POINT_LIMIT})")
    return items


def _screen(plane: list[tuple[float, float]]) -> list[float]:
    """Screen coordinates of plane pairs (x, y), flattened: x0, y0, x1, y1, ..."""
    return [c for x, y in plane for c in ((x - _XMIN) * _SCALE, (_YMAX - y) * _SCALE)]


def _exact(z: tuple[int, int, int]) -> tuple:
    """The exact plot key of a point triple (p, q, D): (Re, |z|^2) as Fractions."""
    import fractions
    p, q, d = z
    return fractions.Fraction(p, q), fractions.Fraction(p * p - d, q * q)


def _plot_order(points: list[tuple[int, int, int]]) -> list[tuple[float, tuple]]:
    """(float Re, point) pairs in _exact order; OverflowError for an Re past the float range.

    Correctly rounded floats of Re are monotone, so distinct ones already
    agree with that order; only runs of equal floats are sorted by _exact.
    """
    keyed = sorted(zip([p / q for p, q, _ in points], points), key=itemgetter(0))
    xs = list(map(itemgetter(0), keyed))
    end = 0
    for i in itertools.compress(range(1, len(xs)), map(eq, xs, xs[1:])):
        if i >= end:  # xs[i - 1] == xs[i] starts a run of equal floats; sort it exactly
            end = i + 1
            while end < len(xs) and xs[end] == xs[i]:
                end += 1
            keyed[i - 1 : end] = sorted(keyed[i - 1 : end], key=lambda pair: _exact(pair[1]))
    return keyed


@functools.cache
def _frame(region: str) -> str:
    """The SVG up to its markers: header, the region's two walls and its arc."""
    width, height = int((_XMAX - _XMIN) * _SCALE), int(_YMAX * _SCALE)
    left = -0.5 if region == "pi" else 0.0
    y_left = math.sqrt(3) / 2 if region == "pi" else 1.0
    a_left = 2 * math.pi / 3 if region == "pi" else math.pi / 2
    ts = [a_left + (math.pi / 3 - a_left) * i / _ARC_SEGMENTS for i in range(_ARC_SEGMENTS + 1)]
    walls = [(left, y_left), (left, _YMAX), (0.5, math.sqrt(3) / 2), (0.5, _YMAX)]
    drawing = "\n".join(['<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"/>'] * 2
                        + ['<path d="M ' + " L ".join(["%.6f %.6f"] * len(ts)) + '"/>'])
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g stroke="#222222" stroke-width="1.5" fill="none">',
        drawing % tuple(_screen(walls + [(math.cos(t), math.sin(t)) for t in ts])),
        "</g>",
        '<g fill="#335577">\n',
    ])


def render_region_svg(points: list[tuple[int, int, int]], region: str) -> str:
    """Deterministic SVG: region boundary plus one marker per point.

    points are AlgebraicPoints or their stored (p, q, D) triples. Markers come in _exact
    order, coordinates to six decimals; the least point in that order whose Re, Im or
    screen x does not fit in a float is refused with ValueError.
    """
    if region not in ("pi", "pibar"):
        raise ValueError(f"region must be 'pi' or 'pibar', got {region!r}")
    try:
        keyed = _plot_order(_plottable(points))
        coords = [c for x, (_, q, d) in keyed  # _screen of each (x, Im), inlined
                  for c in ((x - _XMIN) * _SCALE, (_YMAX - math.sqrt(-d) / q) * _SCALE)]
        if coords:  # screen x rises with Re, and Im < 2^512 keeps screen y finite
            int(coords[0]), int(coords[-2])  # OverflowError for an infinite end
    except OverflowError:  # Re, Im, q or screen x; the least unfit point is the first such marker
        unfit = []
        for p, q, d in points:
            try:
                int(_screen([(p / q, math.sqrt(-d) / q)])[0])  # int(+-inf) raises
            except OverflowError:
                unfit.append((p, q, d))
        least = AlgebraicPoint(*min(unfit, key=_exact))  # its own triple: normalizing is idempotent
        raise ValueError(f"point {least} does not fit in a float") from None
    markers = ('<circle cx="%.6f" cy="%.6f" r="4"/>\n' * len(keyed)) % tuple(coords)
    return _frame(region) + markers + "</g>\n</svg>\n"


def _fields(data: dict) -> str:
    """One "key: value" line per field but None ones; '_' is written '-', booleans yes/no."""
    yn = {True: "yes", False: "no"}
    return "".join(
        f"{key.replace('_', '-')}: {yn[v] if isinstance(v, bool) else v}\n"
        for key, v in data.items() if v is not None
    )


def _listing(names: list[str], label: str) -> str:
    """One name per line, then "label=count"."""
    return "".join(f"{name}\n" for name in names) + f"{label}={len(names)}\n"


def _word(g) -> dict:
    """{"word": element_to_word(g)}; past MAX_WORD_LETTERS, no word but its letter count."""
    try:
        return {"word": element_to_word(g)}
    except ValueError as error:  # element_to_word's one error, the word bound
        return {"word": None, "word_letters": error.letters}


def _cmd_reduce(args) -> tuple[dict, str]:
    reduced, w, steps = _reduce(args.form)  # reduce_form, but a long word is counted
    witness = GroupElement(*w)
    data = {"reduced": str(reduced), **_word(witness), "witness": str(witness), "steps": steps}
    return data, _fields(data)


def _cmd_equiv(args) -> tuple[dict, str]:
    g = equivalent(args.form, args.other, args.mode)
    data = {"equivalent": False}
    if g is not None:
        data = {"equivalent": True, "witness": str(g), **_word(g)}
    return data, _fields(data)


def _cmd_class_number(args) -> tuple[dict, str]:
    h = class_number(args.delta)
    return {"h": h}, f"h={h}\n"


def _cmd_enumerate(args) -> tuple[dict, str]:
    fn = enumerate_almost_reduced if args.almost else enumerate_reduced
    forms = fn(args.delta, primitive_only=args.primitive)
    names = [str(f) for f in forms]
    return {"forms": names, "h": len(names)}, _listing(names, "h")


def _cmd_base_point(args) -> tuple[dict, str]:
    z = base_point(args.form)
    return {"point": str(z)}, f"{z}\n"


def _cmd_point_form(args) -> tuple[dict, str]:
    form, scale = form_from_point(args.point)
    data = {"form": str(form), "scale": str(scale)}
    return data, _fields(data)


def _cmd_legendre(args) -> tuple[dict, str]:
    v = legendre(args.value, args.p)
    return {"legendre": v}, f"{v}\n"


def _cmd_orbit(args) -> tuple[dict, str]:
    n = args.element.n  # within one n, (a, c) fixes b, so the triples sort as (a, c) would
    names = [args.element._text % (a, c, n) for a, c, _ in sorted(_orbit(args.element, args.depth))]
    return {"elements": names, "count": len(names)}, _listing(names, "count")


def _cmd_check_t32(args) -> tuple[dict, str]:
    rep = same_orbit_form_check(args.alpha, args.beta, args.depth)
    data = dict(rep._asdict(), consistent=rep.consistent)  # the fields in order, then consistent
    data.update(alpha_form=str(rep.alpha_form), beta_form=str(rep.beta_form))
    return data, _fields(data)


def _cmd_plot(args) -> tuple[None, str]:
    """The items parsed as one text into normalized triples, no value object per item;
    on any error they are parsed again item by item, naming the first bad one."""
    items = _plottable(args.items)  # before any item is parsed
    text = ",".join(items)  # Value.parse's checks, once; two commas per item align the threes
    try:
        if not _plain(text) or {item.count(",") for item in items} != {2}:
            raise ValueError
        ints = map(int, text.split(","))
        triples = list(zip(ints, ints, ints))
        if not args.points:  # base_point's triple; q > 0 > D is then a > 0 > b^2 - 4ac
            triples = [(b, 2 * a, b * b - 4 * a * c) for a, b, c in triples]
        if not all(q > 0 > d for _, q, d in triples):  # AlgebraicPoint's and base_point's checks
            raise ValueError
        markers = list(itertools.starmap(_normalize, triples))  # the triples AlgebraicPoint stores
    except ValueError:
        if args.points:
            markers = [AlgebraicPoint.parse(item) for item in items]
        else:
            markers = [base_point(QuadraticForm.parse(item)) for item in items]
    return None, render_region_svg(markers, args.region)


_FORM, _POINT, _ELEMENT = QuadraticForm.parse, AlgebraicPoint.parse, QuadFieldElement.parse
_FORMAT = {"--format": (("text", "json"), "text", "output format")}
_FORMAT_DEPTH = {**_FORMAT, "--depth": (int, 8, None)}
# The grammar, read by _fast and build_parser: verb -> (handler, help, positionals, options).
# Positionals map dest to converter, None for plot's texts, any number; options map name to
# (choices or converter, None for a flag; default; help), in help order.
_VERBS = {
    "reduce": (_cmd_reduce, "reduce a form, printing a witness", {"form": _FORM}, _FORMAT),
    "equiv": (_cmd_equiv, "test two forms for equivalence", {"form": _FORM, "other": _FORM},
              {**_FORMAT, "--mode": (("proper", "extended"), "proper", None)}),
    "class-number": (_cmd_class_number, "count primitive reduced forms", {"delta": int}, _FORMAT),
    "enumerate": (_cmd_enumerate, "list reduced forms of a discriminant", {"delta": int},
                  {**_FORMAT, "--almost": (None, False, "keep boundary mirrors"),
                   "--primitive": (None, False, "primitive forms only")}),
    "base-point": (_cmd_base_point, "upper half-plane root of a form", {"form": _FORM}, _FORMAT),
    "point-form": (_cmd_point_form, "primitive form owning a point", {"point": _POINT}, _FORMAT),
    "legendre": (_cmd_legendre, "Legendre symbol (value/p)", {"value": int, "p": int}, _FORMAT),
    "orbit": (_cmd_orbit, "breadth-first orbit of a quadratic irrational", {"element": _ELEMENT},
              _FORMAT_DEPTH),
    "check-t32": (_cmd_check_t32, "orbit membership vs form equivalence",
                  {"alpha": _ELEMENT, "beta": _ELEMENT}, _FORMAT_DEPTH),
    "plot": (_cmd_plot, "SVG of points in a fundamental region", {"items": None},
             {"--points": (None, False, "arguments are points"),
              "--region": (("pi", "pibar"), "pi", None),
              "--out": (str, "-", "output file, - for stdout")}),
}
_NUMBER = re.compile(r"-\.?\d")  # a token so led is a value, as -1,2,-5: no option starts so


def _fast(argv: list[str]):
    """argv's namespace as the verb table reads it, or None to leave argv to argparse: the
    verb, exact options, one run of positionals (led by "-" only as _NUMBER allows), one "--"."""
    if not argv or argv[0] not in _VERBS:
        return None
    handler, _, positionals, options = _VERBS[argv[0]]
    args = {name[2:]: default for name, (_, default, _) in options.items()}
    texts, dashed, ended, tokens = [], False, False, iter(argv[1:])  # ended: an option after texts
    try:
        for token in tokens:
            if token == "--" and not (dashed or ended):
                dashed = True
            elif token[:1] != "-" or _NUMBER.match(token):
                if ended:  # a second run of positionals, which argparse would leave over
                    return None
                texts.append(token)
            elif dashed or token not in options:
                return None
            elif (kind := options[token][0]) is None:
                args[token[2:]], ended = True, bool(texts)
            else:
                value, ended = next(tokens, "-"), bool(texts)  # a missing value is refused as "-"
                if value[:1] == "-" or isinstance(kind, tuple) and value not in kind:
                    return None
                args[token[2:]] = value if isinstance(kind, tuple) else kind(value)
        if None in positionals.values():
            args["items"] = texts
        elif len(texts) == len(positionals):
            args.update((dest, positionals[dest](text)) for dest, text in zip(positionals, texts))
        else:
            return None
    except (TypeError, ValueError):  # a value that argparse would refuse
        return None
    return types.SimpleNamespace(handler=handler, **args)


def build_parser():
    """The argparse parser of the verb table, for help texts and usage errors."""
    import argparse
    def parse_as(convert):  # a malformed value's error names its format, not "parse"
        def parse(text: str):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(exc) from None
        return parse
    parser = argparse.ArgumentParser(
        prog="bqf", description="binary quadratic forms under the extended modular group")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (handler, text, positionals, options) in _VERBS.items():
        p = sub.add_parser(verb, help=text)
        p.set_defaults(handler=handler)
        p._negative_number_matcher = _NUMBER  # argparse's own hook for values led by "-"
        for dest, convert in positionals.items():
            if convert is None:
                p.add_argument(dest, nargs="*", help="forms a,b,c or (with --points) points p,q,D")
            else:
                p.add_argument(dest, type=convert if convert is int else parse_as(convert))
        for name, (kind, default, text) in options.items():
            how = ({"choices": kind} if isinstance(kind, tuple)
                   else {"action": "store_true"} if kind is None else {"type": kind})
            p.add_argument(name, default=default, help=text, **how)
    parser.verbs = sub.choices  # verb name -> its parser
    return parser


_parser = functools.cache(build_parser)  # built on the first argv _fast leaves, then reused


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast(argv) or _parser().parse_args(argv)  # argparse: -h, usage errors, other spellings
    if argv.count("--") > 1:  # no value is "--", and argparse up to 3.13.0 mishandles a
        _parser().verbs[args.verb].error("'--' may be given only once")  # second one
    try:
        data, text = args.handler(args)
        out_path = getattr(args, "out", "-")
        if data is not None and args.format == "json":
            import json  # loaded only when json output is asked for
            text = json.dumps(data, sort_keys=True) + "\n"
        if out_path == "-":
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    if hasattr(sys, "set_int_max_str_digits"):  # CPython before 3.10.7 has no digit limit;
        sys.set_int_max_str_digits(0)  # Linux's 128 KiB per argv string bounds every int
    sys.exit(main())
