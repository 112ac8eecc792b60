"""Command-line entry point and JSON I/O.

Charts and inline points are JSON documents with a strict schema (unknown
fields are rejected).  Every subcommand emits machine-readable JSON on
stdout, or a plain table with --table; this module is the one place that
knows that format, and a record's public field names are its keys.  Exit
codes: 0 success, 1 reserved exclusively for a falsified mathematical
property (a failed torsor or comparison check), 2 for any input or
validation error.

Each subcommand takes only the settings it reads: every one validates the
chart at --degree-bound, and ``compare`` reads --bound.  A setting is its
flag, else its default (degree bound 20, comparison bound 100); a chart
file holds only the chart.  There is no tolerance: an inline log point is
exact, and floating "angles" input is read once as exact rationals
(``KnPoint.floating``); ``torsor --face`` takes the stratum's
distinguished point.  Generator and face indices are 0-based.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import monoid as monoid_mod
from ._record import Record
from .errors import ChartError, FalsifiedProperty, InvalidChartFile, InvalidPoint, NotAFace
from .monoid import DEFAULT_DEGREE_BOUND, MonoidSpec, face_with_support

DEFAULT_BOUND = 100
MAX_BITS = 14_284  # the most bits that always print in 4,300 digits, Python's default limit
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.I)  # as Fraction reads it

_CHART_FIELDS = {"name", "ambient_rank", "generators", "relations"}
_RELATION_FIELDS = {"lhs", "rhs"}
_POINT_FIELDS = ({"radii", "turns"}, {"radii", "angles"})


class ChartDocument:
    """A parsed chart file: a named monoid presentation."""

    def __init__(self, name, spec: MonoidSpec):
        self.name = name
        self.spec = spec

    @staticmethod
    def from_json_dict(doc) -> "ChartDocument":
        if not isinstance(doc, dict):
            raise InvalidChartFile("chart document must be a JSON object")
        unknown = set(doc) - _CHART_FIELDS
        if unknown:
            raise InvalidChartFile(f"unknown chart fields: {sorted(unknown)}")
        for key in ("name", "ambient_rank", "generators"):
            if key not in doc:
                raise InvalidChartFile(f"chart document is missing {key!r}")
        relations = None
        if "relations" in doc and doc["relations"] is not None:
            if not isinstance(doc["relations"], list):
                raise InvalidChartFile("relations must be a list")
            relations = []
            for rel in doc["relations"]:
                if not isinstance(rel, dict) or set(rel) != _RELATION_FIELDS:
                    raise InvalidChartFile(f"relation {rel!r} must have exactly lhs and rhs")
                relations.append((rel["lhs"], rel["rhs"]))
        spec = MonoidSpec.make(doc["ambient_rank"], doc["generators"], relations)
        return ChartDocument(str(doc["name"]), spec)


def load_chart(path: str) -> ChartDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise InvalidChartFile(f"cannot read chart file: {err}") from err
    except ValueError as err:  # not UTF-8 or not JSON, or an int beyond Python's digit limit
        raise InvalidChartFile(f"chart file is not valid JSON: {err}") from err
    return ChartDocument.from_json_dict(doc)


def corpus_path(name: str) -> str:
    """Path of one of the bundled corpus charts (log_point, affine_line,
    plane_axes, a1_cone)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "data", "charts", f"{name}.json")


def _plain(value):
    """A record as a dict of its public fields, recursively, with tuples
    as lists: the JSON the CLI writes for it."""
    if isinstance(value, tuple):
        return [_plain(x) for x in value]
    if isinstance(value, Record):
        return {name: _plain(getattr(value, name)) for name in value._compared}
    return value


def _parse_face(text, m):
    """The face whose support is the comma-separated indices, each plain
    ASCII digits once spaces are stripped; blank text is the vertex."""
    if text is None or text.strip() == "":
        return face_with_support(m, [])
    items = [x.strip() for x in text.split(",")]
    if not all(x.isascii() and x.isdigit() for x in items):
        raise NotAFace(f"face {text!r} is not a list of generator indices")
    return face_with_support(m, [int(x) for x in items])


def _parse_point(text):
    """An inline JSON log point: {"radii": [...], "turns": [...]} with
    radii as exact fraction strings, numbers or radicals in the text
    ``NonnegRoot.of`` reads, and turns as fraction strings or numbers, or
    {"radii": [...], "angles": [[re, im], ...]} with floats, read once as
    an exact point; an exact coordinate too large to print is refused."""
    from .semialg import KnPoint
    try:
        doc = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an int beyond Python's digit limit
        raise InvalidPoint(f"point is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or set(doc) not in _POINT_FIELDS:
        got = sorted(doc) if isinstance(doc, dict) else f"a JSON {type(doc).__name__}"
        raise InvalidPoint('point must be a JSON object with exactly the fields "radii" '
                         f'and one of "turns" or "angles", got {got}')
    radii, circle = doc["radii"], doc.get("turns", doc.get("angles"))
    if not isinstance(radii, list) or not isinstance(circle, list) or len(radii) != len(circle):
        raise InvalidPoint('point needs a list "radii" and an equally long list "turns" '
                         '(exact) or "angles" (floating)')
    try:
        if "turns" in doc:
            bits = min(MAX_BITS, int(sys.get_int_max_str_digits() * math.log2(10)) or MAX_BITS)
            for i, pair in enumerate(zip(radii, circle)):  # Fraction("1e9999999") takes seconds
                if any(abs(int(e[1])) > bits for e in map(_EXPONENT.search, map(str, pair)) if e):
                    raise InvalidPoint(f"exact coordinate {i} has a decimal exponent above {bits}")
            point = KnPoint.exact_point([(str(r), str(t)) for r, t in zip(radii, circle)])
            for i, (r, t) in enumerate(point.values):  # a turn lies in [0, 1)
                if max(n.bit_length() for n in (r.base.numerator, r.base.denominator,
                                                t.denominator)) > bits:
                    raise InvalidPoint(f"exact coordinate {i} has a numerator or denominator "
                                       f"of more than {bits} bits")
            return point
        return KnPoint.floating([(float(r), complex(a[0], a[1]))
                                 for r, a in zip(radii, circle)])
    except (TypeError, ValueError, IndexError, ZeroDivisionError, OverflowError) as err:
        raise InvalidPoint(f"point has a malformed coordinate: {err}") from err


def _emit(payload, table: bool):
    if table:
        _print_table(payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    sys.stdout.flush()


def _print_table(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _print_table(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    else:
        for value in payload:
            if isinstance(value, (dict, list)):
                _print_table(value, indent)
                print(f"{pad}-")
            else:
                print(f"{pad}{value}")


def cmd_info(m, args):
    fs = monoid_mod.faces(m)
    return True, {
        "ambient_rank": m.ambient_rank,
        "generator_count": m.generator_count,
        "gp_rank": m.gp_lattice_rank,
        "sharp": True,  # validate refuses a cone that is not sharp
        "saturated_to_degree": m.degree_bound,
        "relation_count": len(m.relations),
        "face_count": len(fs),
    }


def cmd_strata(m, args):
    from .strata import stratify
    table = stratify(m)
    return True, {
        "max_rank": m.gp_lattice_rank,
        "strata": [
            {
                "face": list(e.face.support),
                "rank": e.stalk_rank,
                "stalk_generators": [list(g) for g in e.stalk.generators],
                "stalk_ambient_rank": e.stalk.ambient_rank,
            }
            for e in table.entries
        ],
    }


def cmd_mu(m, args):
    return True, {"n": args.n, **_plain(monoid_mod.mu(m, args.n))}


def cmd_fiber(m, args):
    face = _parse_face(args.face, m)
    # The torus fiber's rank and pi0 come from K_F; the root fiber is mu_n of the stalk.
    quotient, r = monoid_mod.stalk(m, face)
    _, torus_rank, pi0 = monoid_mod._angle_fiber(m, face, r)
    return True, {
        "face": list(face.support),
        "n": args.n,
        "kn_torus_rank": torus_rank,
        "kn_pi0": list(pi0),
        "kn_pi1": {"free_rank": torus_rank, "torsion": []},
        "root_level": _plain(monoid_mod.mu(quotient, args.n)),
    }


def cmd_compare(m, args):
    from .fibers import verify_fiber_equivalence
    face = _parse_face(args.face, m)
    ok, cert = verify_fiber_equivalence(m, face, args.bound)
    return ok, {
        "face": list(face.support),
        "equivalent": ok,
        "levels": args.bound,
        "torus_rank": cert.torus_rank,
        "certificate": _plain(cert),
    }


def cmd_emit(m, args):
    from .semialg import emit_equations
    system = emit_equations(m, args.target)
    return True, {"target": system.target,
                  "variable_count": system.variable_count,
                  "equations": [{"lhs": list(r), "rhs": list(s)} for r, s in system.equations]}


def cmd_torsor(m, args):
    from .fibers import torsor_check
    from .semialg import distinguished_point
    if args.point is not None:
        if args.face is not None:
            raise ChartError("torsor takes --point or --face, not both")
        point = _parse_point(args.point)
    else:
        point = distinguished_point(m, _parse_face(args.face, m))
    ok, report = torsor_check(m, point, args.n)
    return ok, {"point": str(point), "torsor": _plain(report), "ok": ok}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("chart", help="path to a chart JSON document")
    common.add_argument("--table", action="store_true",
                        help="human-readable output (default: JSON)")
    common.add_argument("--degree-bound", type=int, default=DEFAULT_DEGREE_BOUND,
                        help=f"desk-scale verification bound (default {DEFAULT_DEGREE_BOUND})")

    parser = argparse.ArgumentParser(
        prog="logcharts",
        description="Invariants of a log chart: faces, strata, mu-towers, "
                    "fiber models, and the fiberwise profinite comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(run, help_text):
        p = sub.add_parser(run.__name__.removeprefix("cmd_"), help=help_text, parents=[common])
        p.set_defaults(run=run)
        return p

    subparser(cmd_info, "summary invariants of the chart")
    subparser(cmd_strata, "the rank stratification")
    subparser(cmd_mu, "the group mu_n of the chart monoid").add_argument("n", type=int)
    p = subparser(cmd_fiber, "fiber models over a stratum")
    p.add_argument("n", type=int)
    p.add_argument("--face", default=None, help="comma-separated 0-based generator indices")
    p = subparser(cmd_compare, "fiberwise profinite comparison over a stratum")
    p.add_argument("--face", default=None, help="comma-separated 0-based generator indices")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                   help=f"comparison level bound (default {DEFAULT_BOUND})")
    p = subparser(cmd_emit, "defining equations of a chart model")
    p.add_argument("--target", choices=["complex", "kn"], default="complex")
    p = subparser(cmd_torsor, "verify the deck action on a Kummer fiber")
    p.add_argument("n", type=int)
    p.add_argument("--point", default=None, help="inline JSON log point")
    p.add_argument("--face", default=None,
                   help="take this stratum's distinguished point instead")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        chart = load_chart(args.chart)
        m = monoid_mod.validate(chart.spec, degree_bound=args.degree_bound)
        ok, payload = args.run(m, args)
        payload["name"] = chart.name
    except FalsifiedProperty as err:
        return _report(f"falsified property: {err}", 1)
    except ChartError as err:
        return _report(f"error: {err}", 2)
    except Exception as err:  # internal failure is an error, never a falsified theorem
        return _report(f"internal error: {type(err).__name__}: {err}", 2)

    try:
        _emit(payload, args.table)
    except BrokenPipeError as err:
        return _report(f"error: cannot write the output: {err}", 2, sys.stdout)
    return 0 if ok else 1


def _report(message: str, code: int, *closed) -> int:
    """Write the message to stderr and return the code, also when stderr is
    closed; closed streams go to the null device for the final flush."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        closed += (sys.stderr,)
    for stream in closed:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
