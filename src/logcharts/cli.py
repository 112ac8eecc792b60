"""Command-line entry point and JSON I/O.

Charts are single JSON documents with a strict schema (unknown fields are
rejected).  Every subcommand emits machine-readable JSON on stdout, or a
plain table with --table.  Exit codes: 0 success, 1 reserved exclusively
for a falsified mathematical property (a failed torsor or comparison
check), 2 for any input or validation error.

Numeric defaults (tolerance 1e-9, degree bound 20, comparison bound 100)
can be overridden, in decreasing precedence, by flags, by the chart
document's own options block, and by LOGCHARTS_* environment variables.
Generator and face indices are 0-based.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import monoid as monoid_mod
from .errors import ChartError, FalsifiedProperty
from .monoid import DEFAULT_DEGREE_BOUND, DEFAULT_TOLERANCE, MonoidSpec, face_with_support

ENV_PREFIX = "LOGCHARTS_"
DEFAULT_BOUND = 100
DEFAULT_SEED = 0

_CHART_FIELDS = {"name", "ambient_rank", "generators", "relations", "options"}
_OPTION_FIELDS = {"degree_bound", "tolerance", "seed"}
_RELATION_FIELDS = {"lhs", "rhs"}


class ChartDocument:
    """A parsed chart file: a named monoid presentation plus options."""

    def __init__(self, name, spec: MonoidSpec, options: dict):
        self.name = name
        self.spec = spec
        self.options = options

    @staticmethod
    def from_json_dict(doc) -> "ChartDocument":
        if not isinstance(doc, dict):
            raise ChartError("chart document must be a JSON object")
        unknown = set(doc) - _CHART_FIELDS
        if unknown:
            raise ChartError(f"unknown chart fields: {sorted(unknown)}")
        for key in ("name", "ambient_rank", "generators"):
            if key not in doc:
                raise ChartError(f"chart document is missing {key!r}")
        relations = None
        if "relations" in doc and doc["relations"] is not None:
            if not isinstance(doc["relations"], list):
                raise ChartError("relations must be a list")
            relations = []
            for rel in doc["relations"]:
                if not isinstance(rel, dict) or set(rel) != _RELATION_FIELDS:
                    raise ChartError(f"relation {rel!r} must have exactly lhs and rhs")
                relations.append((rel["lhs"], rel["rhs"]))
        options = {} if doc.get("options") is None else doc["options"]
        if not isinstance(options, dict):
            raise ChartError("options must be a JSON object")
        unknown = set(options) - _OPTION_FIELDS
        if unknown:
            raise ChartError(f"unknown option fields: {sorted(unknown)}")
        spec = MonoidSpec.make(doc["ambient_rank"], doc["generators"], relations)
        return ChartDocument(str(doc["name"]), spec, dict(options))


def load_chart(path: str) -> ChartDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ChartError(f"cannot read chart file: {err}") from err
    except json.JSONDecodeError as err:
        raise ChartError(f"chart file is not valid JSON: {err}") from err
    return ChartDocument.from_json_dict(doc)


def corpus_path(name: str) -> str:
    """Path of one of the bundled corpus charts (log_point, affine_line,
    plane_axes, a1_cone)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "data", "charts", f"{name}.json")


def _setting(args_value, chart_options, key, env_name, default, cast):
    if args_value is not None:
        source, raw = "--" + env_name.lower().replace("_", "-"), args_value
    elif key in chart_options:
        source, raw = f"chart option {key!r}", chart_options[key]
    elif ENV_PREFIX + env_name in os.environ:
        source, raw = ENV_PREFIX + env_name, os.environ[ENV_PREFIX + env_name]
    else:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as err:
        raise ChartError(f"{source} has an invalid value {raw!r}") from err


def _integer(raw) -> int:
    """An int, or a string of one (from the environment); a JSON float or
    bool is refused, not truncated."""
    if isinstance(raw, str):
        return int(raw)
    if type(raw) is not int:
        raise TypeError(f"{raw!r} is not an integer")
    return raw


def _tolerance(raw) -> float:
    if isinstance(raw, bool):
        raise TypeError(f"{raw!r} is not a number")
    tol = float(raw)
    if not 0 <= tol < math.inf:  # NaN fails the comparison too
        raise ValueError("a tolerance must be finite and at least 0")
    return tol


def _check_levels(args, bound):
    """Levels and the comparison bound index towers, which start at 1."""
    for label, value in (("level", getattr(args, "n", None)),
                         ("bound", bound if args.command == "compare" else None)):
        if value is not None and value < 1:
            raise ChartError(f"{label} must be at least 1, got {value}")


def _group_json(g):
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _parse_face(text, m):
    if text is None or text.strip() == "":
        return face_with_support(m, [])
    try:
        indices = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as err:
        raise ChartError(f"face {text!r} is not a list of generator indices") from err
    return face_with_support(m, indices)


def _parse_point(text):
    """An inline JSON log point: {"radii": [...], "turns": [...]} with
    entries as exact fraction strings or numbers, or {"radii": [...],
    "angles": [[re, im], ...]} for floating mode."""
    from .semialg import KnPoint
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ChartError(f"point is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or "radii" not in doc:
        raise ChartError('point must be a JSON object with "radii" and "turns" or "angles"')
    radii, circle = doc["radii"], doc.get("turns", doc.get("angles"))
    if not isinstance(radii, list) or not isinstance(circle, list) or len(radii) != len(circle):
        raise ChartError('point needs a list "radii" and an equally long list "turns" '
                         '(exact) or "angles" (floating)')
    try:
        if "turns" in doc:
            return KnPoint.exact_point([(Fraction(str(r)), Fraction(str(t)))
                                        for r, t in zip(radii, circle)])
        return KnPoint.floating([(float(r), complex(a[0], a[1]))
                                 for r, a in zip(radii, circle)])
    except (TypeError, ValueError, IndexError, ZeroDivisionError, OverflowError) as err:
        raise ChartError(f"point has a malformed coordinate: {err}") from err


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
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _print_table(value, indent)
                print(f"{pad}-")
            else:
                print(f"{pad}{value}")
    else:
        print(f"{pad}{payload}")


def cmd_info(chart, m, args):
    fs = monoid_mod.faces(m)
    return {
        "name": chart.name,
        "ambient_rank": m.ambient_rank,
        "generator_count": m.generator_count,
        "gp_rank": m.gp_lattice_rank,
        "sharp": m.is_sharp,
        "saturated_to_degree": m.degree_bound,
        "relation_count": len(m.relations),
        "face_count": len(fs),
    }


def cmd_strata(chart, m, args):
    from .strata import stratify
    table = stratify(m)
    return {
        "name": chart.name,
        "max_rank": table.max_rank,
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


def cmd_mu(chart, m, args):
    g = monoid_mod.mu(m, args.n)
    out = {"name": chart.name, "n": args.n}
    out.update(_group_json(g))
    return out


def cmd_fiber(chart, m, args):
    face = _parse_face(args.face, m)
    # The stalk fixes both fiber models: the torus fiber has pi1 = Z^r, and
    # level n of the root fiber tower is mu_n of the stalk.
    quotient, r = monoid_mod.stalk(m, face)
    return {
        "name": chart.name,
        "face": list(face.support),
        "n": args.n,
        "kn_torus_rank": r,
        "kn_pi1": {"free_rank": r, "torsion": []},
        "root_level": _group_json(monoid_mod.mu(quotient, args.n)),
    }


def cmd_compare(chart, m, args, bound):
    from .fibers import verify_fiber_equivalence
    face = _parse_face(args.face, m)
    ok, cert = verify_fiber_equivalence(m, face, bound)
    payload = {
        "name": chart.name,
        "face": list(face.support),
        "equivalent": ok,
        "levels": bound,
        "torus_rank": cert.torus_rank,
        "certificate": cert.to_json_dict(),
    }
    return payload, ok


def cmd_emit(chart, m, args):
    from .semialg import Target, emit_equations
    target = Target.COMPLEX_POINTS if args.target == "complex" else Target.KN_POINTS
    system = emit_equations(m, target)
    out = {"name": chart.name}
    out.update(system.to_json_dict())
    return out


def cmd_torsor(chart, m, args, tol, seed):
    from .fibers import torsor_check
    from .semialg import sample_kn_stratum
    if args.point is not None:
        point = _parse_point(args.point)
    else:
        face = _parse_face(args.face, m)
        point = sample_kn_stratum(m, face, 1, seed)[0]
    ok, report = torsor_check(m, point, args.n, tol)
    payload = {"name": chart.name, "point": str(point), "torsor": report.to_json_dict(),
               "ok": ok}
    return payload, ok


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output (default)")
    common.add_argument("--table", action="store_true", help="human-readable output")
    common.add_argument("--tol", type=float, default=None,
                        help=f"numeric tolerance (default {DEFAULT_TOLERANCE})")
    common.add_argument("--degree-bound", type=int, default=None,
                        help=f"desk-scale verification bound (default {DEFAULT_DEGREE_BOUND})")
    common.add_argument("--bound", type=int, default=None,
                        help=f"comparison level bound (default {DEFAULT_BOUND})")
    common.add_argument("--seed", type=int, default=None,
                        help=f"sampler seed (default {DEFAULT_SEED})")

    parser = argparse.ArgumentParser(
        prog="logcharts",
        description="Invariants of a log chart: faces, strata, mu-towers, "
                    "fiber models, and the fiberwise profinite comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("chart", help="path to a chart JSON document")
        return p

    subparser("info", "summary invariants of the chart")
    subparser("strata", "the rank stratification")
    p = subparser("mu", "the group mu_n of the chart monoid")
    p.add_argument("n", type=int)
    p = subparser("fiber", "fiber models over a stratum")
    p.add_argument("n", type=int)
    p.add_argument("--face", default=None, help="comma-separated 0-based generator indices")
    p = subparser("compare", "fiberwise profinite comparison over a stratum")
    p.add_argument("--face", default=None, help="comma-separated 0-based generator indices")
    p = subparser("emit", "defining equations of a chart model")
    p.add_argument("--target", choices=["complex", "kn"], default="complex")
    p = subparser("torsor", "verify the deck action on a Kummer fiber")
    p.add_argument("n", type=int)
    p.add_argument("--point", default=None, help="inline JSON log point")
    p.add_argument("--face", default=None,
                   help="sample the point from this stratum instead")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    table = bool(args.table)
    try:
        chart = load_chart(args.chart)
        opts = chart.options
        tol = _setting(args.tol, opts, "tolerance", "TOL", DEFAULT_TOLERANCE, _tolerance)
        degree_bound = _setting(args.degree_bound, opts, "degree_bound",
                                "DEGREE_BOUND", DEFAULT_DEGREE_BOUND, _integer)
        bound = _setting(args.bound, opts, None, "BOUND", DEFAULT_BOUND, _integer)
        seed = _setting(args.seed, opts, "seed", "SEED", DEFAULT_SEED, _integer)
        _check_levels(args, bound)
        m = monoid_mod.validate(chart.spec, degree_bound=degree_bound)

        ok = True
        if args.command == "info":
            payload = cmd_info(chart, m, args)
        elif args.command == "strata":
            payload = cmd_strata(chart, m, args)
        elif args.command == "mu":
            payload = cmd_mu(chart, m, args)
        elif args.command == "fiber":
            payload = cmd_fiber(chart, m, args)
        elif args.command == "compare":
            payload, ok = cmd_compare(chart, m, args, bound)
        elif args.command == "emit":
            payload = cmd_emit(chart, m, args)
        elif args.command == "torsor":
            payload, ok = cmd_torsor(chart, m, args, tol, seed)
        else:  # pragma: no cover
            raise ChartError(f"unknown command {args.command}")
    except FalsifiedProperty as err:
        return _report(f"falsified property: {err}", 1)
    except ChartError as err:
        return _report(f"error: {err}", 2)
    except Exception as err:  # internal failure is an error, never a falsified theorem
        return _report(f"internal error: {type(err).__name__}: {err}", 2)

    try:
        _emit(payload, table)
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
