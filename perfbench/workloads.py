"""Seeded inputs, expected answers and operations of the four workloads.

Every expected answer is written by hand below or follows from how the
chart was built (the smooth cone N^d has 2^d faces, the face of N^d
spanned by s unit vectors has stalk rank d - s, ...).  None is read from
logcharts output.

Each workload's inputs are one *cycle* of operations.  A cycle is a fixed
mix: the seed decides the presentation of every chart (a permutation of
coordinates and of generators), the points, small parameters and the
order, but not how many operations of each kind and cost class a cycle
holds.  The timed loop runs whole cycles, so every run measures the same
mix and runs on different seeds stay comparable.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

# --------------------------------------------------------------------------
# Hand-written charts.  ``faces`` maps the generators spanning a face to
# (stalk rank, face rank); the stalk rank of the vertex is the group rank.


def _unit(d, i):
    return tuple(int(i == j) for j in range(d))


def smooth_chart(d):
    """N^d: every subset of the unit vectors spans a face."""
    units = tuple(_unit(d, i) for i in range(d))
    faces = {}
    for size in range(d + 1):
        for subset in itertools.combinations(units, size):
            faces[subset] = (d - size, size)
    return {"ambient_rank": d, "generators": units, "relations": None, "faces": faces}


SQUARE = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))

FIXED_CHARTS = {
    "log_point": {
        "ambient_rank": 1, "generators": ((1,),), "relations": None,
        "faces": {(): (1, 0), ((1,),): (0, 1)},
    },
    "affine_line": {
        "ambient_rank": 1, "generators": ((1,),), "relations": None,
        "faces": {(): (1, 0), ((1,),): (0, 1)},
    },
    "plane_axes": {
        "ambient_rank": 2, "generators": ((1, 0), (0, 1)), "relations": None,
        "faces": {(): (2, 0), ((1, 0),): (1, 1), ((0, 1),): (1, 1),
                  ((1, 0), (0, 1)): (0, 2)},
    },
    "a1_cone": {
        "ambient_rank": 2, "generators": ((1, 0), (1, 1), (1, 2)),
        "relations": (((1, 0, 1), (0, 2, 0)),),
        "faces": {(): (2, 0), ((1, 0),): (1, 1), ((1, 2),): (1, 1),
                  ((1, 0), (1, 1), (1, 2)): (0, 2)},
    },
    # Cone over the unit square: the square's vertices and edges.
    "square_cone": {
        "ambient_rank": 3, "generators": SQUARE, "relations": None,
        "faces": {(): (3, 0),
                  ((1, 0, 0),): (2, 1), ((1, 1, 0),): (2, 1),
                  ((1, 0, 1),): (2, 1), ((1, 1, 1),): (2, 1),
                  ((1, 0, 0), (1, 1, 0)): (1, 2), ((1, 0, 0), (1, 0, 1)): (1, 2),
                  ((1, 1, 0), (1, 1, 1)): (1, 2), ((1, 0, 1), (1, 1, 1)): (1, 2),
                  SQUARE: (0, 3)},
    },
    "n3": smooth_chart(3),
}

SQUARE_RELATIONS = (((1, 0, 0, 1), (0, 1, 1, 0)),)


def cube_chart():
    """Cone over the unit cube: faces are the cube's faces plus the vertex
    of the cone; a cube face of dimension e spans a cone face of rank e+1."""
    pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    gens = tuple((1,) + p for p in pts)
    faces = {(): (4, 0)}
    # A face of the cube fixes some coordinates to 0 or 1 and frees the rest.
    for fixed in itertools.product((0, 1, None), repeat=3):
        members = tuple(g for g, p in zip(gens, pts)
                        if all(f is None or f == c for f, c in zip(fixed, p)))
        dim = sum(1 for f in fixed if f is None)
        faces[members] = (4 - (dim + 1), dim + 1)
    return {"ambient_rank": 4, "generators": gens, "relations": None, "faces": faces}


def hilbert_chart(a):
    """The 2-D cone spanned by (1,0) and (1,a), with its Hilbert basis
    (1,i), 0 <= i <= a; the quadrics x_i x_j = x_(i+1) x_(j-1) relate them."""
    gens = tuple((1, i) for i in range(a + 1))
    rels = []
    for i in range(a + 1):
        for j in range(i + 2, a + 1):
            lhs = [0] * (a + 1)
            rhs = [0] * (a + 1)
            lhs[i] += 1
            lhs[j] += 1
            rhs[i + 1] += 1
            rhs[j - 1] += 1
            rels.append((tuple(lhs), tuple(rhs)))
    faces = {(): (2, 0), ((1, 0),): (1, 1), ((1, a),): (1, 1), gens: (0, 2)}
    return {"ambient_rank": 2, "generators": gens, "relations": tuple(rels), "faces": faces}


def present(chart, rng, relations="as-given", permute=True):
    """A seeded presentation of a hand-written chart as plain data.

    With ``permute``, coordinates and generators are permuted; relations
    and the face table follow the permutation.  ``relations`` is
    "as-given", "supplied" or "omitted".
    """
    d = chart["ambient_rank"]
    gens0 = chart["generators"]
    k = len(gens0)
    cperm = list(range(d))
    gperm = list(range(k))
    if permute:
        rng.shuffle(cperm)
        rng.shuffle(gperm)

    def move(v):
        return tuple(v[cperm[i]] for i in range(d))

    gens = [move(gens0[j]) for j in gperm]
    rels = chart["relations"]
    if relations == "omitted":
        rels = None
    elif relations == "supplied" and rels is None:
        rels = ()
    if rels is not None:
        rels = [[[r[j] for j in gperm], [s[j] for j in gperm]] for r, s in rels]
    faces = []
    for vecs, (stalk_rank, face_rank) in chart["faces"].items():
        support = sorted(gens.index(move(v)) for v in vecs)
        faces.append({"support": support, "stalk_rank": stalk_rank,
                      "face_rank": face_rank})
    faces.sort(key=lambda f: (len(f["support"]), f["support"]))
    gp_rank = chart["faces"][()][0]
    return {"ambient_rank": d, "generators": [list(g) for g in gens],
            "relations": rels, "gp_rank": gp_rank, "faces": faces}


def _spec(lc, chart):
    rels = None
    if chart["relations"] is not None:
        rels = [(r, s) for r, s in chart["relations"]]
    return lc.MonoidSpec.make(chart["ambient_rank"], chart["generators"], rels)


def _fixed_charts(lc, charts):
    """Validate the workload's fixed charts and look up every face of the
    hand-written table; checks the face count against the table."""
    out = {}
    for name, chart in charts.items():
        m = lc.validate(_spec(lc, chart), chart["degree_bound"])
        found = lc.faces(m)
        if len(found) != len(chart["faces"]):
            raise RuntimeError(f"{name}: {len(found)} faces, expected {len(chart['faces'])}")
        faces = {tuple(f["support"]): lc.face_with_support(m, f["support"])
                 for f in chart["faces"]}
        out[name] = (m, faces)
    return out


# --------------------------------------------------------------------------
# compare: verify_fiber_equivalence on every face, bounds up to 100.

COMPARE_CHARTS = {"log_point": 20, "affine_line": 20, "plane_axes": 20,
                  "a1_cone": 20, "square_cone": 4}
# One op per face and rung per cycle.  The seed lowers each bound by at
# most a 25th of its rung, so that a cycle's cost hardly depends on it.
BOUND_RUNGS = (1, 3, 10, 30, 100)


class Compare:
    name = "compare"
    children = False

    def inputs(self, seed):
        rng = random.Random(f"compare:{seed}")
        charts = {}
        for name, degree_bound in COMPARE_CHARTS.items():
            # The simplex's pivoting path, and so a comparison's cost, depends
            # on the presentation by up to 10% per cycle: keep it fixed here.
            charts[name] = present(FIXED_CHARTS[name], rng, permute=False)
            charts[name]["degree_bound"] = degree_bound
        ops = []
        for name, chart in charts.items():
            for face in chart["faces"]:
                for rung in BOUND_RUNGS:
                    ops.append({"family": name, "chart": name, "face": face["support"],
                                "bound": rung - rng.randint(0, rung // 25),
                                "expect": {"equivalent": True,
                                           "torus_rank": face["stalk_rank"]}})
        rng.shuffle(ops)
        return {"charts": charts, "ops": ops}

    def setup(self, lc, inputs, root):
        return {"lc": lc, "charts": _fixed_charts(lc, inputs["charts"])}

    def execute(self, state, op):
        m, faces = state["charts"][op["chart"]]
        return state["lc"].fibers.verify_fiber_equivalence(
            m, faces[tuple(op["face"])], op["bound"])

    def check(self, op, outcome):
        if isinstance(outcome, BaseException):
            return type(outcome).__name__
        ok, cert = outcome
        exp = op["expect"]
        if ok != exp["equivalent"] or cert.torus_rank != exp["torus_rank"] \
                or cert.bound != op["bound"]:
            return "wrong-answer"
        return None

    def digest(self, outcome):
        return repr(outcome)

    def teardown(self, state):
        pass


# --------------------------------------------------------------------------
# torsor: torsor_check and algebraic_kummer_fiber on every stratum.

TORSOR_CHARTS = {"log_point": 20, "plane_axes": 20, "a1_cone": 20,
                 "square_cone": 4, "n3": 20}
# Cover degrees per group rank; the deck-action scan costs n^(2r).
N_RANGE = {1: range(2, 17), 2: range(2, 7), 3: range(2, 5)}
# Ops at this cover degree use floating-mode points.
FLOAT_N = 2
TURN_DENOMINATORS = (2, 3, 4, 4, 4, 6, 8)


def _quarter_unit(turn):
    """exp(2 pi i turn) for a quarter turn, as (re, im)."""
    return {Fraction(0): (1, 0), Fraction(1, 4): (0, 1),
            Fraction(1, 2): (-1, 0), Fraction(3, 4): (0, -1)}.get(turn)


def torsor_point(chart, support, rng, exact):
    """A log point on the stratum of the face ``support``, built as a
    monoid homomorphism: per ambient coordinate a positive rational radius
    factor and a rational turn, pushed through the generator exponents, so
    every relation holds.  Radii vanish exactly off the face.  Also the
    complex point with the same coordinates."""
    d = chart["ambient_rank"]
    rho = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)]
    q = rng.choice(TURN_DENOMINATORS)
    theta = [Fraction(rng.randrange(q), q) for _ in range(d)]
    radii, turns = [], []
    for i, gen in enumerate(chart["generators"]):
        turn = sum((e * t for e, t in zip(gen, theta)), Fraction(0)) % 1
        radius = Fraction(0)
        if i in support:
            radius = Fraction(1)
            for p, e in zip(rho, gen):
                radius *= p ** e
        radii.append(radius)
        turns.append(turn)
    units = [_quarter_unit(t) for t in turns]
    if exact:
        kn = {"exact": True, "radii": [str(r) for r in radii], "turns": [str(t) for t in turns]}
    else:
        kn = {"exact": False, "radii": [float(r) for r in radii],
              "angles": [[math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)]
                         for t in turns]}
    if exact and all(u is not None for u in units):
        cx = {"exact": True, "values": [[str(r * u[0]), str(r * u[1])]
                                        for r, u in zip(radii, units)]}
    else:
        cx = {"exact": False, "values": []}
        for r, t in zip(radii, turns):
            z = float(r) * cmath.exp(2j * math.pi * float(t))
            cx["values"].append([z.real, z.imag])
    return kn, cx


class Torsor:
    name = "torsor"
    children = False

    def inputs(self, seed):
        rng = random.Random(f"torsor:{seed}")
        charts = {}
        for name, degree_bound in TORSOR_CHARTS.items():
            charts[name] = present(FIXED_CHARTS[name], rng)
            charts[name]["degree_bound"] = degree_bound
        ops = []
        for name, chart in charts.items():
            r = chart["gp_rank"]
            for face in chart["faces"]:
                for n in N_RANGE[r]:
                    kn, cx = torsor_point(chart, face["support"], rng, exact=n != FLOAT_N)
                    ops.append({"family": f"{name} {'exact' if n != FLOAT_N else 'float'}",
                                "chart": name, "face": face["support"], "n": n,
                                "kn": kn, "cx": cx,
                                "expect": {"ok": True, "fiber_size": n ** r,
                                           "group_order": n ** r,
                                           "algebraic_size": n ** face["face_rank"]}})
        rng.shuffle(ops)
        return {"charts": charts, "ops": ops}

    def setup(self, lc, inputs, root):
        points = []
        for op in inputs["ops"]:
            kn, cx = op["kn"], op["cx"]
            if kn["exact"]:
                kp = lc.KnPoint.exact_point(
                    [(Fraction(r), Fraction(t)) for r, t in zip(kn["radii"], kn["turns"])])
            else:
                kp = lc.KnPoint.floating(
                    [(r, complex(*a)) for r, a in zip(kn["radii"], kn["angles"])])
            if cx["exact"]:
                cp = lc.CxPoint.exact_point(
                    [lc.GaussianRational(Fraction(re), Fraction(im)) for re, im in cx["values"]])
            else:
                cp = lc.CxPoint.floating([complex(re, im) for re, im in cx["values"]])
            points.append((kp, cp))
        return {"lc": lc, "charts": _fixed_charts(lc, inputs["charts"]),
                "points": {id(op): p for op, p in zip(inputs["ops"], points)}}

    def execute(self, state, op):
        m, _ = state["charts"][op["chart"]]
        kp, cp = state["points"][id(op)]
        fibers = state["lc"].fibers
        ok, report = fibers.torsor_check(m, kp, op["n"])
        algebraic = fibers.algebraic_kummer_fiber(m, cp, op["n"])
        return ok, report, algebraic

    def check(self, op, outcome):
        if isinstance(outcome, BaseException):
            return type(outcome).__name__
        ok, report, algebraic = outcome
        exp = op["expect"]
        if (ok != exp["ok"] or report.fiber_size != exp["fiber_size"]
                or report.group_order != exp["group_order"]
                or len(algebraic) != exp["algebraic_size"]):
            return "wrong-answer"
        return None

    def digest(self, outcome):
        return repr(outcome)

    def teardown(self, state):
        pass


# --------------------------------------------------------------------------
# charts: ingest one new chart per op.

# One per supplied/omitted and degree-bound pairing; the pair sets the cost
# of finding the saturation witness, so it is fixed rather than seeded.
SEMIGROUPS = ((2, 3), (3, 5), (4, 7), (5, 9))
NON_SHARP = [
    (1, ((1,), (-1,))),
    (2, ((1, 0), (-1, 0), (0, 1))),
    (2, ((1, 0), (0, 1), (-1, -1))),
    (2, ((1, 1), (-1, -1), (0, 1))),
    (2, ((2, 1), (-2, -1))),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))),
]


def _error_chart(d, gens, rels):
    return {"ambient_rank": d, "generators": gens, "relations": rels, "faces": {(): (0, 0)}}


class Charts:
    name = "charts"
    children = False

    def _op(self, rng, family, params, chart, relations, degree_bound, expect):
        # Fixed presentations: the order of the saturation scan, and so the
        # time to the first witness, depends on them by up to 3x per op.
        shown = present(chart, rng, relations, permute=False)
        op = {"family": family, "params": dict(params, relations=relations,
                                               degree_bound=degree_bound),
              "chart": {"ambient_rank": shown["ambient_rank"],
                        "generators": shown["generators"],
                        "relations": shown["relations"]},
              "degree_bound": degree_bound,
              "target": rng.choice(("complex", "kn")),
              "expect": expect}
        if expect == "valid":
            k = len(shown["generators"])
            op["expect"] = {
                "verdict": "valid",
                "face_count": len(shown["faces"]),
                "gp_rank": shown["gp_rank"],
                "stalk_ranks": sorted(f["stalk_rank"] for f in shown["faces"]),
                # A supplied set is kept as given; an omitted one is
                # synthesized from a basis of the integer kernel, of
                # rank k - gp rank.
                "equations": (len(shown["relations"]) if shown["relations"] is not None
                              else k - shown["gp_rank"]),
            }
        else:
            op["expect"] = {"verdict": expect}
        return op

    def inputs(self, seed):
        rng = random.Random(f"charts:{seed}")
        ops = []
        # Every family appears at both degree bounds, and the Hilbert cones
        # with relations both supplied and omitted, in every cycle: a
        # seeded choice between them moved a cycle's cost by a fifth.
        for d in (1, 2, 3, 4):
            for degree_bound in (20, 40):
                ops.append(self._op(rng, "smooth", {"d": d}, smooth_chart(d),
                                    "omitted", degree_bound, "valid"))
        for a in (1, 2, 3, 4):
            for relations, degree_bound in itertools.product(("supplied", "omitted"),
                                                             (20, 40)):
                ops.append(self._op(rng, "hilbert-cone", {"a": a}, hilbert_chart(a),
                                    relations, degree_bound, "valid"))
        # At degree bound 40 one op costs 5 s (square) or 12 s (cube) on a
        # 2.1 GHz Xeon, a third of a run or more, so these run at 20 only.
        square = dict(FIXED_CHARTS["square_cone"], relations=SQUARE_RELATIONS)
        for relations in ("supplied", "omitted"):
            ops.append(self._op(rng, "square-cone", {}, square, relations, 20, "valid"))
        ops.append(self._op(rng, "cube-cone", {}, cube_chart(), "omitted", 20, "valid"))
        combos = itertools.product(("supplied", "omitted"), (20, 40))
        for (relations, degree_bound), (a, b) in zip(combos, SEMIGROUPS):
            semigroup = _error_chart(1, ((a,), (b,)), (((b, 0), (0, a)),))
            ops.append(self._op(rng, "numerical-semigroup", {"a": a, "b": b}, semigroup,
                                relations, degree_bound, "SaturationFailure"))
            gapped = _error_chart(2, ((1, 0), (1, 1), (1, 3)), (((2, 0, 1), (0, 3, 0)),))
            ops.append(self._op(rng, "gapped-cone", {}, gapped, relations, degree_bound,
                                "SaturationFailure"))
        for degree_bound in (20, 20, 40, 40):
            d, gens = rng.choice(NON_SHARP)
            ops.append(self._op(rng, "non-sharp", {"shape": list(map(list, gens))},
                                _error_chart(d, gens, None), "omitted", degree_bound,
                                "NotSharp"))
        # One mixed order for every seed: an op's cost depends on the ops
        # run just before it (by 40% at the median), so a seeded order moved
        # op_p50_ms from seed to seed.
        random.Random("charts-order").shuffle(ops)
        return {"ops": ops}

    def setup(self, lc, inputs, root):
        specs = {id(op): _spec(lc, op["chart"]) for op in inputs["ops"]}
        return {"lc": lc, "specs": specs}

    def execute(self, state, op):
        lc = state["lc"]
        m = lc.monoid.validate(state["specs"][id(op)], op["degree_bound"])
        found = lc.monoid.faces(m)
        table = lc.strata.stratify(m)
        system = lc.semialg.emit_equations(m, op["target"])
        return m, found, table, system

    def check(self, op, outcome):
        exp = op["expect"]
        if isinstance(outcome, BaseException):
            name = type(outcome).__name__
            return None if name == exp["verdict"] else name
        if exp["verdict"] != "valid":
            return "no-error"
        m, found, table, system = outcome
        if (len(found) != exp["face_count"] or m.gp_lattice_rank != exp["gp_rank"]
                or sorted(e.stalk_rank for e in table.entries) != exp["stalk_ranks"]
                or len(system.equations) != exp["equations"]
                or system.variable_count != len(op["chart"]["generators"])):
            return "wrong-answer"
        return None

    def digest(self, outcome):
        if isinstance(outcome, BaseException):
            return f"{type(outcome).__name__}: {outcome}"
        return repr(outcome)

    def teardown(self, state):
        pass


# --------------------------------------------------------------------------
# cli: one cold logcharts process per op.

CLI_CHARTS = ("log_point", "affine_line", "plane_axes", "a1_cone")
# A fixed small bound: a comparison's cost grows with it, and a seeded one
# made the slowest invocations differ from seed to seed.
CLI_COMPARE_BOUND = 4


def _chart_document(name, chart):
    doc = {"name": name, "ambient_rank": chart["ambient_rank"],
           "generators": chart["generators"]}
    if chart["relations"] is not None:
        doc["relations"] = [{"lhs": r, "rhs": s} for r, s in chart["relations"]]
    return doc


def _lookup(payload, path):
    """Values at a dotted path; ``*`` maps over a list."""
    values = [payload]
    for key in path.split("."):
        nxt = []
        for v in values:
            if key == "*":
                nxt.extend(v)
            else:
                nxt.append(v[key])
        values = nxt
    return values


class Cli:
    name = "cli"
    children = True

    def inputs(self, seed):
        rng = random.Random(f"cli:{seed}")
        folder = f"perfbench/out/cli-seed{seed}"
        files = {}
        ops = []

        def add(family, argv, exit_code, checks=()):
            ops.append({"family": family, "argv": argv, "expect": {
                "exit": exit_code, "checks": [list(c) for c in checks]}})

        for name in CLI_CHARTS:
            chart = present(FIXED_CHARTS[name], rng)
            doc_name = f"{name}-{rng.randrange(10 ** 6)}"
            path = f"{folder}/{name}.json"
            files[path] = _chart_document(doc_name, chart)
            k, r = len(chart["generators"]), chart["gp_rank"]
            relation_count = (len(chart["relations"]) if chart["relations"] is not None
                              else k - r)
            add("info", ["info", path], 0, [
                ("name", doc_name), ("generator_count", k), ("gp_rank", r),
                ("face_count", len(chart["faces"])), ("sharp", True),
                ("relation_count", relation_count)])
            add("strata", ["strata", path], 0, [
                ("max_rank", r),
                ("strata.*.rank", sorted(f["stalk_rank"] for f in chart["faces"]))])
            n = rng.randint(2, 12)
            add("mu", ["mu", path, str(n)], 0, [
                ("free_rank", 0), ("torsion", [n] * r)])
            target = rng.choice(("complex", "kn"))
            add("emit", ["emit", path, "--target", target], 0, [
                ("target", target), ("variable_count", k),
                ("equation_count", relation_count)])
            face = rng.choice(chart["faces"])
            n = rng.randint(2, 8 if r == 1 else 4)
            kn, _ = torsor_point(chart, face["support"], rng, exact=True)
            point = json.dumps({"radii": kn["radii"], "turns": kn["turns"]})
            add("torsor", ["torsor", path, str(n), "--point", point], 0, [
                ("ok", True), ("torsor.fiber_size", n ** r),
                ("torsor.group_order", n ** r)])
            for face in chart["faces"]:
                support = ",".join(map(str, face["support"]))
                s = face["stalk_rank"]
                n = rng.randint(2, 12)
                add("fiber", ["fiber", path, str(n), "--face", support], 0, [
                    ("kn_torus_rank", s), ("kn_pi1.free_rank", s),
                    ("root_level.free_rank", 0), ("root_level.torsion", [n] * s)])
                bound = CLI_COMPARE_BOUND
                add("compare", ["compare", path, "--face", support, "--bound", str(bound)], 0, [
                    ("equivalent", True), ("torus_rank", s), ("levels", bound)])
        bad = f"{folder}/unknown_field.json"
        files[bad] = dict(_chart_document("bad", present(FIXED_CHARTS["a1_cone"], rng)),
                          colour="red")
        add("bad-input", ["mu", f"{folder}/log_point.json", "0"], 2)
        add("bad-input", ["info", bad], 2)
        add("bad-input", ["info", f"{folder}/missing.json"], 2)
        # One order for every seed, as in the charts workload.
        random.Random("cli-order").shuffle(ops)
        return {"files": files, "ops": ops}

    def setup(self, lc, inputs, root):
        for path, doc in inputs["files"].items():
            full = os.path.join(root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        env = {k: v for k, v in os.environ.items() if not k.startswith("LOGCHARTS_")}
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return {"root": root, "env": env, "files": list(inputs["files"]),
                "trace_dir": None, "trace_parts": []}

    def execute(self, state, op):
        """Run one child; with ``trace_dir`` set, through the tracing shim."""
        if state["trace_dir"] is None:
            argv = [sys.executable, "-m", "logcharts.cli"] + op["argv"]
            out_path = None
        else:
            out_path = os.path.join(state["trace_dir"], f"{len(state['trace_parts'])}.json")
            argv = [sys.executable, os.path.join(state["root"], "perfbench", "shim.py"),
                    out_path] + op["argv"]
        proc = subprocess.run(argv, cwd=state["root"], env=state["env"],
                              capture_output=True, timeout=120)
        if out_path is not None:
            with open(out_path, encoding="utf-8") as handle:
                state["trace_parts"].append(json.load(handle))
            os.remove(out_path)
        return proc.returncode, proc.stdout

    def check(self, op, outcome):
        if isinstance(outcome, BaseException):
            return type(outcome).__name__
        code, stdout = outcome
        exp = op["expect"]
        if code != exp["exit"]:
            return f"exit-{code}"
        if code != 0:
            return None
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "bad-json"
        for path, want in exp["checks"]:
            try:
                if path == "equation_count":
                    got = len(payload["equations"])
                elif "*" in path:
                    got = sorted(_lookup(payload, path))
                else:
                    got = _lookup(payload, path)[0]
            except (KeyError, TypeError, IndexError):
                return "wrong-answer"
            if got != want:
                return "wrong-answer"
        return None

    def digest(self, outcome):
        return repr(outcome)

    def teardown(self, state):
        for path in state["files"]:
            full = os.path.join(state["root"], path)
            if os.path.exists(full):
                os.remove(full)
        folder = os.path.dirname(os.path.join(state["root"], state["files"][0]))
        if os.path.isdir(folder) and not os.listdir(folder):
            os.rmdir(folder)


WORKLOADS = {w.name: w for w in (Compare(), Torsor(), Charts(), Cli())}
