"""CLI: schema strictness, exit codes, output determinism."""

import json
import os
import subprocess
import sys

import pytest

import cli_golden
import logcharts.fibers as fibers_mod
import logcharts.monoid as monoid_mod
from logcharts.abgrp import smith_normal_form
from logcharts.cli import ChartDocument, corpus_path, load_chart, main
from logcharts.errors import ChartError
from logcharts.monoid import faces, stalk, validate
from oracles import quadric_relations

CORPUS = ["log_point", "affine_line", "plane_axes", "a1_cone"]


def run_cli(args, env_extra=None):
    proc = subprocess.run(
        [sys.executable, "-m", "logcharts.cli", *args],
        capture_output=True, text=True, env={**os.environ, **(env_extra or {})})
    return proc.returncode, proc.stdout, proc.stderr


def test_corpus_charts_load_and_validate():
    for name in CORPUS:
        chart = load_chart(corpus_path(name))
        assert chart.name


def test_unknown_chart_fields_rejected():
    with pytest.raises(ChartError):
        ChartDocument.from_json_dict(
            {"name": "x", "ambient_rank": 1, "generators": [[1]], "extra": 1})
    with pytest.raises(ChartError):
        ChartDocument.from_json_dict(
            {"name": "x", "ambient_rank": 1, "generators": [[1]],
             "options": {"bogus": 2}})
    with pytest.raises(ChartError):
        ChartDocument.from_json_dict(
            {"name": "x", "ambient_rank": 1, "generators": [[1]],
             "relations": [{"lhs": [1]}]})
    with pytest.raises(ChartError, match="must be a JSON object"):
        ChartDocument.from_json_dict([{"name": "x", "ambient_rank": 1, "generators": [[1]]}])
    with pytest.raises(ChartError, match="missing 'generators'"):
        ChartDocument.from_json_dict({"name": "x", "ambient_rank": 1})


def test_info_log_point(capsys):
    code = main(["info", corpus_path("log_point")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gp_rank"] == 1 and out["face_count"] == 2


def test_info_quadrant_and_cone(capsys):
    code = main(["info", corpus_path("plane_axes")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gp_rank"] == 2 and out["face_count"] == 4
    code = main(["info", corpus_path("a1_cone")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gp_rank"] == 2 and out["face_count"] == 4 and out["relation_count"] == 1


def test_mu_output(capsys):
    code = main(["mu", corpus_path("plane_axes"), "6"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["torsion"] == [6, 6] and out["free_rank"] == 0


def test_emit_a1_cone(capsys):
    code = main(["emit", corpus_path("a1_cone"), "--target", "complex"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equations"] == [{"lhs": [1, 0, 1], "rhs": [0, 2, 0]}]


def test_strata_output(capsys):
    code = main(["strata", corpus_path("a1_cone")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_rank"] == 2
    assert sorted(e["rank"] for e in out["strata"]) == [0, 1, 1, 2]


def test_compare_log_point_vertex(capsys):
    code = main(["compare", corpus_path("log_point"), "--face", "", "--bound", "100"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equivalent"] is True and out["levels"] == 100


def test_fiber_output(capsys):
    # on every face: the torus fiber has pi1 = Z^r, and level n of the root
    # tower is (Z/n)^r
    for name in CORPUS:
        chart = load_chart(corpus_path(name))
        m = validate(chart.spec)
        for face in faces(m):
            r = stalk(m, face)[1]
            for n in (1, 2, 4, 6):
                code = main(["fiber", corpus_path(name), str(n),
                             "--face", ",".join(map(str, face.support))])
                assert code == 0
                assert json.loads(capsys.readouterr().out) == {
                    "name": chart.name,
                    "face": list(face.support),
                    "n": n,
                    "kn_torus_rank": r,
                    "kn_pi1": {"free_rank": r, "torsion": []},
                    "root_level": {"free_rank": 0, "torsion": [n] * r if n > 1 else []},
                }, (name, face.support, n)


def test_torsor_at_a_face_takes_its_distinguished_point(capsys):
    # radius 1 and turn 0 on the face, radius 0 and turn 0 off it; with no
    # --face, the vertex's
    for flags, point in (([], "((0, 0 turn), (0, 0 turn), (0, 0 turn))"),
                         (["--face", "0"], "((1, 0 turn), (0, 0 turn), (0, 0 turn))"),
                         (["--face", "0,1,2"], "((1, 0 turn), (1, 0 turn), (1, 0 turn))")):
        assert main(["torsor", corpus_path("a1_cone"), "2", *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["point"] == point and out["ok"] is True
        assert out["torsor"]["group_order"] == out["torsor"]["fiber_size"] == 4


def test_torsor_inline_point(capsys):
    code = main(["torsor", corpus_path("log_point"), "6",
                 "--point", '{"radii": ["2"], "turns": ["1/3"]}'])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["torsor"]["group_order"] == 6


def test_torsor_non_finite_radius_is_an_input_error(capsys):
    code = main(["torsor", corpus_path("a1_cone"), "3", "--point",
                 '{"radii": [NaN, 1, 1], "angles": [[1, 0], [1, 0], [1, 0]]}'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: radius must be finite"), captured.err


def test_torsor_non_finite_or_huge_angle_is_an_input_error(capsys):
    # the last angle is read as 1/8 turn without its modulus, which
    # overflows, and is then off z0 z2 = z1^2
    for angle in ("[NaN, 0]", "[1, Infinity]", "[-Infinity, NaN]", "[1.5e308, 1.5e308]"):
        code = main(["torsor", corpus_path("a1_cone"), "3", "--point",
                     '{"radii": [1, 1, 1], "angles": [%s, [1, 0], [1, 0]]}' % angle])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", angle
        assert captured.err.startswith("error: "), (angle, captured.err)


def test_the_tolerance_option_is_an_unknown_field(tmp_path, capsys):
    # the chart option "tolerance" was read by torsor; it went with the
    # floating log model, announced, as did --tol (_UNREAD_FLAGS), and the
    # options block went after it, so both now exit 2
    chart = tmp_path / "tolerance.json"
    chart.write_text(_chart('"generators": [[1]], "options": {"tolerance": 1e-9}'))
    for argv in (["info", str(chart)], ["torsor", str(chart), "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: unknown chart fields: ['options']\n", captured.err


def test_exact_radii_may_be_radicals_as_they_print(capsys):
    # q^(1/k) and (a/b)^(1/k), the forms NonnegRoot prints, are exact radii
    cone = corpus_path("a1_cone")
    for radii, printed in ((["1", "2^(1/2)", "2"], "((1, 0 turn), (2^(1/2), 0 turn), (2, 0 turn))"),
                           (["(1/2)^(1/3)", "(1/2)^(1/3)", "(1/2)^(1/3)"],
                            "((1/2)^(1/3), 0 turn), ((1/2)^(1/3), 0 turn), "
                            "((1/2)^(1/3), 0 turn))"),
                           (["4^(1/2)", "4^(1/2)", "2"], "((2, 0 turn), (2, 0 turn), (2, 0 turn))"),
                           (["2^(1/64)"] * 3, ", (2^(1/64), 0 turn))")):
        point = json.dumps({"radii": radii, "turns": ["0"] * 3})
        assert main(["torsor", cone, "2", "--point", point]) == 0, radii
        assert json.loads(capsys.readouterr().out)["point"].endswith(printed), radii
    # a zero degree, a degree above 64, a sign, an unbracketed fraction
    # base or another exponent is malformed
    for radius in ("2^(1/0)", "2^(1/65)", "2^(1/1000000000000)", "(-2)^(1/2)", "1/2^(1/3)",
                   "2^(1/x)", "2^(2/3)", "2^1/2"):
        point = json.dumps({"radii": [radius, "1", "1"], "turns": ["0"] * 3})
        assert main(["torsor", cone, "2", "--point", point]) == 2, radius
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(
            "error: point has a malformed coordinate: "), (radius, captured.err)


def test_exit_code_2_on_input_errors(tmp_path):
    code, _, err = run_cli(["info", str(tmp_path / "missing.json")])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "bad", "ambient_rank": 1, "generators": [[1], [-1]]}')
    code, _, err = run_cli(["info", str(bad)])
    assert code == 2 and "line" in err  # NotSharp message surfaced
    bad.write_text('{"name": "bad", "ambient_rank": 1,')
    code, _, err = run_cli(["info", str(bad)])
    assert code == 2 and err.startswith("error: chart file is not valid JSON: "), err
    cone = corpus_path("a1_cone")
    for args in [
        ["mu", cone, "0"],
        ["fiber", cone, "0"],
        ["torsor", cone, "0"],
        ["compare", cone, "--bound", "0"],
        ["compare", cone, "--bound", "1000000000"],
        ["compare", cone, "--face", "0,x"],
        ["compare", cone, "--face", "7"],
        ["compare", cone, "--face", "0,0", "--bound", "2"],
        ["torsor", cone, "2", "--point", "notjson"],
        ["torsor", cone, "2", "--point",
         '{"radii": ["1", "1", "1"], "turns": ["0", "0", "0", "1/2"]}'],
        ["torsor", cone, "2", "--point",
         '{"radii": ["abc", "1", "1"], "turns": ["0", "0", "0"]}'],
        ["torsor", cone, "2", "--point",
         '{"radii": [1, 1, 1], "angles": [1, 2, 3]}'],
        ["torsor", cone, "2", "--point", '{"radii": 5, "turns": ["0"]}'],
        ["torsor", cone, "2", "--point",
         '{"radii": ["-1", "1", "1"], "turns": ["0", "0", "0"]}'],
        # off the variety although the floats agree: 1 * (2^62 + 1) != (2^31)^2
        ["torsor", cone, "2", "--point",
         '{"radii": ["1", "2147483648", "4611686018427387905"], "turns": ["0", "0", "0"]}'],
        ["torsor", cone, "2", "--point",
         '{"radii": ["1e400", "1", "1"], "turns": ["0", "0", "0"]}'],
        # an unknown field, and both circle fields, were accepted and ignored
        ["torsor", cone, "2", "--point",
         '{"radii": ["1", "1", "1"], "turns": ["0", "0", "0"], "colour": 5}'],
        ["torsor", cone, "2", "--point",
         '{"radii": ["1", "1", "1"], "turns": ["0", "0", "0"], '
         '"angles": [[0, 1], [0, 1], [0, 1]]}'],
        # --face was ignored beside --point
        ["torsor", cone, "2", "--face", "0", "--point",
         '{"radii": ["1", "1", "1"], "turns": ["0", "0", "0"]}'],
        ["torsor", cone, "1000"],
        ["info", cone, "--degree-bound", "-3"],
        # a free chart skips the saturation box, not the bound check
        ["info", corpus_path("log_point"), "--degree-bound", "-3"],
    ]:
        code, _, err = run_cli(args)
        assert code == 2 and err.startswith("error: "), (args, err)


def _chart(fields):
    return '{"name": "x", "ambient_rank": 1, %s}' % fields


@pytest.mark.parametrize("text", [
    # non-integers were truncated, and a bool read as a number, and accepted
    pytest.param(_chart('"generators": [[1.5]]'), id="float-generator"),
    pytest.param(_chart('"generators": [[true]]'), id="bool-generator"),
    pytest.param(_chart('"generators": [[1], [2]], '
                        '"relations": [{"lhs": [2.5, 0], "rhs": [0, 1.25]}]'),
                 id="float-relation"),
    pytest.param(_chart('"generators": [[1]], "options": {"degree_bound": 2.7}'),
                 id="float-degree-bound"),
    pytest.param(_chart('"generators": [[1]], "options": {"seed": 2.5}'), id="float-seed"),
    # strings of numbers were converted and run
    pytest.param(_chart('"generators": [[1]], "options": {"degree_bound": "7"}'),
                 id="string-degree-bound"),
    pytest.param(_chart('"generators": [[1]], "options": {"seed": "5"}'), id="string-seed"),
    # bad shapes and values were internal errors
    pytest.param(_chart('"generators": 5'), id="int-generators"),
    pytest.param(_chart('"generators": [[1, "a"]]'), id="string-entry"),
    pytest.param('{"name": "x", "ambient_rank": "x", "generators": [[1]]}',
                 id="string-ambient-rank"),
    pytest.param(_chart('"generators": [[1]], "relations": 5'), id="int-relations"),
    pytest.param(_chart('"generators": [[1]], "relations": [{"lhs": 5, "rhs": [1]}]'),
                 id="int-lhs"),
    pytest.param(_chart('"generators": [[1]], "options": {"degree_bound": 1e400}'),
                 id="huge-degree-bound"),
    pytest.param(_chart('"generators": [[1]], "options": 5'), id="int-options"),
    # options that are not an object were read as no options
    pytest.param(_chart('"generators": [[1]], "options": []'), id="list-options"),
    pytest.param(_chart('"generators": [[1]], "options": false'), id="false-options"),
    pytest.param(_chart('"generators": [[1]], "options": 0'), id="zero-options"),
    pytest.param(_chart('"generators": [[1]], "options": ""'), id="empty-string-options"),
])
def test_chart_values_of_the_wrong_type_are_input_errors(tmp_path, capsys, text):
    chart = tmp_path / "chart.json"
    chart.write_text(text)
    code = main(["info", str(chart)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert captured.err.startswith("error: "), captured.err
    if "options" in json.loads(text):  # a chart holds no settings, whatever their value
        assert captured.err == "error: unknown chart fields: ['options']\n", captured.err


def test_options_are_not_a_chart_field(tmp_path, capsys):
    # an options block set the degree bound and the seed, and null read as
    # no options; settings are flags now, and every options block exits 2
    chart = tmp_path / "chart.json"
    for options in ("null", "{}", '{"seed": 0}', '{"degree_bound": 7}'):
        chart.write_text(_chart('"generators": [[1]], "options": %s' % options))
        for argv in (["info", str(chart)], ["compare", str(chart)],
                     ["torsor", str(chart), "2", "--face", "0"]):
            assert main(argv) == 2, (options, argv)
            captured = capsys.readouterr()
            assert captured.out == "", (options, argv)
            assert captured.err == "error: unknown chart fields: ['options']\n", captured.err


def test_closed_stdout_exits_2_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "logcharts.cli", "compare", corpus_path("a1_cone")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr


def run_cli_into_closed_pipe(args, stdout_too=False):
    """Exit code and captured stdout of the CLI with stderr, and with
    stdout_too stdout as well, the write end of a pipe whose read end is
    closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "logcharts.cli", *args],
            stdout=write_end if stdout_too else subprocess.PIPE, stderr=write_end,
            text=True, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("args, stdout_too", [
    (["info", "missing.json"], False),
    (["mu", corpus_path("a1_cone"), "0"], False),
    (["info", corpus_path("a1_cone")], True),
], ids=["missing-file", "level-0", "valid-info-into-closed-stdout"])
def test_an_unwritable_error_message_keeps_the_exit_code(args, stdout_too):
    # an input or output error exits 2 even when its message cannot be
    # written; 1 stays reserved for a falsified property
    code, out = run_cli_into_closed_pipe(args, stdout_too)
    assert code == 2 and not out, (code, out)


def test_a_closed_stderr_alone_does_not_fail_a_valid_run():
    code, out = run_cli_into_closed_pipe(["info", corpus_path("a1_cone")])
    assert code == 0 and json.loads(out)["face_count"] == 4, (code, out)


# Each subcommand, with the layers a cold process running it must not load.
COLD_COMMANDS = [
    (["info"], ("fibers", "profin", "semialg", "exactnum", "strata")),
    (["mu", "2"], ("fibers", "profin", "semialg", "exactnum", "strata")),
    (["fiber", "2", "--face", "0"], ("fibers", "profin", "semialg", "exactnum", "strata")),
    (["compare", "--bound", "10"], ("strata", "semialg", "exactnum")),
    (["strata"], ("fibers", "profin", "semialg", "exactnum")),
    (["emit", "--target", "kn"], ("fibers", "profin", "strata")),
    (["torsor", "2"], ("strata", "profin")),
]


@pytest.mark.parametrize("command, unloaded", COLD_COMMANDS,
                         ids=[command[0] for command, _ in COLD_COMMANDS])
def test_cold_command_loads_only_the_layers_it_runs(command, unloaded):
    script = ("import sys\n"
              "from logcharts import cli\n"
              f"assert cli.main([{command[0]!r}, cli.corpus_path('a1_cone'), "
              f"*{command[1:]!r}]) == 0\n"
              "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "logcharts.monoid" in loaded
    for layer in unloaded:
        assert f"logcharts.{layer}" not in loaded, loaded
    # the record base stands in for dataclasses, which would load inspect
    assert not loaded & {"dataclasses", "inspect"}, loaded


@pytest.mark.parametrize("generators, relation, radii", [
    # the A1 cone: a power overflows
    ([[1, 0], [1, 1], [1, 2]], [[1, 0, 1], [0, 2, 0]], [1e300, 1e300, 2e300]),
    # the square cone: both sides are inf, although 2e400 != 1e400
    ([[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]], [[1, 0, 0, 1], [0, 1, 1, 0]],
     [1e200, 1e200, 1e200, 2e200]),
], ids=["overflow", "both-sides-inf"])
def test_floating_points_beyond_the_float_range_are_refused(tmp_path, generators, relation,
                                                            radii):
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps({"name": "cone", "ambient_rank": len(generators[0]),
                                 "generators": generators,
                                 "relations": [{"lhs": relation[0], "rhs": relation[1]}]}))
    point = json.dumps({"radii": radii, "angles": [[1, 0]] * len(radii)})
    code, out, err = run_cli(["torsor", str(chart), "2", "--point", point])
    assert (code, out) == (2, ""), out
    assert err == "error: point violates the relations (residual inf)\n", err


def _square_chart(tmp_path):
    chart = tmp_path / "square.json"
    chart.write_text(json.dumps({
        "name": "square", "ambient_rank": 3,
        "generators": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
        "relations": [{"lhs": [1, 0, 0, 1], "rhs": [0, 1, 1, 0]}]}))
    return str(chart)


_LARGE_POINT = ('{"radii": [1e50, 3e50, 7e50, %s], '
                '"angles": [[1, 0], [1, 0], [1, 0], [1, 0]]}')


def test_floating_points_with_large_radii_are_compared_relatively(tmp_path, capsys):
    # z0 z3 = z1 z2 = 2.1e101: each radius reads as the decimal it prints
    # as, so the sides are equal exactly, as they are for the exact twin,
    # although the binary values of 1e50 * 2.1e51 and 3e50 * 7e50 differ
    # by 3.1e85
    exact = json.dumps({"radii": ["1e50", "3e50", "7e50", "2.1e51"], "turns": ["0"] * 4})
    for point in (_LARGE_POINT % "2.1e51", exact):
        code = main(["torsor", _square_chart(tmp_path), "2", "--point", point])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


def test_floating_points_with_large_radii_off_the_variety_are_refused(tmp_path, capsys):
    # 2.2e101 != 2.1e101: the residual of an exact point is the absolute gap
    code = main(["torsor", _square_chart(tmp_path), "2", "--point", _LARGE_POINT % "2.2e51"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: point violates the relations (residual 1.000e+100)\n"
    # these radii meet the relation as binary values, 2^130 on each side,
    # but not as the decimals they print as
    binary = json.dumps({"radii": [2.0 ** 100, 2.0 ** 60, 2.0 ** 70, 2.0 ** 30],
                         "angles": [[1, 0]] * 4})
    code = main(["torsor", _square_chart(tmp_path), "2", "--point", binary])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: point violates the relations (residual "), captured.err


def test_cli_matches_golden_corpus():
    # stdout, stderr and exit code of every corpus invocation, as recorded
    # in tests/data/cli_golden.json
    golden = cli_golden.load()
    assert [entry["argv"] for entry in golden] == cli_golden.argvs()
    for entry in golden:
        assert cli_golden.run(entry["argv"]) == entry, entry["argv"]


def test_exit_code_1_reserved_for_falsified_properties(monkeypatch, capsys):
    # validate refuses every incomplete relation set, so no valid chart
    # falsifies the torsor law; a relation-set bug is injected instead: the
    # fiber layer sees the A1 cone's relation doubled, which breaks the
    # fiber count at n = 2, and the CLI must report a falsified property,
    # not an input error
    angles = fibers_mod._angles

    def doubled(m, support):
        rows, _, r = angles(m, support)  # the full support: no pin rows
        rows = [[2 * x for x in row] for row in rows]
        return rows, smith_normal_form(rows, m.generator_count), r

    monkeypatch.setattr(fibers_mod, "_angles", doubled)
    code = main(["torsor", corpus_path("a1_cone"), "2",
                 "--point", '{"radii": ["1", "1", "1"], "turns": ["0", "0", "0"]}'])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(
        "falsified property: Kummer fiber has 8 elements, expected n^2 = 4")


def test_an_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    # a bug inside a subcommand is neither an input error's message nor a
    # falsified property: exit 2, nothing on stdout, the exception's class
    def boom(m):
        raise RuntimeError("boom")

    monkeypatch.setattr(monoid_mod, "faces", boom)
    code = main(["info", corpus_path("log_point")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "internal error: RuntimeError: boom\n")


def test_a_false_result_prints_its_record_and_exits_1(monkeypatch, capsys):
    # a check that returns False, rather than raising FalsifiedProperty,
    # still prints its record, and exits 1
    verify = fibers_mod.verify_fiber_equivalence
    monkeypatch.setattr(fibers_mod, "verify_fiber_equivalence",
                        lambda m, face, bound: (False, verify(m, face, bound)[1]))
    code = main(["compare", corpus_path("a1_cone"), "--bound", "10"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    out = json.loads(captured.out)
    assert (out["equivalent"], out["levels"], out["torus_rank"]) == (False, 10, 2)


_SQUARE = [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]
_CUBE = [[1, x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
_A1 = [[1, 0], [1, 1], [1, 2]]
_DOUBLED = [([2, 0, 2], [0, 4, 0])]

# generators, supplied relations, degree bound, and the message naming the
# witness: the walk's, or below its degree the kernel span check's
_INCOMPLETE = {
    "square-cone-no-relations": (_SQUARE, [], None, "of (2, 1, 1) at degree 4;"),
    "square-cone-no-relations-bound-3": (
        _SQUARE, [], "3", "relation rows span a sublattice of rank 0, not 1, of the integer "
        "kernel of the generator matrix: the kernel vector (1, -1, -1, 1) is not"),
    "cube-cone-4-of-12-quadrics": (_CUBE, quadric_relations(_CUBE)[:4], None,
                                   "of (2, 1, 1, 1) at degree 5;"),
    "a1-cone-doubled-relation": (_A1, _DOUBLED, None, "of (2, 2) at degree 4;"),
    "a1-cone-doubled-relation-bound-3": (
        _A1, _DOUBLED, "3", "relation rows span a sublattice with invariant factor 2 of the "
        "integer kernel of the generator matrix: the kernel vector (1, -2, 1) is not"),
}


@pytest.mark.parametrize("command", ["info", "compare", "torsor"])
@pytest.mark.parametrize("case", list(_INCOMPLETE))
def test_incomplete_supplied_relations_are_input_errors(tmp_path, capsys, case, command):
    # these sets were accepted: `info` and `compare` exited 0, and `torsor 2`
    # exited 1 on a Kummer fiber count
    gens, relations, degree_bound, message = _INCOMPLETE[case]
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps({
        "name": case, "ambient_rank": len(gens[0]), "generators": gens,
        "relations": [{"lhs": r, "rhs": s} for r, s in relations]}))
    point = json.dumps({"radii": ["1"] * len(gens), "turns": ["0"] * len(gens)})
    argv = {"info": [], "compare": ["--face", ""], "torsor": ["2", "--point", point]}[command]
    flags = [] if degree_bound is None else ["--degree-bound", degree_bound]
    assert main([command, str(chart), *argv, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: relation ")
    assert message in captured.err, captured.err


def test_json_output_is_byte_deterministic(tmp_path):
    _, out1, _ = run_cli(["torsor", corpus_path("a1_cone"), "3", "--face", "0,1,2"])
    _, out2, _ = run_cli(["torsor", corpus_path("a1_cone"), "3", "--face", "0,1,2"])
    assert out1 == out2
    _, s1, _ = run_cli(["strata", corpus_path("a1_cone")])
    _, s2, _ = run_cli(["strata", corpus_path("a1_cone")])
    assert s1 == s2


def test_flag_over_default(capsys):
    def run(*argv):
        assert main([argv[0], corpus_path("a1_cone"), *argv[1:]]) == 0
        return json.loads(capsys.readouterr().out)

    assert run("info")["saturated_to_degree"] == 20
    assert run("info", "--degree-bound", "5")["saturated_to_degree"] == 5
    assert run("compare", "--face", "")["levels"] == 100
    assert run("compare", "--face", "", "--bound", "5")["levels"] == 5


# A settings flag of another subcommand, beside what each one needs.
_UNREAD_FLAGS = {
    "info": ([], ["--tol", "--bound", "--seed"]),
    "strata": ([], ["--tol", "--bound", "--seed"]),
    "mu": (["2"], ["--tol", "--bound", "--seed"]),
    "fiber": (["2"], ["--tol", "--bound", "--seed"]),
    "compare": ([], ["--tol", "--seed"]),
    "emit": ([], ["--tol", "--bound", "--seed"]),
    "torsor": (["2"], ["--bound", "--tol", "--seed"]),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in _UNREAD_FLAGS.items() for flag in flags])
def test_a_subcommand_refuses_the_settings_it_does_not_read(capsys, command, flag):
    # these were accepted and ignored
    argv = [command, corpus_path("a1_cone"), *_UNREAD_FLAGS[command][0], flag, "3"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_logcharts_environment_variables_are_not_read():
    # LOGCHARTS_TOL=nan failed `info`, which reads no tolerance
    stray = {"LOGCHARTS_TOL": "nan", "LOGCHARTS_BOUND": "abc", "LOGCHARTS_SEED": "x"}
    cone = corpus_path("a1_cone")
    for args in (["info", cone], ["compare", cone, "--face", "0"], ["torsor", cone, "2"]):
        want = run_cli(args)
        assert want[0] == 0 and run_cli(args, stray) == want, args


def test_json_is_not_an_option(capsys):
    # JSON is the default output, and --table the only format switch
    with pytest.raises(SystemExit) as info:
        main(["info", corpus_path("log_point"), "--json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_table_mode(capsys):
    code = main(["info", corpus_path("log_point"), "--table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gp_rank: 1" in out
