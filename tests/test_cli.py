"""CLI: schema strictness, exit codes, output determinism."""

import json
import os
import subprocess
import sys

import pytest

import cli_golden
from logcharts.cli import ENV_PREFIX, ChartDocument, corpus_path, load_chart, main
from logcharts.errors import ChartError
from logcharts.monoid import faces, stalk, validate

CORPUS = ["log_point", "affine_line", "plane_axes", "a1_cone"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("LOGCHARTS_TOL", None)
    env.pop("LOGCHARTS_BOUND", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "logcharts.cli", *args],
        capture_output=True, text=True, env=env)
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


def test_torsor_sampled_point(capsys):
    code = main(["torsor", corpus_path("a1_cone"), "2",
                 "--face", "0,1,2", "--seed", "5"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["torsor"]["group_order"] == 4


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
    for angle in ("[NaN, 0]", "[1, Infinity]", "[-Infinity, NaN]", "[1.5e308, 1.5e308]"):
        code = main(["torsor", corpus_path("a1_cone"), "3", "--point",
                     '{"radii": [1, 1, 1], "angles": [%s, [1, 0], [1, 0]]}' % angle])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", angle
        assert captured.err.startswith("error: "), (angle, captured.err)


def test_exit_code_2_on_input_errors(tmp_path):
    code, _, err = run_cli(["info", str(tmp_path / "missing.json")])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "bad", "ambient_rank": 1, "generators": [[1], [-1]]}')
    code, _, err = run_cli(["info", str(bad)])
    assert code == 2 and "line" in err  # NotSharp message surfaced
    cone = corpus_path("a1_cone")
    for args, env in [
        (["mu", cone, "0"], None),
        (["fiber", cone, "0"], None),
        (["torsor", cone, "0"], None),
        (["compare", cone, "--bound", "0"], None),
        (["compare", cone, "--bound", "1000000000"], None),
        (["info", cone], {"LOGCHARTS_BOUND": "abc"}),
        (["compare", cone, "--face", "0,x"], None),
        (["compare", cone, "--face", "7"], None),
        (["torsor", cone, "2", "--point", "notjson"], None),
        (["torsor", cone, "2", "--point",
          '{"radii": ["1", "1", "1"], "turns": ["0", "0", "0", "1/2"]}'], None),
        (["torsor", cone, "2", "--point",
          '{"radii": ["abc", "1", "1"], "turns": ["0", "0", "0"]}'], None),
        (["torsor", cone, "2", "--point",
          '{"radii": [1, 1, 1], "angles": [1, 2, 3]}'], None),
        (["torsor", cone, "2", "--point", '{"radii": 5, "turns": ["0"]}'], None),
        (["torsor", cone, "2", "--point",
          '{"radii": ["-1", "1", "1"], "turns": ["0", "0", "0"]}'], None),
        # off the variety although the floats agree: 1 * (2^62 + 1) != (2^31)^2
        (["torsor", cone, "2", "--point",
          '{"radii": ["1", "2147483648", "4611686018427387905"], "turns": ["0", "0", "0"]}'],
         None),
        (["torsor", cone, "2", "--point",
          '{"radii": ["1e400", "1", "1"], "turns": ["0", "0", "0"]}'], None),
        (["torsor", cone, "1000"], None),
        (["info", cone, "--degree-bound", "-3"], None),
        # a free chart skips the saturation box, not the bound check
        (["info", corpus_path("log_point"), "--degree-bound", "-3"], None),
    ]:
        code, _, err = run_cli(args, env)
        assert code == 2 and err.startswith("error: "), (args, err)
    # a tolerance must be finite and at least 0, and the error names its source
    with open(cone, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["options"]["tolerance"] = -1e-9
    tolerant = tmp_path / "tolerance.json"
    tolerant.write_text(json.dumps(doc))
    point = '{"radii": [1, 1, 1], "angles": [[1, 0], [1, 0], [1, 0]]}'
    for args, env, source in [
        (["torsor", cone, "2", "--point", point, "--tol", "nan"], None, "--tol"),
        (["torsor", cone, "2", "--point", point, "--tol", "-1"], None, "--tol"),
        (["torsor", cone, "2", "--point", point, "--tol", "inf"], None, "--tol"),
        (["torsor", cone, "2", "--point", point], {"LOGCHARTS_TOL": "nan"}, "LOGCHARTS_TOL"),
        (["torsor", str(tolerant), "2", "--point", point], None, "chart option 'tolerance'"),
    ]:
        code, _, err = run_cli(args, env)
        assert code == 2 and err.startswith(f"error: {source} "), (args, err)


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
    pytest.param(_chart('"generators": [[1]], "options": {"tolerance": true}'),
                 id="bool-tolerance"),
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


def test_null_options_are_no_options(tmp_path, capsys):
    chart = tmp_path / "chart.json"
    chart.write_text(_chart('"generators": [[1]], "options": null'))
    assert main(["info", str(chart)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("tol, im", [("1e-3", 1e-5), ("1e-2", 1e-3)])
def test_floating_points_are_judged_at_the_callers_tolerance(capsys, tol, im):
    # these turn sums miss the relation by 1.6e-6 and 1.6e-4 turns: within
    # the chord tolerance given, and refused at the default 1e-9
    args = ["torsor", corpus_path("a1_cone"), "2", "--point",
            json.dumps({"radii": [1, 1, 1], "angles": [[1, 0], [1, 0], [1, im]]})]
    assert main(args + ["--tol", tol]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: point violates the relations")


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
    # z0 z3 = z1 z2 = 2.1e101 up to rounding, which leaves an absolute
    # residual of 3.1e85; relative to the sides it is below 1e-16
    code = main(["torsor", _square_chart(tmp_path), "2", "--point", _LARGE_POINT % "2.1e51"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_floating_points_with_large_radii_off_the_variety_are_refused(tmp_path, capsys):
    # 2.2e101 != 2.1e101: the residual is 4.5% of the sides, not 1e100
    code = main(["torsor", _square_chart(tmp_path), "2", "--point", _LARGE_POINT % "2.2e51"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: point violates the relations (residual 4.545e-02)\n"


def test_cli_matches_golden_corpus(monkeypatch):
    # stdout, stderr and exit code of every corpus invocation, as recorded
    # in tests/data/cli_golden.json
    for key in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        monkeypatch.delenv(key)
    golden = cli_golden.load()
    assert [entry["argv"] for entry in golden] == cli_golden.argvs()
    for entry in golden:
        assert cli_golden.run(entry["argv"]) == entry, entry["argv"]


def test_exit_code_1_reserved_for_falsified_properties(tmp_path):
    # an incomplete supplied relation set breaks the fiber count at n = 2;
    # the CLI must report it as a falsified property, not an input error
    chart = tmp_path / "incomplete.json"
    chart.write_text(json.dumps({
        "name": "incomplete",
        "ambient_rank": 2,
        "generators": [[1, 0], [1, 1], [1, 2]],
        "relations": [{"lhs": [2, 0, 2], "rhs": [0, 4, 0]}],
    }))
    code, _, err = run_cli([
        "torsor", str(chart), "2",
        "--point", '{"radii": ["1", "1", "1"], "turns": ["0", "0", "0"]}'])
    assert code == 1 and "falsified" in err


def test_json_output_is_byte_deterministic(tmp_path):
    _, out1, _ = run_cli(["torsor", corpus_path("a1_cone"), "3",
                          "--face", "0,1,2", "--seed", "9"])
    _, out2, _ = run_cli(["torsor", corpus_path("a1_cone"), "3",
                          "--face", "0,1,2", "--seed", "9"])
    assert out1 == out2
    _, s1, _ = run_cli(["strata", corpus_path("a1_cone")])
    _, s2, _ = run_cli(["strata", corpus_path("a1_cone")])
    assert s1 == s2


def test_env_defaults_and_flag_precedence(tmp_path):
    chart = tmp_path / "n.json"
    chart.write_text(json.dumps({
        "name": "n", "ambient_rank": 1, "generators": [[1]]}))
    # env bound applies
    code, out, _ = run_cli(["compare", str(chart), "--face", ""],
                           env_extra={"LOGCHARTS_BOUND": "7"})
    assert code == 0 and json.loads(out)["levels"] == 7
    # flag wins over environment
    code, out, _ = run_cli(["compare", str(chart), "--face", "", "--bound", "5"],
                           env_extra={"LOGCHARTS_BOUND": "7"})
    assert code == 0 and json.loads(out)["levels"] == 5


def test_table_mode(capsys):
    code = main(["info", corpus_path("log_point"), "--table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gp_rank: 1" in out
