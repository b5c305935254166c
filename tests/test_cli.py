import argparse
import ast
import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modelspace import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distance_command(capsys):
    code, out, _ = run_cli(
        ["distance", "--space", "Ell2", "--x", "[1,0,0]", "--y", "[0,1,0]"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("1.5707963267")
    assert out.splitlines()[1] == "elliptic"


def test_distance_deterministic(capsys):
    args = ["distance", "--space", "Hyp2", "--x", "[0.1,0.2,1.2]",
            "--y", "[0,0,1]", "--emit", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_classify_line(capsys):
    code, out, _ = run_cli(
        ["classify-line", "--space", "dS2", "--x", "[1,0,0]", "--y", "[0,1,0]"], capsys)
    assert code == 0 and out.splitlines()[0] == "elliptic"
    # 1e-5 apart: inside same_point's tolerance, but the line is well defined
    near = ["--space", "Ell2", "--x", "[1,0,0]", "--y", "[0.99999999995,0.00001,0]"]
    code, out, _ = run_cli(["classify-line"] + near, capsys)
    assert code == 0 and out.splitlines()[0] == "elliptic"
    code, out, _ = run_cli(["distance"] + near, capsys)
    assert code == 0 and out.splitlines()[1] == "elliptic"
    code, _, err = run_cli(
        ["classify-line", "--space", "Ell2", "--x", "[1,0,0]", "--y", "[1,0,0]"], capsys)
    assert code == 2 and "coincident points do not span a line" in err


@pytest.mark.parametrize("command", ["distance", "classify-line"])
def test_representatives_of_extreme_magnitude(command, capsys):
    # their norms overflow or underflow unless the entries are rescaled first
    for x, first in (("[1e155, 0, 1]", "1.57079632679"), ("[1e-300, 0, 1e-300]", "0.785398163397")):
        code, out, err = run_cli([command, "--space", "Ell2", "--x", x, "--y", "[0, 0, 1]"], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == (first if command == "distance" else "elliptic")


def test_validation_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(
        ["distance", "--space", "Ell2", "--x", "bogus", "--y", "[0,1,0]"], capsys)
    assert code == 2 and "validation" in err
    # a point outside the space
    code, _, err = run_cli(
        ["distance", "--space", "Hyp2", "--x", "[1,0,0]", "--y", "[0,0,1]"], capsys)
    assert code == 2
    # malformed JSON file with line/column information
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    code, _, err = run_cli(
        ["dualize", "--flavor", "euclidean", "--body", str(bad)], capsys)
    assert code == 2 and "line 2" in err


def test_dualize_ball(tmp_path, capsys):
    body = tmp_path / "ball.json"
    body.write_text(json.dumps({"kind": "ball", "radius": 2.0}))
    code, out, _ = run_cli(
        ["dualize", "--flavor", "euclidean", "--body", str(body), "--grid", "8",
         "--emit", "json"], capsys)
    assert code == 0
    support = np.asarray(json.loads(out)["support"])
    assert np.max(np.abs(support - 0.5)) < 1e-12


def test_dualize_minkowski_body_with_timelike_rays(tmp_path, capsys):
    # the dual's support is +inf on the grid directions outside the body's
    # recession cone, reported as "inf", not an error
    body = _write(tmp_path, "m.json", {
        "vertices": [[0.3, 0.1, 1.2], [-0.2, 0.4, 1.5], [0.0, 0.0, 1.0]],
        "rays": [[0, 0, 1], [0.6, 0, 1], [-0.6, 0, 1], [0, 0.6, 1], [0, -0.6, 1]]})
    code, out, err = run_cli(["dualize", "--flavor", "minkowski", "--body", body], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "support range [-0.989406231338, inf]"
    code, out, _ = run_cli(["dualize", "--flavor", "minkowski", "--body", body,
                            "--emit", "json"], capsys)
    support = json.loads(out)["support"]
    assert code == 0 and len(support) == 4096 and support.count("inf") == 3024
    assert all(isinstance(h, float) and h < 0 for h in support if h != "inf")


def test_dualize_vertices_csv(tmp_path, capsys):
    body = tmp_path / "cube.json"
    cube = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    body.write_text(json.dumps({"vertices": cube}))
    code, out, _ = run_cli(
        ["dualize", "--flavor", "euclidean", "--body", str(body), "--grid", "4",
         "--emit", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dir1,dir2,dir3,h"
    assert len(lines) == 17


def test_transition_command(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"base": [0, 0, 0, 1], "velocity": [0.7, 0, 0, 0]}))
    code, out, _ = run_cli(
        ["transition", "--family", "point", "--space", "Ell3",
         "--path", str(path)], capsys)
    assert code == 0 and "limit point" in out
    # base-condition violation is a validation error
    bad = tmp_path / "bad_path.json"
    bad.write_text(json.dumps({"base": [0.5, 0, 0, 1], "velocity": [0, 0, 0, 0]}))
    code, _, err = run_cli(
        ["transition", "--family", "point", "--space", "Ell3", "--path", str(bad)],
        capsys)
    assert code == 2
    # a Hyp3 path that turns light-like only at the schedule's first t = 2^-3
    light = tmp_path / "light_path.json"
    light.write_text(json.dumps({"base": [0, 0, 0, 1], "velocity": [8, 0, 0, 0]}))
    code, out, err = run_cli(
        ["transition", "--family", "point", "--space", "Hyp3", "--path", str(light)], capsys)
    assert code == 2 and out == ""
    assert "path leaves the model space or overflows" in err


def test_check_connection_and_tolerance(capsys):
    code, out, _ = run_cli(["check-connection", "--space", "coEuc3"], capsys)
    assert code == 0 and "symmetry" in out
    code, _, err = run_cli(
        ["check-connection", "--space", "coEuc3", "--tol", "1e-20"], capsys)
    assert code == 3 and "tolerance" in err
    code, _, err = run_cli(["check-connection", "--space", "Ell3"], capsys)
    assert code == 2


def test_check_connection_fields_record_runs_quietly(tmp_path, capsys, caplog):
    # record fields need not be tangent: projecting them is the documented
    # behaviour, so a valid record logs nothing
    rng = np.random.default_rng(3)
    path = _write(tmp_path, "fields.json", {"fields": [
        {"c0": rng.standard_normal(4).tolist(), "c1": rng.standard_normal((4, 4)).tolist()}
        for _ in range(3)]})
    with caplog.at_level("DEBUG"):
        code, out, err = run_cli(["check-connection", "--space", "coEuc3", "--fields", path], capsys)
    assert code == 0 and "symmetry" in out
    assert caplog.records == [] and err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_connection_overflowing_fields_fail(tmp_path, capsys):
    # finite coefficients whose products overflow give NaN residuals
    big = {"c0": [1e200, 1e200, 0, 0], "c1": (1e200 * np.eye(4)).tolist()}
    path = _write(tmp_path, "big.json", {"fields": [big] * 3})
    code, _, err = run_cli(["check-connection", "--space", "coEuc3", "--fields", path], capsys)
    assert code == 3 and "residual nan not in [-inf, 1e-06]" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("space", ["coEuc3", "Euc3"])
def test_check_surface_overflowing_height_fails(tmp_path, capsys, space):
    # a finite record whose height overflows gives NaN residuals, which
    # fail the tolerance like any other value past it
    patch = _write(tmp_path, "p.json",
                   {"kind": "graph", "height": {"constant": 1e300, "wave": [1e300, 1.0]}})
    code, out, err = run_cli(["check-surface", "--space", space, "--grid", "9",
                              "--patch", patch], capsys)
    assert "gauss residual nan" in out
    assert code == 3 and "gauss residual nan not in [-inf, 0.1]" in err


def test_acceptance_names_the_failing_check_and_its_bound(monkeypatch, capsys):
    from modelspace import acceptance as ac
    from modelspace import transition as tr

    real = tr.one_d_limit
    monkeypatch.setattr(ac, "CRITERIA", [ac.criterion_3_one_d_transition])

    def nan_limit(*args):
        lim, err = real(*args)
        return lim * np.nan, err

    monkeypatch.setattr(tr, "one_d_limit", nan_limit)
    code, out, err = run_cli(["acceptance"], capsys)
    assert code == 3 and out.startswith("[FAIL] 3 one-dimensional")
    assert "sup gap to the translation nan not in [-inf, 1e-06]" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_json_output_is_strict_for_nan_residuals(tmp_path, capsys):
    big = {"c0": [1e200, 1e200, 0, 0], "c1": (1e200 * np.eye(4)).tolist()}
    path = _write(tmp_path, "big.json", {"fields": [big] * 3})
    code, out, _ = run_cli(["check-connection", "--space", "coEuc3", "--fields", path,
                            "--emit", "json"], capsys)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    record = json.loads(out, parse_constant=reject)
    assert code == 3 and record["residuals"]["symmetry"] == "nan"


def test_json_and_csv_are_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, "path.json", {"base": [0, 0, 0, 1], "velocity": [0.7, 0, 0, 0.2]})
    transition = ["transition", "--family", "point", "--space", "Ell3", "--path", path]
    ball = _write(tmp_path, "ball.json", {"kind": "ball", "radius": 1.7})
    hyperboloid = _write(tmp_path, "hyperboloid.json", {"kind": "hyperboloid", "radius": 1.7})
    cube = _write(tmp_path, "cube.json", {"vertices": [
        [sx, sy, 0.5 * sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]})
    future = _write(tmp_path, "future.json", {"vertices": [
        [0.3, 0.1, 1.2], [-0.2, 0.4, 1.5], [0.0, 0.0, 1.0]]})
    rng = np.random.default_rng(6)
    fields = _write(tmp_path, "fields.json", {"fields": [
        {"c0": rng.standard_normal(4).tolist(), "c1": (0.4 * rng.standard_normal((4, 4))).tolist()}
        for _ in range(3)]})
    pair = ["--space", "Hyp2", "--x", "[0.1,0.2,1.2]", "--y", "[0.3,-0.4,1.5]"]
    for args in (["check-connection", "--space", "coEuc3", "--seed", "5", "--emit", "json"],
                 ["check-connection", "--space", "coMin3", "--seed", "5", "--emit", "csv"],
                 ["check-connection", "--space", "coEuc3", "--fields", fields, "--emit", "json"],
                 ["distance", *pair, "--emit", "json"],
                 ["distance", *pair, "--emit", "csv"],
                 ["classify-line", *pair, "--emit", "json"],
                 ["check-surface", "--space", "coEuc3", "--grid", "17", "--emit", "json"],
                 ["dual-surface", "--space", "coMin3", "--grid", "17", "--emit", "json"],
                 ["dualize", "--flavor", "euclidean", "--body", ball, "--emit", "json"],
                 ["dualize", "--flavor", "minkowski", "--body", hyperboloid, "--emit", "json"],
                 ["dualize", "--flavor", "euclidean", "--body", cube, "--emit", "json"],
                 ["dualize", "--flavor", "minkowski", "--body", future, "--emit", "json"],
                 ["pogorelov", "--pair", "hyp-euc", "--emit", "json"],
                 ["transition-surface", "--space", "Hyp3", "--emit", "json"],
                 ["transition-surface", "--space", "Ell3", "--emit", "csv"],
                 transition + ["--emit", "json"],
                 transition + ["--emit", "csv"]):
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0 and out1 == out2
        if args[0] in ("check-surface", "dual-surface"):
            assert json.loads(out1)["gauss_residual"] > 0
        if args[0] == "transition-surface" and args[-1] == "json":
            assert len(json.loads(out1)["gaps"]) == 4
        if args[0] == "transition-surface" and args[-1] == "csv":
            assert len(out1.splitlines()) == 8
        if args[0] == "dualize":
            record = json.loads(out1)
            assert len(record["support"]) == 64 * 64
            if args[4] == cube:
                assert len(record["vertices"]) == 6  # the cross-polytope
        if args[0] == "pogorelov":
            assert set(json.loads(out1)) == {"pair", "source_residual", "target_residual"}
        if args[0] == "check-connection" and args[-1] == "json":
            assert len(json.loads(out1)["residuals"]) == 5
    assert len(out1.splitlines()) == 11


def test_pogorelov_command(tmp_path, capsys):
    code, out, _ = run_cli(["pogorelov", "--pair", "hyp-euc"], capsys)
    assert code == 0 and "target Killing residual" in out
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"generator": np.zeros((4, 4)).tolist()}))
    code, out, _ = run_cli(
        ["pogorelov", "--pair", "hyp-euc", "--killing", str(gen)], capsys)
    assert code == 0


def test_pogorelov_nan_residual_fails(tmp_path, capsys):
    # inf - inf in the antisymmetry test is NaN, which that test lets
    # through; the NaN Killing residual must fail the run instead
    big = [[0, 1e308, 0, 1e308], [-1e308, 0, 0, 0], [0, 0, 0, 0], [1e308, 0, 0, 0]]
    gen = _write(tmp_path, "gen.json", {"generator": big})
    code, out, err = run_cli(["pogorelov", "--pair", "hyp-euc", "--killing", gen], capsys)
    assert "source Killing residual: nan" in out
    assert code == 3 and "source Killing residual nan not in [-inf, inf]" in err


def test_surface_commands(tmp_path, capsys):
    patch = tmp_path / "patch.json"
    patch.write_text(json.dumps({"kind": "sphere"}))
    code, out, _ = run_cli(
        ["check-surface", "--space", "Euc3", "--patch", str(patch), "--grid", "17"],
        capsys)
    assert code == 0 and "gauss residual" in out
    code, out, _ = run_cli(
        ["dual-surface", "--space", "coEuc3", "--grid", "17"], capsys)
    assert code == 0 and "involution defect" in out
    code, out, _ = run_cli(
        ["transition-surface", "--space", "Ell3"], capsys)
    assert code == 0 and "R^2" in out


def test_euclidean_graph_normal_does_not_flip(tmp_path, capsys):
    # a curved graph not star-shaped about the origin, whose normal the
    # sphere's orientation hint -sigma would flip across the grid
    patch = _write(tmp_path, "graph.json",
                   {"kind": "graph", "height": {"constant": 0, "wave": [0.3, 2.0]}})
    code, out, err = run_cli(["check-surface", "--space", "Euc3", "--patch", patch,
                              "--emit", "json"], capsys)
    assert code == 0, err
    assert json.loads(out)["codazzi_residual"] < 1e-2


@pytest.mark.parametrize("space", ["Euc3", "Min3"])
def test_flat_linear_graph_is_a_plane(tmp_path, capsys, space):
    # a flat graph's parameters are (x, y), so this height is 0.3 x + 0.2 y + 0.1
    patch = _write(tmp_path, "graph.json",
                   {"kind": "graph", "height": {"constant": 0, "linear": [0.3, 0.2, 0.1]}})
    code, out, err = run_cli(["check-surface", "--space", space, "--patch", patch], capsys)
    assert code == 0, err
    ranges = {line.split(" range ")[0]: json.loads(line.split(" range ")[1].split(" (")[0])
              for line in out.splitlines() if " range " in line}
    assert np.max(np.abs(ranges["K_I"])) <= 1e-8
    assert np.max(np.abs(ranges["det B"])) <= 1e-12


def test_scene_envelope(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "space": "Euc3",
        "entities": [
            {"tag": "point", "rep": [1, 0, 0]},
            {"tag": "body", "kind": "ball", "radius": 2.0},
        ],
    }))
    code, out, _ = run_cli(
        ["dualize", "--flavor", "euclidean", "--body", str(scene), "--grid", "8"],
        capsys)
    assert code == 0 and "0.5" in out
    bad = tmp_path / "bad_scene.json"
    bad.write_text(json.dumps({"entities": [{"tag": "wormhole"}]}))
    code, _, err = run_cli(
        ["dualize", "--flavor", "euclidean", "--body", str(bad)], capsys)
    assert code == 2 and "unknown scene entity tag" in err


# the long options of each subcommand: only those its command reads
OPTIONS = {
    "distance": {"--space", "--x", "--y", "--emit"},
    "classify-line": {"--space", "--x", "--y", "--emit"},
    "dualize": {"--flavor", "--body", "--grid", "--emit"},
    "transition": {"--family", "--space", "--path", "--emit"},
    "check-connection": {"--space", "--fields", "--tol", "--seed", "--emit"},
    "pogorelov": {"--pair", "--killing", "--tol", "--seed", "--emit"},
    "check-surface": {"--space", "--patch", "--grid", "--tol", "--emit"},
    "dual-surface": {"--space", "--patch", "--grid", "--emit"},
    "transition-surface": {"--space", "--patch", "--tol", "--emit"},
    "acceptance": {"--seed"},
}


def test_each_subcommand_registers_only_the_options_it_reads():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: {opt for action in sub._actions for opt in action.option_strings
                    if opt.startswith("--") and opt != "--help"}
             for name, sub in subparsers.choices.items()}
    assert found == OPTIONS


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "modelspace.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "acceptance" in proc.stdout


def test_import_does_not_load_scipy_stats():
    # scipy.stats pulls in the optimize and integrate modules, and no
    # module of the package needs it; these two imports load every module
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, modelspace.acceptance, modelspace.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [None,
                                  ["distance", "--space", "Hyp2", "--x", "[0,0,1]", "--y", "[0.3,0,1]"],
                                  ["transition", "--family", "point", "--space", "Ell3", "--path"],
                                  ["check-surface", "--space", "Euc3", "--grid", "9"],
                                  ["pogorelov", "--pair", "hyp-euc"]],
                         ids=["package", "distance", "transition", "check-surface", "pogorelov"])
def test_cold_process_loads_only_what_it_uses(argv, tmp_path):
    # the bare package loads no submodule, and a subcommand that needs no
    # scipy module loads none
    if argv is None:
        run, prefix = "import modelspace", "modelspace."
    else:
        if argv[0] == "transition":
            argv = argv + [_write(tmp_path, "path.json", {"base": [0, 0, 0, 1],
                                                          "velocity": [0.7, 0, 0, 0]})]
        run, prefix = f"from modelspace import cli; assert cli.main({argv!r}) == 0", "scipy"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; {run}; print([m for m in sys.modules if m.startswith({prefix!r})])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _imported_modules(tree):
    """Every module an ``import`` or ``from ... import`` of the tree names,
    with ``from a import b`` giving both a and a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("banned", ["scipy.linalg", "scipy.stats"])
def test_no_module_imports(banned):
    # the isometry paths are Cayley maps (one numpy solve) and the Pogorelov
    # cloud is a numpy Halton sequence, so neither module has a use in the
    # package; scipy.spatial still loads scipy.linalg indirectly
    package = pathlib.Path(cli.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        names = _imported_modules(ast.parse(path.read_text(), str(path)))
        assert not [n for n in names if n.split(".")[:2] == banned.split(".")], path


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


@pytest.mark.parametrize("case", ["nan-vector", "ball-no-radius", "top-level-list",
                                  "coplanar-body", "nan-path", "overflowing-path",
                                  "entities-not-a-list", "surface-grid-2",
                                  "sphere-in-coEuc3", "hyperboloid-in-Euc3",
                                  "patch-without-kind", "fields-not-a-list",
                                  "random-negative", "random-2", "c0-of-length-3",
                                  "c1-of-2x2", "nan-coefficient", "dualize-grid-0",
                                  "dualize-grid-negative", "dualize-grid-too-large",
                                  "overflowing-transition-height",
                                  "dualize-min4-body", "dualize-2d-body", "space-without-digits",
                                  "killing-without-generator", "nan-generator", "graph-height-5",
                                  "transition-height-5", "wave-5", "constant-list",
                                  "sphere-radius-list", "ball-radius-list", "vector-object",
                                  "path-base-object", "vertices-object", "rays-object",
                                  "velocity-of-length-1", "path-base-of-length-3",
                                  "flat-vertices", "flat-rays", "euclidean-body-with-rays",
                                  "ball-under-minkowski", "hyperboloid-under-euclidean",
                                  "classify-line-2-coordinates", "distance-y-4-coordinates",
                                  "check-surface-Euc2", "check-connection-coEuc4",
                                  "transition-surface-dS2", "dual-surface-coMin4",
                                  "surface-grid-too-large"])
def test_hostile_inputs_are_validation_errors(case, tmp_path, capsys):
    body = ["dualize", "--flavor", "euclidean", "--grid", "4", "--body"]
    surface = ["check-surface", "--grid", "9", "--space"]
    fields = ["check-connection", "--space", "coEuc3", "--fields"]
    killing = ["pogorelov", "--pair", "hyp-euc", "--killing"]
    argv = {
        "nan-vector": ["distance", "--space", "Ell2", "--x", "[NaN,0,0]", "--y", "[0,1,0]"],
        "ball-no-radius": body + [_write(tmp_path, "b.json", {"kind": "ball"})],
        "top-level-list": body + [_write(tmp_path, "b.json", [[1, 0, 0]])],
        "coplanar-body": body + [_write(tmp_path, "b.json", {"vertices": [
            [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0.5, 0.5, 0]]})],
        "nan-path": ["transition", "--family", "point", "--space", "Ell3", "--path",
                     _write(tmp_path, "p.json", {"base": [0, 0, 0, 1],
                                                 "velocity": [float("nan"), 0, 0, 0]})],
        "overflowing-path": ["transition", "--family", "point", "--space", "Ell3", "--path",
                             _write(tmp_path, "p.json", {"base": [0, 0, 0, 1],
                                                         "velocity": [1e308, 0, 0, 0]})],
        "entities-not-a-list": body + [_write(tmp_path, "s.json", {"entities": 5})],
        "surface-grid-2": ["check-surface", "--space", "coEuc3", "--grid", "2"],
        "sphere-in-coEuc3": surface + ["coEuc3", "--patch", _write(
            tmp_path, "s.json", {"kind": "sphere", "radius": 2.0})],
        "hyperboloid-in-Euc3": surface + ["Euc3", "--patch", _write(
            tmp_path, "h.json", {"kind": "hyperboloid"})],
        "patch-without-kind": surface + ["Euc3", "--patch", _write(
            tmp_path, "v.json", {"vertices": [[1, 2], [3]]})],
        "fields-not-a-list": fields + [_write(tmp_path, "f1.json", {"fields": "abc"})],
        "random-negative": fields + [_write(tmp_path, "f2.json", {"random": -1})],
        "random-2": fields + [_write(tmp_path, "f3.json", {"random": 2})],
        "c0-of-length-3": fields + [_write(tmp_path, "f4.json", {"fields": [{"c0": [1, 2, 3]}] * 3})],
        "c1-of-2x2": fields + [_write(tmp_path, "f5.json", {"fields": [{"c1": [[1, 0], [0, 1]]}] * 3})],
        "nan-coefficient": fields + [_write(
            tmp_path, "f6.json", {"fields": [{"c0": [float("nan"), 0, 0, 0]}] * 3})],
        "dualize-grid-0": ["dualize", "--flavor", "euclidean", "--grid", "0", "--body", _write(
            tmp_path, "c.json", {"vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1)
                                              for z in (-1, 1)]})],
        "dualize-grid-negative": ["dualize", "--flavor", "minkowski", "--grid", "-3", "--body",
                                  _write(tmp_path, "h.json", {"kind": "hyperboloid", "radius": 2})],
        # a polytope, whose grid polar at 1025 would still take under a
        # second: the bound is tested without a large allocation
        "dualize-grid-too-large": ["dualize", "--flavor", "euclidean", "--grid", "1025",
                                   "--body", _write(tmp_path, "o.json", {"vertices": np.vstack(
                                       [np.eye(3), -np.eye(3)]).tolist()})],
        "overflowing-transition-height": ["transition-surface", "--space", "Ell3", "--patch",
                                          _write(tmp_path, "t.json", {"height": {"amp": 1e308}})],
        "dualize-min4-body": ["dualize", "--flavor", "minkowski", "--body", _write(
            tmp_path, "m.json", {"vertices": [[0.1, 0.2, 0.0, 1.2], [0, 0, 0.3, 1.5]]})],
        "dualize-2d-body": body + [_write(tmp_path, "e.json", {"vertices": [
            [1, 0], [0, 1], [-1, 0], [0, -1]]})],
        "space-without-digits": ["distance", "--space", "Ell", "--x", "[1,0,0]", "--y", "[0,1,0]"],
        "killing-without-generator": killing + [_write(tmp_path, "g1.json", {"foo": 1})],
        "nan-generator": killing + [_write(tmp_path, "g2.json", {"generator": [
            [0, float("nan"), 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]})],
        "graph-height-5": surface + ["Euc3", "--patch", _write(
            tmp_path, "g3.json", {"kind": "graph", "height": 5})],
        "transition-height-5": ["transition-surface", "--space", "Ell3", "--patch",
                                _write(tmp_path, "t5.json", {"height": 5})],
        "wave-5": surface + ["Euc3", "--patch", _write(
            tmp_path, "g4.json", {"kind": "graph", "height": {"wave": 5}})],
        "constant-list": surface + ["Euc3", "--patch", _write(
            tmp_path, "g5.json", {"kind": "graph", "height": {"constant": [1]}})],
        "sphere-radius-list": surface + ["Euc3", "--patch", _write(
            tmp_path, "s5.json", {"kind": "sphere", "radius": [1]})],
        "ball-radius-list": body + [_write(tmp_path, "b5.json", {"kind": "ball", "radius": [1]})],
        "vector-object": ["distance", "--space", "Ell2", "--x", '{"a": 1}', "--y", "[0,1,0]"],
        "path-base-object": ["transition", "--family", "point", "--space", "Ell3", "--path",
                             _write(tmp_path, "p5.json", {"base": {"a": 1}})],
        "velocity-of-length-1": ["transition", "--family", "point", "--space", "Ell3", "--path",
                                 _write(tmp_path, "p6.json", {"base": [0, 0, 0, 1],
                                                              "velocity": [0.7]})],
        "vertices-object": body + [_write(tmp_path, "b6.json", {"vertices": {"a": 1}})],
        "path-base-of-length-3": ["transition", "--family", "point", "--space", "Ell3", "--path",
                                  _write(tmp_path, "p7.json", {"base": [0, 0, 1]})],
        "flat-vertices": body + [_write(tmp_path, "b7.json", {"vertices": [1, 2, 3]})],
        "flat-rays": ["dualize", "--flavor", "minkowski", "--grid", "4", "--body", _write(
            tmp_path, "m6.json", {"vertices": [[0.3, 0.1, 1.2], [0, 0, 1]], "rays": [1, 2, 3]})],
        "rays-object": ["dualize", "--flavor", "minkowski", "--grid", "4", "--body", _write(
            tmp_path, "m5.json", {"vertices": [[0.3, 0.1, 1.2], [0, 0, 1]], "rays": {"a": 1}})],
        "euclidean-body-with-rays": body + [_write(tmp_path, "b8.json", {
            "vertices": np.vstack([np.eye(3), -np.eye(3)]).tolist(), "rays": [[0, 0, 1]]})],
        "ball-under-minkowski": ["dualize", "--flavor", "minkowski", "--grid", "4", "--body",
                                 _write(tmp_path, "b9.json", {"kind": "ball", "radius": 2})],
        "hyperboloid-under-euclidean": body + [_write(tmp_path, "h9.json",
                                                      {"kind": "hyperboloid", "radius": 2})],
        "classify-line-2-coordinates": ["classify-line", "--space", "Ell2", "--x", "[1,0]",
                                        "--y", "[0,1]"],
        "distance-y-4-coordinates": ["distance", "--space", "Hyp2", "--x", "[0,0,1]",
                                     "--y", "[0.3,0,0,1]"],
        "check-surface-Euc2": surface + ["Euc2"],
        "check-connection-coEuc4": ["check-connection", "--space", "coEuc4"],
        "transition-surface-dS2": ["transition-surface", "--space", "dS2"],
        "dual-surface-coMin4": ["dual-surface", "--space", "coMin4", "--grid", "9"],
        "surface-grid-too-large": ["check-surface", "--space", "coEuc3", "--grid", "200"],
    }[case]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("validation error:") and "Traceback" not in err
    expected = {"surface-grid-2": "at least",
                "sphere-in-coEuc3": "sphere patches live in Euc3, not coEuc3",
                "hyperboloid-in-Euc3": "hyperboloid patches live in Min3, not Euc3",
                "patch-without-kind": "needs a 'kind'",
                "fields-not-a-list": "'fields' must be a list of objects",
                "random-negative": "'random' must be an integer >= 3, not -1",
                "random-2": "'random' must be an integer >= 3, not 2",
                "c0-of-length-3": "field 'c0' has shape (3,), expected (4,)",
                "c1-of-2x2": "field 'c1' has shape (2, 2), expected (4, 4)",
                "nan-coefficient": "field 'c0' must hold finite numbers",
                "dualize-grid-0": "--grid must be at least 1, got 0",
                "dualize-grid-negative": "--grid must be at least 1, got -3",
                "dualize-grid-too-large": "--grid must be at most 1024, got 1025",
                "overflowing-transition-height": "grid node (0, 0, 0)",
                "dualize-min4-body": "body has 4 coordinates; the direction grid needs 3",
                "dualize-2d-body": "body has 2 coordinates; the direction grid needs 3",
                "space-without-digits": "dimension missing: use e.g. 'Ell2'\n",
                "killing-without-generator": "needs a 'generator'",
                "nan-generator": "generator must hold finite numbers",
                "graph-height-5": "'height' must be an object",
                "transition-height-5": "'height' must be an object",
                "wave-5": "height wave has shape (), expected (2,)",
                "constant-list": "height constant has shape (1,), expected ()",
                "sphere-radius-list": "sphere radius has shape (1,), expected ()",
                "ball-radius-list": "ball radius has shape (1,), expected ()",
                "vector-object": "vector must be a numeric array",
                "path-base-object": "path base must be a numeric array",
                "velocity-of-length-1": "path velocity has shape (1,), expected (4,)",
                "vertices-object": "body vertices must be a numeric array",
                "rays-object": "body rays must be a numeric array",
                "path-base-of-length-3": "path base has shape (3,), expected (4,)",
                "flat-vertices": "body vertices must be a list of points",
                "flat-rays": "body rays must be a list of points",
                "euclidean-body-with-rays": "body 'rays' need --flavor minkowski",
                "ball-under-minkowski": "a ball body needs --flavor euclidean, not minkowski",
                "hyperboloid-under-euclidean":
                    "a hyperboloid body needs --flavor minkowski, not euclidean",
                "classify-line-2-coordinates": "--x has 2 coordinates; Ell2 points have 3",
                "distance-y-4-coordinates": "--y has 4 coordinates; Hyp2 points have 3",
                "check-surface-Euc2": "--space must be a model 3-space, got Euc2",
                "check-connection-coEuc4": "--space must be a model 3-space, got coEuc4",
                "transition-surface-dS2": "--space must be a model 3-space, got dS2",
                "dual-surface-coMin4": "--space must be a model 3-space, got coMin4",
                "surface-grid-too-large": "surface grid must be at most 65, got 200"}
    assert expected.get(case, "") in err


@pytest.mark.parametrize("space", ["Ell3", "dS3", "Hyp3", "AdS3"])
def test_transition_surface_families_on_the_pseudo_sphere(space, capsys):
    from modelspace import surfaces as sf
    from modelspace.projective import model_space

    src = model_space(space)
    family = sf.transition_surface_family(space, lambda t, m, U, V: t * (1.0 + 0.1 * U) + 0.3 * t * t)
    U, V = np.meshgrid(np.linspace(0.3, 1.0, 5), np.linspace(0.2, 6.0, 5), indexing="ij")
    for t in (0.5, 0.1, 0.01):
        x = family(t, U, V)
        assert np.max(np.abs(src.form.quad(x) - src.sign)) < 1e-12
    code, out, _ = run_cli(["transition-surface", "--space", space], capsys)
    assert code == 0 and "R^2" in out


# one coordinate: a mantissa in [1, 9.99] times 10^k for k from -300 to 307,
# with the sign +, - or 0
_ENTRY = st.builds(lambda sign, mantissa, k: sign * mantissa * 10.0**k,
                   st.sampled_from([1.0, -1.0, 0.0]), st.floats(1.0, 9.99), st.integers(-300, 307))


def _vector(size):
    return st.lists(_ENTRY, min_size=size, max_size=size)


_DISTANCE = st.tuples(st.sampled_from(["distance", "classify-line"]),
                      st.sampled_from(["Ell2", "Hyp2", "dS2", "AdS2", "coEuc2", "Euc2"]),
                      _vector(3), _vector(3))
_FLAVOR = st.sampled_from(["euclidean", "minkowski"])
_ROUND_BODY = st.tuples(st.just("dualize"), _FLAVOR, st.fixed_dictionaries(
    {"kind": st.sampled_from(["ball", "hyperboloid"]), "radius": _ENTRY}))
_VERTEX_BODY = st.tuples(st.just("dualize"), _FLAVOR, st.fixed_dictionaries(
    {"vertices": st.lists(_vector(3), min_size=4, max_size=6)}))
_TRANSITION = st.tuples(st.just("transition"), st.sampled_from(["point", "plane"]),
                        st.sampled_from(["Ell3", "Hyp3", "dS3", "AdS3"]), st.fixed_dictionaries(
                            {"base": _vector(4), "velocity": _vector(4), "acceleration": _vector(4)}))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(_DISTANCE, _ROUND_BODY, _VERTEX_BODY, _TRANSITION))
# the two inputs that used to end in a traceback: an overflowing norm, an underflowing bound
@example(("distance", "Ell2", [1e155, 0.0, 1.0], [0.0, 0.0, 1.0]))
@example(("dualize", "euclidean", {"kind": "ball", "radius": 1e200}))
def test_cli_contract_on_extreme_magnitudes(case):
    # any input ends in exit 0, 2 or 3; an escaping exception fails the test
    with tempfile.TemporaryDirectory() as tmp:
        if case[0] in ("distance", "classify-line"):
            command, space, x, y = case
            argv = [command, "--space", space, "--x", json.dumps(x), "--y", json.dumps(y)]
        elif case[0] == "dualize":
            _, flavor, record = case
            argv = ["dualize", "--flavor", flavor, "--grid", "4",
                    "--body", _write(pathlib.Path(tmp), "body.json", record)]
        else:
            _, family, space, record = case
            argv = ["transition", "--family", family, "--space", space,
                    "--path", _write(pathlib.Path(tmp), "path.json", record)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--emit", "json"])
    assert code in (0, 2, 3)
