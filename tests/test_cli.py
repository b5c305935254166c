import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_check_connection_and_tolerance(capsys):
    code, out, _ = run_cli(["check-connection", "--space", "coEuc3"], capsys)
    assert code == 0 and "symmetry" in out
    code, _, err = run_cli(
        ["check-connection", "--space", "coEuc3", "--tol", "1e-20"], capsys)
    assert code == 3 and "tolerance" in err
    code, _, err = run_cli(["check-connection", "--space", "Ell3"], capsys)
    assert code == 2


def test_pogorelov_command(tmp_path, capsys):
    code, out, _ = run_cli(["pogorelov", "--pair", "hyp-euc"], capsys)
    assert code == 0 and "target Killing residual" in out
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"generator": np.zeros((4, 4)).tolist()}))
    code, out, _ = run_cli(
        ["pogorelov", "--pair", "hyp-euc", "--killing", str(gen)], capsys)
    assert code == 0


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
        ["transition-surface", "--space", "Ell3", "--grid", "9"], capsys)
    assert code == 0 and "R^2" in out


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


def test_grid_env_override(tmp_path, capsys, monkeypatch):
    body = tmp_path / "ball.json"
    body.write_text(json.dumps({"kind": "ball", "radius": 1.0}))
    monkeypatch.setenv("MODELSPACE_GRID", "4")
    code, out, _ = run_cli(
        ["dualize", "--flavor", "euclidean", "--body", str(body)], capsys)
    assert code == 0 and "16 directions" in out


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "modelspace.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "acceptance" in proc.stdout


def test_import_does_not_load_scipy_stats():
    # scipy.stats (and the optimize/integrate modules it pulls in) is only
    # needed by halton_cloud, which imports it on first use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, modelspace; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


@pytest.mark.parametrize("case", ["nan-vector", "ball-no-radius", "top-level-list",
                                  "coplanar-body", "nan-path", "overflowing-path",
                                  "entities-not-a-list", "surface-grid-2",
                                  "sphere-in-coEuc3", "hyperboloid-in-Euc3",
                                  "patch-without-kind"])
def test_hostile_inputs_are_validation_errors(case, tmp_path, capsys):
    body = ["dualize", "--flavor", "euclidean", "--grid", "4", "--body"]
    surface = ["check-surface", "--grid", "9", "--space"]
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
    }[case]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("validation error:") and "Traceback" not in err
    expected = {"surface-grid-2": "at least",
                "sphere-in-coEuc3": "sphere patches live in Euc3, not coEuc3",
                "hyperboloid-in-Euc3": "hyperboloid patches live in Min3, not Euc3",
                "patch-without-kind": "needs a 'kind'"}
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
