"""Command-line front end.

One JSON scene format is shared by the subcommands: a scene is an object
whose entities are tagged records (points as coordinate lists, bodies as
vertex/ray arrays, paths as jet coefficients, fields as polynomial
coefficients, patches as named shapes with parameters).  Outputs are
deterministic for fixed inputs and seed.  Each subcommand imports the
kernel modules it uses in its own body, so a process loads only those.

Exit codes: 0 success, 2 validation error (any ValueError, including
malformed JSON, reported with line and column), 3 numeric-tolerance
failure (reported with the first failing check and its bound).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import projective as pj
from ._numerics import DEFAULT_SCHEDULE, check

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3


class ValidationError(ValueError):
    pass


class ToleranceError(Exception):
    pass


def _fmt(x):
    return f"{float(x):.12g}"


def _parse_vector(text):
    try:
        vec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed vector {text!r}: {exc.msg}") from exc
    arr = _finite(vec, "vector", None)
    if arr.ndim != 1:
        raise ValidationError("vector must be a flat JSON list")
    return arr


def _finite(value, what, shape):
    """``value`` as a float array of ``shape`` (any shape if None) that
    holds finite numbers."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a numeric array"
                              + ("" if shape is None else f" of shape {shape}")) from exc
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} must hold finite numbers")
    return arr


def _points(value, what):
    """``value`` as a finite (count, n) array: a list of points."""
    arr = _finite(value, what, None)
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be a list of points, not an array of shape {arr.shape}")
    return arr


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


SCENE_TAGS = {"point", "line", "body", "support", "path", "field", "patch",
              "cone", "generator"}


def _load_record(path, tag):
    """Load a record for a subcommand: either a bare record or a scene.

    A scene is {"space": ..., "entities": [{"tag": ..., ...}, ...]}; the
    first entity carrying the requested tag is returned.  Unknown tags
    are rejected.
    """
    record = _load_json(path)
    if not isinstance(record, dict):
        raise ValidationError(f"{path} must hold a JSON object, not {type(record).__name__}")
    if "entities" not in record:
        return record
    if not isinstance(record["entities"], list):
        raise ValidationError("scene 'entities' must be a list")
    for entity in record["entities"]:
        etag = entity.get("tag") if isinstance(entity, dict) else None
        if etag not in SCENE_TAGS:
            raise ValidationError(f"unknown scene entity tag {etag!r}")
    for entity in record["entities"]:
        if entity["tag"] == tag:
            return entity
    raise ValidationError(f"scene contains no entity tagged {tag!r}")


def _surface_grid(args):
    # the surface residuals drop two boundary cells on each side
    if args.grid < 5:
        raise ValidationError(f"surface grid must be at least 5, got {args.grid}")
    if args.grid > 65:
        raise ValidationError(f"surface grid must be at most 65, got {args.grid}")
    return args.grid


def _space3(args):
    """The --space of a surface or connection subcommand, which work in 3-spaces only."""
    space = pj.model_space(args.space)
    if space.dim != 4:
        raise ValidationError(f"--space must be a model 3-space, got {space.name}")
    return space


def _judge(checks, context=""):
    """Raise a ToleranceError naming the first failing check record (see
    _numerics.check) and the bound it broke; a NaN value fails."""
    for c in checks:
        if not c["passed"]:
            raise ToleranceError(f"{context}{c['text']} not in [{c['lo']}, {c['hi']}]")


def _strict_json(value):
    """The record with non-finite floats as the strings "nan", "inf" and
    "-inf", which strict JSON parsers accept."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return "nan" if np.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _emit(args, text_lines, record, csv_rows=None, csv_header=None):
    if args.emit == "json":
        print(json.dumps(_strict_json(record), indent=2, sort_keys=True, allow_nan=False))
    elif args.emit == "csv":
        if csv_rows is None:
            raise ValidationError("this subcommand has no CSV output")
        print(",".join(csv_header))
        for row in csv_rows:
            print(",".join(_fmt(v) for v in row))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _point_pair(args, space):
    """The points --x and --y, each with the ``space.dim`` coordinates of its space."""
    points = []
    for flag in ("x", "y"):
        vec = _parse_vector(getattr(args, flag))
        if len(vec) != space.dim:
            raise ValidationError(f"--{flag} has {len(vec)} coordinates; "
                                  f"{space.name} points have {space.dim}")
        points.append(pj.ProjPoint(vec))
    return points


def cmd_distance(args):
    space = pj.model_space(args.space)
    x, y = _point_pair(args, space)
    d, kind = pj.projective_distance(space, x, y, return_line_type=True)
    _emit(
        args,
        [f"{_fmt(d)}", f"{kind or 'coincident'}"],
        {"space": space.name, "distance": d, "line_type": kind},
        csv_rows=[(d,)],
        csv_header=["distance"],
    )


def cmd_classify_line(args):
    space = pj.model_space(args.space)
    line = pj.line_through(*_point_pair(args, space))
    kind = pj.classify_line(space, line)
    absolute = pj.absolute_points(space, line)
    _emit(
        args,
        [kind, f"absolute roots coincident: {absolute.coincident}"],
        {"space": space.name, "line_type": kind, "coincident": absolute.coincident},
    )


def _body_from_record(record, flavor):
    """The polytope a record describes, of ``flavor``, or the radius of a
    ball (Euclidean) or hyperboloid (Minkowski)."""
    from . import duality as du

    if "vertices" in record:
        verts = _points(record["vertices"], "body vertices")
        if flavor == "euclidean":
            if "rays" in record:
                raise ValidationError(
                    "body 'rays' need --flavor minkowski: a Euclidean body is compact")
            return du.EuclideanBody(verts)
        rays = record.get("rays")
        rays = None if rays is None else _points(rays, "body rays")
        return du.MinkowskiBody(verts, rays=rays)
    if record.get("kind") in ("ball", "hyperboloid"):
        round_flavor = "euclidean" if record["kind"] == "ball" else "minkowski"
        if flavor != round_flavor:
            raise ValidationError(f"a {record['kind']} body needs --flavor {round_flavor}, "
                                  f"not {flavor}")
        if "radius" not in record:
            raise ValidationError(f"{record['kind']} body record needs a 'radius'")
        return float(_finite(record["radius"], f"{record['kind']} radius", ()))
    raise ValidationError("body record needs 'vertices' or kind ball/hyperboloid")


def cmd_dualize(args):
    from . import duality as du

    cls = du.SupportFunctionE if args.flavor == "euclidean" else du.SupportFunctionMin
    if args.grid < 1:
        raise ValidationError(f"--grid must be at least 1, got {args.grid}")
    if args.grid > 1024:
        raise ValidationError(f"--grid must be at most 1024, got {args.grid}")
    body = _body_from_record(_load_record(args.body, "body"), args.flavor)
    if not isinstance(body, float) and body.n != 3:
        raise ValidationError(f"body has {body.n} coordinates; the direction grid needs 3")
    dirs = cls.grid(3, args.grid)
    rec = {"flavor": args.flavor}
    if isinstance(body, float):
        # round bodies live as constant support functions
        sfn = cls(dirs, np.full(len(dirs), cls.sign * body), grid_shape=(args.grid, args.grid))
        support = du.dual_support(sfn).values
        lines = [f"dual support on {len(dirs)} directions",
                 f"min {_fmt(support.min())}, max {_fmt(support.max())}"]
    else:
        dual = body.dual()
        support = dual.support(dirs)
        rays = getattr(dual, "rays", None)
        rec["vertices"] = dual.vertices.tolist()
        if rays is not None:
            rec["rays"] = rays.tolist()
        lines = [f"dual body: {len(dual.vertices)} vertices"
                 + ("" if rays is None else f", {len(rays)} recession rays"),
                 f"support range [{_fmt(support.min())}, {_fmt(support.max())}]"]
    rec["support"] = support.tolist()
    header = [f"dir{i+1}" for i in range(dirs.shape[1])] + ["h"]
    _emit(args, lines, rec, csv_rows=np.hstack([dirs, support[:, None]]), csv_header=header)


def _path_from_record(space, record):
    from . import transition as tr

    if "base" not in record:
        raise ValidationError("path record needs a 'base' point")
    base = _finite(record["base"], "path base", (space.dim,))
    vel = _finite(record.get("velocity", np.zeros_like(base)), "path velocity", base.shape)
    acc = _finite(record.get("acceleration", np.zeros_like(base)), "path acceleration", base.shape)

    def x(t):
        t = np.asarray(t)[..., None]
        y = base + t * vel + 0.5 * t * t * acc
        q = space.form.quad(y)
        if not np.all(np.isfinite(q) & (space.sign * q > 0)):
            raise ValidationError("path leaves the model space or overflows")
        return y / np.sqrt(np.abs(q))[..., None]

    return tr.PointPath(x)


def cmd_transition(args):
    from . import transition as tr

    space = pj.model_space(args.space)
    fam = tr.transition_family(space.name, args.family)
    record = _load_record(args.path, "path")
    path = _path_from_record(space, record)
    limit = tr.rescaled_point_limit(path, fam)
    seq_limit, err = tr.rescaled_point_limit_sequence(path, fam)
    rows = np.column_stack([DEFAULT_SCHEDULE, tr.rescaled_point_images(path, fam)])
    lines = [
        f"limit point: {limit}",
        f"sequence route agrees to {_fmt(1 - abs(float(np.dot(limit.rep, seq_limit.rep))))}"
        f" (extrapolation error {_fmt(err)})",
    ]
    rec = {
        "space": space.name,
        "family": args.family,
        "limit": limit.rep.tolist(),
        "sequence_error": err,
    }
    header = ["t"] + [f"x{i+1}" for i in range(space.dim)]
    _emit(args, lines, rec, csv_rows=rows, csv_header=header)


def _fields_from_record(space, record, rng):
    """{"random": n} gives n >= 3 random tangent fields; {"fields": [...]}
    gives the affine fields c0 + c1 x, c0 of shape (d,), c1 of shape (d, d)."""
    from . import connections as cn

    if "random" in record:
        count = record["random"]
        if isinstance(count, bool) or not isinstance(count, int) or count < 3:
            raise ValidationError(f"'random' must be an integer >= 3, not {count!r}")
        return [cn.random_tangent_field(space, rng, 0.5) for _ in range(count)]
    specs = record.get("fields", [])
    if not isinstance(specs, list) or not all(isinstance(f, dict) for f in specs):
        raise ValidationError("'fields' must be a list of objects")
    fields = []
    for spec_rec in specs:
        c0 = _finite(spec_rec.get("c0", np.zeros(space.dim)), "field 'c0'", (space.dim,))
        c1 = _finite(spec_rec.get("c1", np.zeros((space.dim, space.dim))), "field 'c1'",
                     (space.dim, space.dim))
        fields.append(cn.VectorField(
            space, lambda x, c0=c0, c1=c1: c0 + np.einsum("ij,...j->...i", c1, x)))
    if len(fields) < 3:
        raise ValidationError("need at least three fields (or use {'random': n})")
    return fields


def cmd_check_connection(args):
    from . import connections as cn

    space = _space3(args)
    if not space.degenerate:
        raise ValidationError("check-connection expects a co-space (coEuc3/coMin3)")
    record = _load_record(args.fields, "field") if args.fields else {"random": 3}
    rng = np.random.default_rng(args.seed)
    fields = _fields_from_record(space, record, rng)
    X, Y, Z = fields[0], fields[1], fields[2]
    conn = cn.co_connection(space)
    pts = space.sample_points(rng, 6)
    omega = cn.volume_form(space)
    residuals = {
        "symmetry": cn.symmetry_residual(conn, X, Y, pts),
        "compatibility": cn.metric_compatibility_residual(conn, X, Y, Z, pts),
        "nabla_T": cn.t_parallel_residual(conn, pts),
        "nabla_omega": cn.parallel_volume_residual(conn, omega, Z, [X, Y, Z], pts),
    }
    if pj.space_family(space.name).chart == "S2":
        line = lambda t: np.stack([np.cos(t), np.sin(t), np.zeros_like(t), np.zeros_like(t)], -1)
    else:
        line = lambda t: np.stack([np.sinh(t), np.zeros_like(t), np.cosh(t), np.zeros_like(t)], -1)
    residuals["geodesic_line"] = cn.geodesic_residual(conn, line)
    lines = [f"{name:>14}: {_fmt(val)}" for name, val in residuals.items()]
    _emit(args, lines, {"space": space.name, "residuals": residuals},
          csv_rows=[(v,) for v in residuals.values()], csv_header=["residual"])
    # a NaN residual (overflowing fields) fails
    _judge([check(f"{name} residual {{:.12g}}", val, hi=args.tol)
            for name, val in residuals.items()])


_PAIRS = {"hyp-euc": "Hyp3", "ads-min": "AdS3"}  # --pair: the curved space, then its point limit


def cmd_pogorelov(args):
    from . import pogorelov as pg

    space = pj.model_space(_PAIRS[args.pair])
    m_src, m_dst = pg.chart_pair(space.name)
    if args.killing:
        record = _load_record(args.killing, "generator")
        if "generator" not in record:
            raise ValidationError("generator record needs a 'generator' matrix")
        gen = _finite(record["generator"], "generator", (space.dim, space.dim))
        anti = space.form.matrix @ gen + gen.T @ space.form.matrix
        if np.max(np.abs(anti)) > 1e-10 * max(1.0, np.max(np.abs(gen))):
            raise ValidationError("generator is not antisymmetric for the ambient form")
    else:
        rng = np.random.default_rng(args.seed)
        gen = pg.random_killing_generator(space.name, rng)
    K = pg.chart_killing_field(gen)
    cloud = pg.halton_cloud(128, seed=args.seed)
    res_src = pg.killing_residual(m_src, K, cloud[:48])
    PK = pg.infinitesimal_pogorelov(K, m_src, m_dst)
    res_dst = pg.killing_residual(m_dst, PK, cloud[:48])
    # norm dictionary at a few radii
    rows, lat = [], np.array([0.0, 1.0, 0.0])
    for r in (0.2, 0.5, 0.8):
        x = np.array([r, 0.0, 0.0])
        rho = m_src.rho(x)
        n_lat_src = np.sqrt(abs(m_src(x, lat, lat)))
        n_lat_dst = np.sqrt(abs(m_dst(x, lat, lat))) * rho  # P is identity on lateral
        rows.append((r, rho, n_lat_src, n_lat_dst))
    lines = [
        f"source Killing residual: {_fmt(res_src)}",
        f"target Killing residual: {_fmt(res_dst)}",
        "norm dictionary (r, rho, |lat|_src, rho*|lat|_dst):",
    ] + ["  " + "  ".join(_fmt(v) for v in row) for row in rows]
    _emit(args, lines, {
        "pair": args.pair,
        "source_residual": res_src,
        "target_residual": res_dst,
    }, csv_rows=rows, csv_header=["r", "rho", "lat_src", "lat_dst"])
    # a NaN source residual fails; the target is judged unless the source field is not Killing
    checks = [check("source Killing residual {:.12g}", res_src)]
    if not (np.isfinite(res_src) and res_src >= 1e-7):
        checks.append(check("target Killing residual {:.12g}", res_dst, hi=args.tol))
    _judge(checks)


def _height(record):
    height = record.get("height", {})
    if not isinstance(height, dict):
        raise ValidationError("patch 'height' must be an object")
    return height


def _patch_from_record(space, record):
    from . import surfaces as sf

    if "kind" not in record:
        raise ValidationError("patch record needs a 'kind': sphere, hyperboloid or graph")
    kind = record["kind"]
    if kind in ("sphere", "hyperboloid"):
        make = sf.sphere_patch if kind == "sphere" else sf.hyperboloid_patch
        patch = make(radius=float(_finite(record.get("radius", 1.0), f"{kind} radius", ())))
        if patch.space.name != space.name:
            raise ValidationError(f"{kind} patches live in {patch.space.name}, not {space.name}")
        return patch
    if kind == "graph":
        spec = pj.space_family(space.name)
        if spec.chart is None and spec.chart_form is None:
            raise ValidationError(f"graph patches live in a flat chart or a co-space, not {space.name}")
        height = _height(record)
        const = float(_finite(height.get("constant", space.sign), "height constant", ()))
        lin = _finite(height.get("linear", [0.0, 0.0, 0.0]), "height linear", (3,))
        amp, freq = _finite(height.get("wave", [0.0, 1.0]), "height wave", (2,))

        def f(U, V):
            # in a flat space the parameters are (x, y), so lin reads a x + b y + c
            base = pj.chart_jet(spec.chart, U, V)[0] if spec.chart \
                else np.stack([U, V, np.ones_like(U)], axis=-1)
            return const + base @ lin + amp * np.sin(freq * U) * np.cos(V)

        domain = ((0.5, np.pi - 0.5), (0.3, 2 * np.pi - 0.3)) if spec.chart == "S2" \
            else ((0.1, 1.1), (0.3, 2 * np.pi - 0.3))
        return sf.graph_patch(space, f, domain)
    raise ValidationError(f"unknown patch kind {kind!r}")


def cmd_check_surface(args):
    from . import surfaces as sf

    space = _space3(args)
    record = _load_record(args.patch, "patch") if args.patch else {"kind": "graph"}
    patch = _patch_from_record(space, record)
    grid = _surface_grid(args)
    data = sf.embedding_data(patch, m=grid)
    gauss, codazzi = sf.gauss_codazzi_residual(data)
    K = sf.gauss_curvature(data.I, data.du, data.dv)
    detb = data.det_B
    K_in, detb_in = sf.inner_grid(K), sf.inner_grid(detb)
    lines = [
        f"K_I range [{_fmt(K_in.min())}, {_fmt(K_in.max())}] (interior)",
        f"det B range [{_fmt(detb_in.min())}, {_fmt(detb_in.max())}]",
        f"gauss residual {_fmt(gauss)}",
        f"codazzi residual {_fmt(codazzi)}",
    ]
    rows = np.stack([
        data.U.ravel(), data.V.ravel(), K.ravel(), detb.ravel()
    ], axis=1)
    _emit(args, lines, {
        "space": space.name,
        "gauss_residual": gauss,
        "codazzi_residual": codazzi,
    }, csv_rows=rows, csv_header=["u", "v", "K_I", "det_B"])
    _judge([check("gauss residual {:.12g}", gauss, hi=args.tol),
            check("codazzi residual {:.12g}", codazzi, hi=args.tol)])


def cmd_dual_surface(args):
    from . import surfaces as sf

    space = _space3(args)
    record = _load_record(args.patch, "patch") if args.patch else {"kind": "graph"}
    patch = _patch_from_record(space, record)
    grid = _surface_grid(args)
    data = sf.embedding_data(patch, m=grid)
    dual = sf.dual_embedding_data(data)
    gauss, codazzi = sf.gauss_codazzi_residual(dual)
    back = sf.dual_embedding_data(dual)
    invol = max(
        float(np.max(np.abs(back.I - data.I))), float(np.max(np.abs(back.B - data.B)))
    )
    lines = [
        f"dual lives in {dual.space_name}",
        f"dual gauss residual {_fmt(gauss)}, codazzi {_fmt(codazzi)}",
        f"involution defect {_fmt(invol)}",
    ]
    _emit(args, lines, {
        "dual_space": dual.space_name,
        "gauss_residual": gauss,
        "codazzi_residual": codazzi,
        "involution": invol,
    })
    _judge([check("involution defect {:.12g}", invol, hi=1e-8)])


def cmd_transition_surface(args):
    from . import surfaces as sf

    record = _load_record(args.patch, "patch") if args.patch else {}
    amp = float(_finite(_height(record).get("amp", 0.05), "height amp", ()))
    src = _space3(args).name
    spherical = pj.space_family(pj.related(src, "plane_limit")).chart == "S2"

    def height(t, m_, U, V):
        if spherical:
            return t * (1.0 + amp * np.sin(2 * U) * np.cos(V)) + t * t * 0.3
        return t * (-1.0 + amp * m_[..., 0]) + t * t * 0.2

    family = sf.transition_surface_family(src, height)
    out = sf.surface_transition(family, src, m=17)
    lines = [f"limit lives in {out['limit'].space_name}"] + [
        f"gap {k}: {_fmt(v)}" for k, v in out["gaps"].items()
    ] + [f"rate fit R^2: {_fmt(out['rate_r2'])}"]
    _emit(args, lines, {
        "source": src,
        "gaps": out["gaps"],
        "rate_r2": out["rate_r2"],
    }, csv_rows=np.stack([out["ts"], out["rate_errors"]], axis=1),
        csv_header=["t", "rate_error"])
    _judge([check(f"transition gap {k}: {{:.12g}}", v, hi=args.tol)
            for k, v in out["gaps"].items()])


def cmd_acceptance(args):
    from . import acceptance as ac

    for res in ac.run_all(seed=args.seed):
        _judge(res["checks"], f"criterion failed: {res['name']}: ")


# ---------------------------------------------------------------------------


def _add_options(parser, *names, tol=1e-6):
    """Register the shared options ``names`` that the subcommand reads."""
    options = {
        "grid": dict(type=int, default=64, help="direction/parameter grid size (default 64)"),
        "tol": dict(type=float, default=tol, help="tolerance for the pass/fail verdict"),
        "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
        "emit": dict(choices=["text", "json", "csv"], default="text", help="output format"),
    }
    for name in names:
        parser.add_argument(f"--{name}", **options[name])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modelspace",
        description="Model spaces of constant curvature and their degenerate limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="cross-ratio distance between two points")
    p.add_argument("--space", required=True)
    p.add_argument("--x", required=True, help='point, e.g. "[1,0,0]"')
    p.add_argument("--y", required=True)
    _add_options(p, "emit")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("classify-line", help="type of the line through two points")
    p.add_argument("--space", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_options(p, "emit")
    p.set_defaults(func=cmd_classify_line)

    p = sub.add_parser("dualize", help="dual body and support samples")
    p.add_argument("--flavor", choices=["euclidean", "minkowski"], required=True)
    p.add_argument("--body", required=True, help="body JSON file")
    _add_options(p, "grid", "emit")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("transition", help="rescaled limit of a point path")
    p.add_argument("--family", choices=["point", "plane"], required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--path", required=True, help="path JSON file (base/velocity/acceleration)")
    _add_options(p, "emit")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("check-connection", help="co-space connection residual table")
    p.add_argument("--space", required=True)
    p.add_argument("--fields", default=None, help="fields JSON file")
    _add_options(p, "tol", "seed", "emit")
    p.set_defaults(func=cmd_check_connection)

    p = sub.add_parser("pogorelov", help="infinitesimal Pogorelov residuals")
    p.add_argument("--pair", choices=list(_PAIRS), required=True)
    p.add_argument("--killing", default=None, help="generator JSON file")
    _add_options(p, "tol", "seed", "emit")
    p.set_defaults(func=cmd_pogorelov)

    p = sub.add_parser("check-surface", help="embedding data and Gauss-Codazzi residuals")
    p.add_argument("--space", required=True)
    p.add_argument("--patch", default=None, help="patch JSON file")
    _add_options(p, "grid", "tol", "emit", tol=1e-1)
    p.set_defaults(func=cmd_check_surface)

    p = sub.add_parser("dual-surface", help="embedding data of the dual surface")
    p.add_argument("--space", required=True)
    p.add_argument("--patch", default=None)
    _add_options(p, "grid", "emit")
    p.set_defaults(func=cmd_dual_surface)

    p = sub.add_parser("transition-surface", help="rescaled limit of a surface family")
    p.add_argument("--space", required=True)
    p.add_argument("--patch", default=None)
    _add_options(p, "tol", "emit", tol=1e-4)
    p.set_defaults(func=cmd_transition_surface)

    p = sub.add_parser("acceptance", help="run the acceptance criteria suite")
    _add_options(p, "seed")
    p.set_defaults(func=cmd_acceptance)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # NaN and overflow are judged explicitly: numpy's warnings would be noise
        with np.errstate(all="ignore"):
            args.func(args)
    except ValueError as exc:  # ValidationError included
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
