"""Command line driver.

Builds shapes from built-in families or JSON files, runs verification
suites, and emits machine-readable JSON or CSV reports.

Verbs:
    verify SUITE    run one suite over a family or a single shape
    sweep SUITE     scan a perturbation amplitude, emit CSV sweep data
    describe        geometry report for one shape

Exit codes: 0 all records pass (or inapplicable), 1 at least one fail,
2 bad configuration, 3 shape construction failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import functionals as fn
from . import geometry as geo
from . import reilly
from .spaceform import (BallDomain, DomainError, Potential, SpaceForm,
                        boundary_potential_ratio, boundary_sphere_shape_operator)

SUITES = ("thm1", "thm4", "cor-convex", "cor-lowdim", "perez", "kwong",
          "reilly", "identities")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4

HYPOTHESIS_KEYS = ("ricci_min", "convexity_min", "free_boundary_pos",
                   "free_boundary_angle", "half_ball", "min_weight",
                   "substatic_min")


class ConfigError(ValueError):
    pass


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def make_record(suite: str, immersion, check: fn.InequalityCheck,
                quad: geo.QuadratureSpec) -> dict:
    """Fixed-schema report record for one check on one shape."""
    hyp = {key: check.hypotheses.get(key) for key in HYPOTHESIS_KEYS}
    ratio = check.ratio
    return _jsonable({
        "suite": suite,
        "shape": geo.shape_to_json(immersion),
        "n": immersion.n,
        "K": immersion.space_form.K,
        "k": check.k,
        "lhs": check.lhs,
        "rhs": check.rhs,
        "ratio": None if math.isnan(ratio) else ratio,
        "status": check.status,
        "hypotheses": hyp,
        "extra": check.extra,
        "quadrature": {"order": quad.order, "level": quad.level},
    })


def residual_check(name: str, residual: float, tol: float,
                   hypotheses: dict | None = None) -> fn.InequalityCheck:
    """Identity-style record: passes when the residual is below tolerance."""
    check = fn.InequalityCheck(name=name, k=0, lhs=abs(residual), rhs=tol,
                               direction="le", hypotheses=hypotheses or {},
                               rel_tol=0.0, abs_tol=0.0)
    return check.finalize(True)


# ---------------------------------------------------------------------------
# shape families


def _k_range(args, n: int) -> list[int]:
    if args.k == "all":
        return list(range(1, n))
    k = int(args.k)
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must be in 1..{n - 1}, got {k}")
    return [k]


def _curvature_list(args) -> list[int]:
    if args.K == "all":
        return [-1, 0, 1]
    return [int(args.K)]


def _default_ball(space_form: SpaceForm, R: float) -> BallDomain:
    return BallDomain(space_form, R)


def family_caps(args) -> list:
    shapes = []
    count = args.count or 10
    for K in _curvature_list(args):
        sf = SpaceForm(K)
        ball = _default_ball(sf, args.radius)
        for rho_scale in np.geomspace(0.35, 3.0, count):
            shapes.append(geo.make_cap(sf, ball, float(rho_scale) * ball.R_model,
                                       n=args.n))
    return shapes


def family_disks(args) -> list:
    if any(K != 0 for K in _curvature_list(args)):
        raise ConfigError("flat disks exist only for K=0; pass --K 0")
    sf = SpaceForm(0)
    return [geo.make_flat_disk(sf, _default_ball(sf, args.radius), n=args.n)]


def random_perturbed(space_form: SpaceForm, ball: BallDomain, rng, n: int,
                     eps_hi: float = 0.035, require_convex: bool = True):
    """One random perturbed profile shape passing the convexity gate.

    The amplitude is shrunk until convexity and nonnegative Ricci hold, so
    the family deterministically yields admissible shapes for a fixed seed.
    """
    quad = geo.QuadratureSpec(order=20, level=1)
    for _ in range(40):
        rho = float(rng.uniform(0.8, 1.8)) * ball.R_model
        eps = float(rng.uniform(0.2, 1.0)) * eps_hi
        r_sin = {2: float(rng.uniform(-1, 1)), 3: float(rng.uniform(-1, 1))}
        z_cos = {1: float(rng.uniform(-1, 1)), 2: float(rng.uniform(-1, 1))}
        for _ in range(8):
            try:
                shape = geo.make_profile_shape(space_form, ball, rho,
                                               r_sin=r_sin, z_cos=z_cos,
                                               eps=eps, n=n)
            except (geo.ConstraintProjectionError, DomainError):
                eps *= 0.5
                continue
            ok = geo.ricci_min_over(shape, quad) >= -fn.GATE_TOL
            if require_convex:
                ok = ok and geo.convexity_min(shape, quad) > 0.0
            if ok:
                return shape
            eps *= 0.5
    raise geo.ConstraintProjectionError("no admissible perturbed shape found")


def family_perturbed(args) -> list:
    count = args.count or 10
    shapes = []
    for K in _curvature_list(args):
        sf = SpaceForm(K)
        ball = _default_ball(sf, args.radius)
        rng = np.random.default_rng(args.seed + 1000 * (K + 1))
        for _ in range(count):
            shapes.append(random_perturbed(sf, ball, rng, args.n))
    return shapes


def family_closed(args) -> list:
    count = args.count or 10
    quad = geo.QuadratureSpec(order=20, level=1)
    shapes = []
    for K in _curvature_list(args):
        sf = SpaceForm(K)
        rng = np.random.default_rng(args.seed + 1000 * (K + 1))
        shapes.append(geo.make_closed_sphere(sf, args.radius, n=args.n))
        accepted = 0
        attempts = 0
        while accepted < count - 1 and attempts < 40 * count:
            attempts += 1
            coeffs = list(rng.uniform(-1, 1, size=3))
            eps = float(rng.uniform(0.005, 0.03))
            shape = geo.make_closed_sphere(sf, args.radius, cos_coeffs=coeffs,
                                           eps=eps, n=args.n)
            if geo.ricci_min_over(shape, quad) >= -fn.GATE_TOL \
                    and geo.convexity_min(shape, quad) > 0.0:
                shapes.append(shape)
                accepted += 1
    return shapes


FAMILIES = {
    "caps": family_caps,
    "disks": family_disks,
    "perturbed": family_perturbed,
    "closed": family_closed,
}


def build_shapes(args) -> list:
    if args.shape:
        with open(args.shape) as fh:
            doc = json.load(fh)
        docs = doc if isinstance(doc, list) else [doc]
        return [geo.shape_from_json(d) for d in docs]
    if args.family is None:
        raise ConfigError("either --family or --shape is required")
    if args.family not in FAMILIES:
        raise ConfigError(f"unknown family {args.family!r}; "
                          f"choose from {sorted(FAMILIES)}")
    return FAMILIES[args.family](args)


def axis_potential(immersion) -> Potential:
    return Potential(immersion.space_form, immersion.axis)


# ---------------------------------------------------------------------------
# suites


def run_suite_on_shape(suite: str, immersion, args) -> list[dict]:
    quad = geo.QuadratureSpec(order=args.quad_order, level=args.quad_level)
    records = []

    def add(check):
        records.append(make_record(suite, immersion, check, quad))

    if suite == "thm1":
        for k in _k_range(args, immersion.n):
            add(fn.check_main_inequality(immersion, quad, k, rel_tol=args.rel_tol))
    elif suite == "thm4":
        pot = axis_potential(immersion)
        for k in _k_range(args, immersion.n):
            add(fn.check_main_inequality(immersion, quad, k, weight=pot,
                                         rel_tol=args.rel_tol))
    elif suite == "cor-convex":
        if immersion.space_form.K != 0:
            raise ConfigError("cor-convex applies to Euclidean shapes; pass --K 0")
        pot = axis_potential(immersion)
        for k in _k_range(args, immersion.n):
            check = fn.check_main_inequality(immersion, quad, k, weight=pot,
                                             rel_tol=args.rel_tol,
                                             name="cor-convex")
            if check.hypotheses.get("convexity_min", -1.0) <= 0.0:
                check.status = "inapplicable"
            add(check)
    elif suite == "cor-lowdim":
        if not fn.unit_euclidean_ball(immersion):
            raise ConfigError("cor-lowdim applies to the unit Euclidean ball; "
                              "pass --K 0 --radius 1")
        needs = {"i": 2, "ii": 3}[args.case]
        if immersion.n != needs:
            raise ConfigError(f"cor-lowdim case ({args.case}) needs n={needs}; "
                              f"pass --n {needs}")
        add(fn.check_corollary_low_dim(immersion, quad, args.case,
                                       rel_tol=args.rel_tol))
    elif suite == "perez":
        c1, c2 = (fn.check_perez(immersion, quad, formulation, rel_tol=args.rel_tol)
                  for formulation in (1, 2))
        add(c1)
        add(c2)
        # linkage of the two formulations
        linked = c1.lhs / immersion.n + c1.extra["hring2"]
        resid = abs(c2.lhs - linked) / max(1.0, abs(c2.lhs))
        add(residual_check("perez-equivalence", resid, 1e-10, c1.hypotheses))
    elif suite == "kwong":
        if not immersion.closed:
            raise ConfigError("kwong suite runs on closed shapes; "
                              "use --family closed")
        for k in _k_range(args, immersion.n):
            add(fn.check_main_inequality(immersion, quad, k, rel_tol=args.rel_tol,
                                         name="kwong"))
    elif suite == "reilly":
        pot = axis_potential(immersion)
        hyp = fn.hypothesis_report(immersion, quad, pot)
        for k in _k_range(args, immersion.n):
            if not hyp["half_ball"]:
                # no auxiliary problem to solve without a positive weight
                add(fn.InequalityCheck(name="proof-chain", k=k, lhs=math.nan,
                                       rhs=math.nan, direction="le",
                                       hypotheses=hyp).finalize(False))
                continue
            rep = reilly.proof_chain_check(immersion, pot, k, quad,
                                           n_cells=args.cells)
            check = fn.InequalityCheck(
                name="proof-chain", k=k, lhs=rep.final_lhs, rhs=rep.final_rhs,
                direction="le", hypotheses=hyp, rel_tol=args.rel_tol,
                extra=rep.residuals)
            gates_ok = hyp["half_ball"] and hyp["substatic_min"] >= -fn.GATE_TOL
            check.finalize(bool(gates_ok))
            if not rep.residuals_ok:
                # the residuals check the computation, not a hypothesis
                check.status = "fail"
            add(check)
    elif suite == "identities":
        sf = immersion.space_form
        if immersion.closed:
            add(residual_check("divergence-weak",
                               max(fn.divergence_free_check(immersion, quad, 1,
                                                            full=False)),
                               1e-8))
        else:
            ball = immersion.ball
            rng = np.random.default_rng(args.seed)
            worst = 0.0
            target = boundary_sphere_shape_operator(sf, ball)
            pot = axis_potential(immersion)
            for _ in range(20):
                v = rng.normal(size=immersion.n + 1)
                x = ball.R_model * v / np.linalg.norm(v)
                if pot.value(x) == 0.0:
                    continue
                worst = max(worst, abs(boundary_potential_ratio(pot, ball, x)
                                       - target))
            add(residual_check("boundary-ratio", worst, 1e-10))
            add(residual_check("substatic-factorization",
                               reilly.substatic_consistency(immersion, pot, quad),
                               1e-8))
            pos, ang = geo.free_boundary_residual(immersion, ball)
            add(residual_check("free-boundary", max(pos, ang), 1e-8))
            add(residual_check("divergence-weak",
                               max(fn.divergence_free_check(immersion, quad, 1,
                                                            full=False)),
                               1e-8))
    else:
        raise ConfigError(f"unknown suite {suite!r}")
    return records


def run_suite(args) -> tuple[dict, int]:
    """Run a suite over all shapes; returns (envelope, exit code)."""
    t0 = time.perf_counter()
    try:
        shapes = build_shapes(args)
    except (ConfigError, json.JSONDecodeError):
        raise
    except Exception as exc:
        print(f"shape construction failed: {exc}", file=sys.stderr)
        return {}, EXIT_SHAPE

    try:
        per_shape = [run_suite_on_shape(args.suite, s, args) for s in shapes]
    except ConfigError:
        raise
    except Exception as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return {}, EXIT_NUMERIC

    records = [rec for group in per_shape for rec in group]
    counts = {"pass": 0, "fail": 0, "inapplicable": 0}
    for rec in records:
        counts[rec["status"]] += 1
    envelope = {
        "version": __version__,
        "suite": args.suite,
        "records": records,
        "counts": counts,
        "wall_clock_s": round(time.perf_counter() - t0, 3),
    }
    return envelope, EXIT_FAIL if counts["fail"] else EXIT_PASS


# ---------------------------------------------------------------------------
# output


def write_report(envelope: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(envelope, indent=2, sort_keys=True)
    else:
        text = records_to_csv(envelope["records"])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def records_to_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    fields = ["suite", "kind", "n", "K", "k", "lhs", "rhs", "ratio", "status"]
    writer = csv.writer(buf)
    writer.writerow(fields)
    for rec in records:
        writer.writerow([rec["suite"], rec["shape"]["kind"], rec["n"], rec["K"],
                         rec["k"], rec["lhs"], rec["rhs"], rec["ratio"],
                         rec["status"]])
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# verbs


def cmd_verify(args) -> int:
    envelope, code = run_suite(args)
    if envelope:
        write_report(envelope, args)
    return code


def cmd_sweep(args) -> int:
    try:
        start, end, step = (float(v) for v in args.epsilon.split(":"))
    except ValueError:
        raise ConfigError("--epsilon must be start:end:step")
    if step <= 0 or end < start:
        raise ConfigError("--epsilon range must be increasing with positive step")
    quad = geo.QuadratureSpec(order=args.quad_order, level=args.quad_level)
    sf = SpaceForm(int(args.K) if args.K != "all" else 0)
    ball = _default_ball(sf, args.radius)
    k = 1 if args.k == "all" else int(args.k)
    rows = []
    eps = start
    any_fail = False
    while eps <= end + 1e-12:
        try:
            if abs(eps) < 1e-15:
                shape = geo.make_cap(sf, ball, 1.3 * ball.R_model, n=args.n)
            else:
                shape = geo.make_profile_shape(sf, ball, 1.3 * ball.R_model,
                                               r_sin={2: 1.0}, z_cos={1: 0.6},
                                               eps=eps, n=args.n)
        except (geo.ConstraintProjectionError, DomainError) as exc:
            print(f"shape construction failed at epsilon={eps}: {exc}",
                  file=sys.stderr)
            return EXIT_SHAPE
        if args.suite == "thm4":
            check = fn.check_main_inequality(shape, quad, k,
                                             weight=axis_potential(shape),
                                             rel_tol=args.rel_tol)
        else:
            check = fn.check_main_inequality(shape, quad, k,
                                             rel_tol=args.rel_tol)
        any_fail = any_fail or check.status == "fail"
        ratio = check.ratio
        rows.append([eps, check.lhs, check.rhs,
                     "" if math.isnan(ratio) else ratio, check.status])
        eps += step
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epsilon", "lhs", "rhs", "ratio", "status"])
    writer.writerows(rows)
    text = buf.getvalue().rstrip("\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_FAIL if any_fail else EXIT_PASS


def cmd_describe(args) -> int:
    try:
        shapes = build_shapes(args)
    except ConfigError:
        raise
    except Exception as exc:
        print(f"shape construction failed: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    quad = geo.QuadratureSpec(order=args.quad_order, level=args.quad_level)
    docs = []
    for shape in shapes:
        data = geo.surface_data(shape, quad)
        hyp = fn.hypothesis_report(shape, quad, axis_potential(shape)
                                   if not shape.closed else None)
        doc = {
            "shape": geo.shape_to_json(shape),
            "n": shape.n,
            "K": shape.space_form.K,
            "area": data.area,
            "boundary_measure": shape.boundary_measure(),
            "kappa_range": [float(data.kappa.min()), float(data.kappa.max())],
            "average_H": {str(k): fn.average_hk(shape, quad, k)
                          for k in range(1, shape.n)},
            "non_umbilicity": geo.non_umbilicity(shape, quad),
            "hypotheses": hyp,
            "quadrature": {"order": quad.order, "level": quad.level},
        }
        if not shape.closed:
            pos, ang = geo.free_boundary_residual(shape, shape.ball)
            doc["free_boundary_residual"] = {"position": pos, "angle": ang}
        docs.append(_jsonable(doc))
    text = json.dumps(docs[0] if len(docs) == 1 else docs, indent=2,
                      sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(FAMILIES), default=None,
                   help="built-in shape family")
    p.add_argument("--shape", default=None, help="path to a shape JSON file")
    p.add_argument("--K", choices=["-1", "0", "1", "all"], default="0",
                   help="ambient curvature (default 0)")
    p.add_argument("--k", default="all", help="curvature order, integer or 'all'")
    p.add_argument("--n", type=int, default=2, help="hypersurface dimension")
    p.add_argument("--count", type=int, default=None,
                   help="shapes per family per curvature")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--radius", type=float, default=1.0,
                   help="geodesic ball radius (or sphere radius for closed)")
    p.add_argument("--quad-order", dest="quad_order", type=int, default=20)
    p.add_argument("--quad-level", dest="quad_level", type=int, default=1)
    p.add_argument("--rel-tol", dest="rel_tol", type=float,
                   default=fn.DEFAULT_REL_TOL)
    p.add_argument("--cells", type=int, default=2000,
                   help="grid cells for the boundary value solver")
    p.add_argument("--case", choices=["i", "ii"], default="i",
                   help="corollary case for cor-lowdim")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeform",
        description="verify curvature inequalities for free boundary "
                    "hypersurfaces in balls of the three space forms")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="scan perturbation amplitude")
    p_sweep.add_argument("suite", choices=("thm1", "thm4"))
    p_sweep.add_argument("--epsilon", required=True,
                         help="amplitude range start:end:step")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_desc = sub.add_parser("describe", help="geometry report for a shape")
    _add_common(p_desc)
    p_desc.set_defaults(func=cmd_describe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
