"""Seeded inputs of the three benchmark workloads.

Every workload is a fixed list of items. An item is one shape, built with
the public constructors, and one verification on it: a CLI suite through
``cli.run_suite_on_shape`` or a direct call into ``reilly`` or
``functionals``. The seed draws the shape parameters; the list structure
(which suites, dimensions and curvatures) is the same for every seed, so
runs on different seeds do the same amount of work.

Each item owns its shape, so every verification starts from an empty
shape cache, as it does in a CLI invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from freeform import cli, geometry as geo, functionals as fn, reilly
from freeform.spaceform import BallDomain, DomainError, Potential, SpaceForm

QUAD = geo.QuadratureSpec()          # the CLI default: order 20, level 1
CURVATURES = (-1, 0, 1)
DIMENSIONS = (2, 3)
WORKLOADS = ("suites-profile", "charts-full", "proof-chain")
DRAWS = 20                            # redraws allowed per shape


@dataclass
class Item:
    """One shape and the verification run on it."""

    label: str          # kind/suite/dimension/curvature, same for every seed
    kind: str           # profile | cap | disk | closed
    check: str          # suite name, or witness | ledger | tilted
    shape: object
    weight: Potential | None = None
    field: tuple | None = None   # (name, parameters) of the ledger field f


class Inputs:
    """Seeded shape generator that counts failed constructions."""

    def __init__(self, seed: int, workload: str):
        index = WORKLOADS.index(workload)
        self.rng = np.random.default_rng([seed % 2**63, index])
        self.constructed = 0
        self.failed = 0

    def _build(self, make: Callable[[], object]):
        for _ in range(DRAWS):
            try:
                shape = make()
            except (geo.ConstraintProjectionError, DomainError):
                self.failed += 1
                continue
            self.constructed += 1
            return shape
        raise RuntimeError(f"no shape constructed in {DRAWS} draws")

    def ball(self, K: int) -> BallDomain:
        return BallDomain(SpaceForm(K), float(self.rng.uniform(0.7, 1.1)))

    def profile(self, ball: BallDomain, n: int):
        rng = self.rng

        def make():
            return geo.make_profile_shape(
                ball.space_form, ball, float(rng.uniform(1.1, 1.5)) * ball.R_model,
                r_sin={2: float(rng.uniform(-1, 1))},
                z_cos={1: float(rng.uniform(-1, 1))},
                eps=float(rng.uniform(0.005, 0.03)), n=n)
        return self._build(make)

    def cap(self, ball: BallDomain, n: int, lo: float = 0.35, hi: float = 3.0):
        scale = math.exp(float(self.rng.uniform(math.log(lo), math.log(hi))))
        return self._build(lambda: geo.make_cap(ball.space_form, ball,
                                                scale * ball.R_model, n=n))

    def disk(self, ball: BallDomain, n: int):
        return self._build(lambda: geo.make_flat_disk(ball.space_form, ball, n=n))

    def closed(self, K: int, n: int):
        rng = self.rng

        def make():
            return geo.make_closed_sphere(
                SpaceForm(K), float(rng.uniform(0.6, 1.0)),
                cos_coeffs=[float(c) for c in rng.uniform(-1, 1, size=3)],
                eps=float(rng.uniform(0.005, 0.03)), n=n)
        return self._build(make)


def _suites_profile(gen: Inputs, seed: int) -> list[Item]:
    items = []
    for n in DIMENSIONS:
        for K in CURVATURES:
            for kind in ("profile", "cap"):
                for suite in ("thm1", "thm4", "identities"):
                    ball = gen.ball(K)
                    shape = gen.profile(ball, n) if kind == "profile" else gen.cap(ball, n)
                    items.append(Item(f"{kind}/{suite}/n{n}/K{K}", kind, suite, shape))
        # thm4 is left out on the disk: it lies in the zero set of the axis
        # potential and the weighted average raises NonpositiveWeightError
        for suite in ("thm1", "identities"):
            shape = gen.disk(gen.ball(0), n)
            items.append(Item(f"disk/{suite}/n{n}/K0", "disk", suite, shape))
    unit = BallDomain(SpaceForm(0), 1.0)
    for n in DIMENSIONS:
        for suite in ("cor-lowdim", "cor-convex"):
            items.append(Item(f"profile/{suite}/n{n}/K0", "profile", suite,
                              gen.profile(unit, n)))
            items.append(Item(f"cap/{suite}/n{n}/K0", "cap", suite,
                              gen.cap(unit, n, 0.4, 2.5)))
    for n in DIMENSIONS:
        items.append(Item(f"closed/perez/n{n}/K0", "closed", "perez", gen.closed(0, n)))
        for K in CURVATURES:
            for suite in ("kwong", "thm1"):
                items.append(Item(f"closed/{suite}/n{n}/K{K}", "closed", suite,
                                  gen.closed(K, n)))
    return items


def _charts_full(gen: Inputs, seed: int) -> list[Item]:
    rng = gen.rng
    items = [Item("disk/witness/n2/K0", "disk", "witness",
                  gen.disk(BallDomain(SpaceForm(0), 1.0), 2))]
    for K in CURVATURES:
        shape = gen.profile(gen.ball(K), 2)
        curve = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)),
                 float(rng.uniform(-0.3, 0.3)))
        items.append(Item(f"profile/ledger-profile/n2/K{K}", "profile", "ledger",
                          shape, field=("profile", curve)))
        shape = gen.profile(gen.ball(K), 2)
        ambient = (tuple(float(b) for b in 0.5 * rng.normal(size=3)),
                   float(rng.uniform(0.2, 1.0)))
        items.append(Item(f"profile/ledger-ambient/n2/K{K}", "profile", "ledger",
                          shape, field=("ambient", ambient)))
        shape = gen.profile(gen.ball(K), 2)
        # a small tilt keeps V_a > 0 on the shape: its contact orbit sits at
        # angle atan(R_model / rho) > 0.5 rad from the axis
        tilt, phase = float(rng.uniform(0.05, 0.2)), float(rng.uniform(0, 2 * math.pi))
        a = math.cos(tilt) * shape.axis + math.sin(tilt) * np.array(
            [math.cos(phase), math.sin(phase), 0.0])
        items.append(Item(f"profile/tilted/n2/K{K}", "profile", "tilted", shape,
                          weight=Potential(shape.space_form, a / np.linalg.norm(a))))
    return items


def _proof_chain(gen: Inputs, seed: int) -> list[Item]:
    # One n=3 shape per pass, its curvature chosen by the seed: an n=3 chain
    # solves for k=1 and k=2 and costs about three n=2 chains, and a short
    # pass gives the run enough passes for a median.
    items = [Item(f"profile/reilly/n2/K{K}", "profile", "reilly",
                  gen.profile(gen.ball(K), 2)) for K in CURVATURES]
    K = CURVATURES[seed % 3]
    items.append(Item(f"profile/reilly/n3/K{K}", "profile", "reilly",
                      gen.profile(gen.ball(K), 3)))
    return items


ITEM_LISTS = {"suites-profile": _suites_profile, "charts-full": _charts_full,
            "proof-chain": _proof_chain}


def build(workload: str, seed: int) -> tuple[list[Item], Inputs]:
    gen = Inputs(seed, workload)
    return ITEM_LISTS[workload](gen, seed), gen


# ---------------------------------------------------------------------------
# running an item


def suite_args(item: Item, seed: int):
    """CLI defaults for an item's suite, parsed by the CLI's own parser."""
    if item.check not in cli.SUITES:
        return None
    argv = ["verify", item.check, "--seed", str(seed % 2**31)]
    if item.check == "cor-lowdim":
        argv += ["--case", "i" if item.shape.n == 2 else "ii"]
    return cli.build_parser().parse_args(argv)


def _ledger_fields(item: Item):
    shape = item.shape
    if item.check == "witness":
        one = reilly.ChartField(lambda p: 1.0, lambda p: np.zeros(2),
                                lambda p: np.zeros((2, 2)))
        f_sq = reilly.ChartField.from_ambient(shape, lambda x: float(x @ x),
                                              lambda x: 2.0 * x,
                                              lambda x: 2.0 * np.eye(3))
        return one, f_sq
    V = reilly.ChartField.from_potential(shape, cli.axis_potential(shape))
    name, params = item.field
    if name == "profile":
        c0, c1, c2 = params
        f = reilly.ChartField.from_profile(geo.trig_curve(c0, {}, {1: c1, 2: c2}), 2)
    else:
        b, c = np.array(params[0]), params[1]
        f = reilly.ChartField.from_ambient(shape, lambda x: float(b @ x + c * (x @ x)),
                                           lambda x: b + 2.0 * c * x,
                                           lambda x: 2.0 * c * np.eye(3))
    return V, f


def run_item(item: Item, args) -> list[dict]:
    """Verify one item; returns its records as plain dicts.

    ``args`` is the parsed CLI namespace for suite items and unused
    otherwise.
    """
    if item.check in ("witness", "ledger"):
        V, f = _ledger_fields(item)
        led = reilly.reilly_residual(item.shape, V, f, QUAD)
        rhs = led.bulk_substatic + led.boundary_h + led.boundary_HN
        return [{"lhs": float(led.bulk_lhs), "rhs": float(rhs), "status": "computed",
                 "extra": {"bulk_substatic": float(led.bulk_substatic),
                           "boundary_h": float(led.boundary_h),
                           "boundary_HN": float(led.boundary_HN),
                           "relative_residual": float(led.relative_residual)}}]
    if item.check == "tilted":
        check = fn.check_main_inequality(item.shape, QUAD, 1, weight=item.weight)
        return [{"lhs": float(check.lhs), "rhs": float(check.rhs),
                 "status": check.status, "extra": {}}]
    return [{"lhs": rec["lhs"], "rhs": rec["rhs"], "status": rec["status"],
             "k": rec["k"], "extra": {}}
            for rec in cli.run_suite_on_shape(item.check, item.shape, args)]
