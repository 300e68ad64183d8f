"""Correctness gate of the benchmark.

Two kinds of check, both applied to every record of every pass:

* invariants of the paper that hold on any seed: the 8 pi disk witness,
  equality at caps and flat disks, the proof-chain residual bounds and its
  agreement with the direct checker, the Perez equivalence, the weighted
  integral identity on analytic data, and no ``fail`` status on an
  admissible shape;
* on the default seed, agreement with reference numbers recorded from the
  program (``reference.json``) to 1e-12 of each record's scale. Residuals
  (the lhs of an identity record, the proof chain's ``*_residual`` values)
  sit at their round-off floor, which central differences with steps of
  1e-5 and 1e-6 raise to about 1e-11; a residual may move by 1e-2 of the
  threshold it is checked against.

Each check returns (record index, message) pairs for the records out of
tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from freeform import cli, functionals as fn, geometry as geo

from workloads import QUAD, Item

DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_RTOL = 1e-12
RESIDUAL_SHARE = 1e-2
EQUALITY_TOL = 1e-10        # criterion 01, normalised units
WITNESS_TOL = 1e-12         # criterion 07, closed-form 8 pi witness
LEDGER_TOL = 1e-6           # criterion 07, random analytic triples
PEREZ_TOL = 1e-10           # the perez-equivalence record's own tolerance
CHAIN_TOLS = {"pde_residual": 1e-7, "pairing_residual": 1e-6,
              "slack_residual": 1e-5}   # criterion 08
CHAIN_AGREEMENT = 1e-6      # criterion 08, proof chain vs direct checker


def _weight_bound(shape) -> float:
    """Upper bound of |V_a| on a shape inside its ball."""
    r = shape.ball.R_model
    K = shape.space_form.K
    if K == 0:
        return max(1.0, r)
    return max(1.0, 2.0 * r / (1.0 + K * r * r))


def _equality(item: Item, records: list[dict]) -> list[tuple[int, str]]:
    shape = item.shape
    weighted = item.check == "thm4"
    out = []
    for i, rec in enumerate(records):
        k = rec["k"]
        avg = fn.average_hk(shape, QUAD, k)
        scale = geo.surface_data(shape, QUAD).area * (1.0 + avg * avg)
        if weighted:
            scale *= _weight_bound(shape)
        worst = max(abs(rec["lhs"]), abs(rec["rhs"])) / scale
        if worst > EQUALITY_TOL:
            out.append((i, f"{item.label} k={k}: equality defect {worst:.3e}"))
    return out


def _proof_chain(item: Item, records: list[dict]) -> list[tuple[int, str]]:
    shape = item.shape
    out = []
    for i, rec in enumerate(records):
        k, ex = rec["k"], rec["extra"]
        for key, tol in CHAIN_TOLS.items():
            if not ex[key] <= tol:
                out.append((i, f"{item.label} k={k}: {key} {ex[key]:.3e} > {tol}"))
        if not (ex["cauchy_schwarz_ok"] and ex["final_ok"]):
            out.append((i, f"{item.label} k={k}: Cauchy-Schwarz or final bound violated"))
        if rec["status"] != "inapplicable" and ex["trace_slack"] < 0.0:
            out.append((i, f"{item.label} k={k}: negative trace slack "
                           f"{ex['trace_slack']:.3e}"))
        direct = fn.check_main_inequality(shape, QUAD, k, weight=cli.axis_potential(shape))
        for side, value in (("lhs", direct.lhs), ("rhs", direct.rhs)):
            err = abs(ex[f"final_{side}"] / value - 1.0)
            if not err <= CHAIN_AGREEMENT:
                out.append((i, f"{item.label} k={k}: proof chain {side} off the "
                               f"direct checker by {err:.3e}"))
    return out


def invariants(item: Item, records: list[dict]) -> list[tuple[int, str]]:
    """The records of one item that break a paper invariant."""
    out = [(i, f"{item.label}: status fail")
           for i, rec in enumerate(records) if rec["status"] == "fail"]
    if item.kind in ("cap", "disk") and item.check in ("thm1", "thm4"):
        out += _equality(item, records)
    if item.check == "perez":
        out += [(i, f"{item.label}: perez-equivalence {rec['lhs']:.3e}")
                for i, rec in enumerate(records)
                if rec["k"] == 0 and not rec["lhs"] <= PEREZ_TOL]
    if item.check == "reilly":
        out += _proof_chain(item, records)
    if item.check in ("witness", "ledger"):
        (rec,) = records
        ex = rec["extra"]
        if item.check == "witness":
            errs = (abs(rec["lhs"] / (8 * math.pi) - 1.0),
                    abs(ex["boundary_HN"] / (8 * math.pi) - 1.0),
                    ex["relative_residual"])
            if not max(errs) <= WITNESS_TOL:
                out.append((0, f"{item.label}: 8 pi witness off by {max(errs):.3e}"))
        elif not ex["relative_residual"] <= LEDGER_TOL:
            out.append((0, f"{item.label}: ledger residual "
                           f"{ex['relative_residual']:.3e}"))
    return out


def load_reference(workload: str) -> list[dict] | None:
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload)


def _tolerances(want: dict) -> dict:
    scale = max(1.0, abs(want["lhs"]), abs(want["rhs"]))
    tol = {key: REFERENCE_RTOL * scale for key in ("lhs", "rhs", *want["extra"])}
    if want.get("k") == 0:  # identity record: lhs is the residual, rhs its threshold
        tol["lhs"] = max(tol["lhs"], RESIDUAL_SHARE * want["rhs"])
    for key, bound in CHAIN_TOLS.items():
        if key in tol:
            tol[key] = max(tol[key], RESIDUAL_SHARE * bound)
    return tol


def against_reference(ref: dict, item: Item,
                      records: list[dict]) -> list[tuple[int, str]]:
    """The records that moved from the reference beyond round-off."""
    if ref["label"] != item.label or len(ref["records"]) != len(records):
        return [(i, f"{item.label}: item differs from reference {ref['label']}")
                for i in range(len(records))]
    out = []
    for i, (want, got) in enumerate(zip(ref["records"], records)):
        tol = _tolerances(want)
        if want["status"] != got["status"]:
            out.append((i, f"{item.label}: status {got['status']} != {want['status']}"))
        pairs = [("lhs", want["lhs"], got["lhs"]), ("rhs", want["rhs"], got["rhs"])]
        pairs += [(key, value, got["extra"].get(key))
                  for key, value in want["extra"].items()]
        for key, a, b in pairs:
            if isinstance(a, bool) or a is None:
                ok = a == b
            else:
                ok = b is not None and abs(a - b) <= tol[key]
            if not ok:
                out.append((i, f"{item.label}: {key} {b!r} != reference {a!r}"))
    return out
