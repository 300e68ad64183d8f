"""Spans around the calls into each freeform module, recorded from outside.

``install`` rebinds the public functions and methods listed in TARGETS to
timing wrappers: the module attribute, every copy imported into another
freeform module (``functionals`` imports ``surface_data`` by name), and
class methods on the class. ``uninstall`` restores the originals.

Each call records a span (name, start, end, parent span, shape id) in
compact arrays kept in memory, and adds to per-name aggregates: calls,
total time, self time (duration minus the time of wrapped callees) and
exceptions raised out of the call.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np
import scipy.sparse.linalg

from freeform import cli, functionals, geometry, reilly, spaceform, symalg

# metric name -> (owner, attribute); the owner is a module or a class
TARGETS = {
    "geometry.frame_at": (geometry, "frame_at"),
    "geometry.surface_data": (geometry, "surface_data"),
    "geometry.SurfaceData": (geometry.SurfaceData, "__init__"),
    "geometry.christoffels": (geometry, "christoffels"),
    "geometry.metric_derivatives": (geometry, "metric_derivatives"),
    "geometry.ricci_min": (geometry, "ricci_min"),
    "geometry.free_boundary_residual": (geometry, "free_boundary_residual"),
    "geometry.make_cap": (geometry, "make_cap"),
    "geometry.make_flat_disk": (geometry, "make_flat_disk"),
    "geometry.make_profile_shape": (geometry, "make_profile_shape"),
    "geometry.make_closed_sphere": (geometry, "make_closed_sphere"),
    "symalg.principal_curvatures": (symalg, "principal_curvatures"),
    "symalg.newton_tensors": (symalg, "newton_tensors"),
    "symalg.mean_curvatures": (symalg, "mean_curvatures"),
    "symalg.substatic_tensor": (symalg, "substatic_tensor"),
    "symalg.to_orthonormal": (symalg, "to_orthonormal"),
    "spaceform.SpaceForm.u": (spaceform.SpaceForm, "u"),
    "spaceform.SpaceForm.grad_u": (spaceform.SpaceForm, "grad_u"),
    "spaceform.Potential.value": (spaceform.Potential, "value"),
    "spaceform.Potential.grad": (spaceform.Potential, "grad"),
    "spaceform.Potential.hess": (spaceform.Potential, "hess"),
    "functionals.hypothesis_report": (functionals, "hypothesis_report"),
    "functionals.average_hk": (functionals, "average_hk"),
    "functionals.check_main_inequality": (functionals, "check_main_inequality"),
    "functionals.check_perez": (functionals, "check_perez"),
    "functionals.check_corollary_low_dim": (functionals, "check_corollary_low_dim"),
    "functionals.divergence_free_check": (functionals, "divergence_free_check"),
    "functionals.cap_function": (functionals, "cap_function"),
    "reilly.solve_neumann": (reilly, "solve_neumann"),
    "reilly.spsolve": (scipy.sparse.linalg, "spsolve"),
    "reilly.reilly_residual": (reilly, "reilly_residual"),
    "reilly.boundary_calculus": (reilly, "boundary_calculus"),
    "reilly.ChartField.hessian": (reilly.ChartField, "hessian"),
    "reilly.proof_chain_check": (reilly, "proof_chain_check"),
    "reilly.substatic_consistency": (reilly, "substatic_consistency"),
    "cli.run_suite_on_shape": (cli, "run_suite_on_shape"),
    "cli.make_record": (cli, "make_record"),
}

# (callee, ancestor): calls of the callee made while the ancestor is open
NESTED = (("geometry.frame_at", "reilly.solve_neumann"),
          ("geometry.make_cap", "functionals.cap_function"))

# per-call sizes: name -> function of the call's arguments
SIZES = {
    "geometry.SurfaceData": lambda args: len(getattr(args[0], "weights", ())),
    "reilly.spsolve": lambda args: args[0].shape[0],
}

MAX_SPANS = 2_000_000


class Tracer:
    """In-memory spans and per-name aggregates."""

    def __init__(self):
        self.names = list(TARGETS)
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.errors = [0] * n
        self.sizes = [0] * n
        self.open = [0] * n
        self.nested = {pair: 0 for pair in NESTED}
        self.shape_id = -1
        self.parent = -1
        self.child_time = [0.0]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_shape = array("i")
        self._restore = []

    def wrap(self, nid: int, func):
        name = self.names[nid]
        nested = [(pair, self.names.index(pair[1])) for pair in NESTED if pair[0] == name]
        size = SIZES.get(name)
        spans = (self.span_name, self.span_start, self.span_end,
                 self.span_parent, self.span_shape)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self.parent
            idx = len(spans[0])
            if idx < MAX_SPANS:
                spans[0].append(nid)
                spans[1].append(0.0)
                spans[2].append(0.0)
                spans[3].append(parent)
                spans[4].append(self.shape_id)
                self.parent = idx
            else:
                idx = -1
            for pair, aid in nested:
                if self.open[aid]:
                    self.nested[pair] += 1
            self.open[nid] += 1
            self.child_time.append(0.0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                self.open[nid] -= 1
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += dur - self.child_time.pop()
                self.child_time[-1] += dur
                self.parent = parent
                if idx >= 0:
                    spans[1][idx] = t0
                    spans[2][idx] = t1
            if size is not None:
                self.sizes[nid] += size(args)
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "freeform" or name.startswith("freeform.")]
        for nid, name in enumerate(self.names):
            owner, attr = TARGETS[name]
            orig = owner.__dict__[attr]
            wrapped = self.wrap(nid, orig)
            rebinds = [(owner, attr)]
            if not isinstance(owner, type):
                rebinds += [(m, key) for m in modules if m is not owner
                            for key, value in vars(m).items() if value is orig]
            for target, key in rebinds:
                setattr(target, key, wrapped)
                self._restore.append((target, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    def aggregates(self) -> dict:
        return {"names": self.names, "calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "errors": self.errors, "sizes": self.sizes,
                "nested": {f"{a}>{b}": v for (a, b), v in self.nested.items()},
                "spans": len(self.span_name)}

    def write(self, path) -> None:
        """Write the spans as numpy arrays; times are perf_counter seconds."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 shape=np.frombuffer(self.span_shape, dtype=np.int32))
