"""Layer spans recorded from outside the program.

phinmod's modules import each other's names (``from .linalg import rref``),
so a function lives under several module bindings.  ``install`` wraps each
traced function once and rebinds the wrapper at every binding inside the
``phinmod`` package (module globals and class attributes, aliases such as
``__radd__ = __add__`` included), so every call path is counted.

Spans are kept in memory as per-name aggregates, not one record per call:
at working precision 60 a single round makes close to a million field
operations.  For each name the tracer keeps

* ``calls``   -- every entry into the function;
* ``total_s`` -- inclusive wall time, counted for the outermost active call
  of that name only, so recursion is not double counted;
* ``self_s``  -- span duration minus the part covered by child spans.

Each thread keeps its own aggregates and span stack (``batch --jobs 2``
runs entries on a thread pool); ``snapshot`` sums them.
"""
from __future__ import annotations

import functools
import sys
import threading
import time

# span name -> (module, attribute path inside it)
TRACED = {
    "padic.mul": ("phinmod.padic", "FieldElement.__mul__"),
    "padic.add": ("phinmod.padic", "FieldElement.__add__"),
    "padic.inverse": ("phinmod.padic", "FieldElement.inverse"),
    "padic.valuation": ("phinmod.padic", "FieldElement.valuation"),
    "padic.make_element": ("phinmod.padic", "make_element"),
    "padic.roots_in_field": ("phinmod.padic", "roots_in_field"),
    "padic.hensel_root": ("phinmod.padic", "hensel_root"),
    "padic.desc_eq": ("phinmod.padic", "LocalFieldDesc.__eq__"),
    "padic.desc_new": ("phinmod.padic", "LocalFieldDesc.__post_init__"),
    "padic.certify": ("phinmod.padic", "LocalFieldDesc._certify"),
    "linalg.rref": ("phinmod.linalg", "rref"),
    "linalg.charpoly": ("phinmod.linalg", "charpoly"),
    "linalg.inv": ("phinmod.linalg", "inv"),
    "linalg.right_kernel": ("phinmod.linalg", "right_kernel"),
    "linalg.solve_columns": ("phinmod.linalg", "solve_columns"),
    "linalg.subspace_from_vectors": ("phinmod.linalg", "Subspace.from_vectors"),
    "eigen.enumerate_submodules": ("phinmod.eigen", "enumerate_submodules"),
    "eigen.cycle_roots": ("phinmod.eigen", "cycle_roots"),
    "eigen.propagate_space": ("phinmod.eigen", "propagate_space"),
    "filtration.is_admissible": ("phinmod.filtration", "is_admissible"),
    "filtration.induce_on_submodule": ("phinmod.filtration", "induce_on_submodule"),
    "filtration.dual_filtration": ("phinmod.filtration", "dual_filtration"),
    "filtration.tensor_filtration": ("phinmod.filtration", "tensor_filtration"),
    "isom.is_isomorphic": ("phinmod.isom", "is_isomorphic"),
    "monodromy.build_monodromy": ("phinmod.monodromy", "build_monodromy"),
    "monodromy.build_degenerate": ("phinmod.monodromy", "build_degenerate"),
    "monodromy.build_w": ("phinmod.monodromy", "build_w"),
    "monodromy.extract_invariants": ("phinmod.monodromy", "extract_invariants"),
    "monodromy.end0_check": ("phinmod.monodromy", "end0_check"),
    "modules.frobenius_composite": ("phinmod.modules", "frobenius_composite"),
    "modules.end0_module": ("phinmod.modules", "end0_module"),
    "modules.tensor_module": ("phinmod.modules", "tensor_module"),
    "modules.validate_module": ("phinmod.modules", "validate_module"),
    "colmez.colmez_form": ("phinmod.colmez", "colmez_form"),
    "colmez.gamma_consistency": ("phinmod.colmez", "gamma_consistency"),
    "colmez.solve_ell_scalar": ("phinmod.colmez", "solve_ell_scalar"),
    "cohomology.cup": ("phinmod.cohomology", "cup"),
    "serial.parse_instance": ("phinmod.serial", "parse_instance"),
    "serial.parse_field": ("phinmod.serial", "parse_field"),
    "serial.dump": ("phinmod.serial", "dump_element"),
    "cli.execute": ("phinmod.cli", "execute"),
    "cli.run": ("phinmod.cli", "run"),
}


class _ThreadState:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.stack: list[float] = []  # child time accumulated per open span


class Tracer:
    def __init__(self):
        self._states: list[_ThreadState] = []
        self._local = threading.local()
        self._restore: list = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def snapshot(self) -> dict:
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
        for st in self._states:
            for name, agg in out.items():
                agg["calls"] += st.calls.get(name, 0)
                agg["total_s"] += st.total.get(name, 0.0)
                agg["self_s"] += st.self_time.get(name, 0.0)
        return out

    def _wrap(self, name: str, fn):
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            st.calls[name] = st.calls.get(name, 0) + 1
            depth = st.depth.get(name, 0)
            st.depth[name] = depth + 1
            stack = st.stack
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                st.depth[name] = depth
                if stack:
                    stack[-1] += elapsed
                st.self_time[name] = st.self_time.get(name, 0.0) + elapsed - children
                if depth == 0:
                    st.total[name] = st.total.get(name, 0.0) + elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function at all of its bindings in phinmod."""
        import phinmod.cli  # noqa: F401  (loads every module of the package)

        modules = [m for k, m in list(sys.modules.items()) if k == "phinmod" or k.startswith("phinmod.")]
        for name, (modname, path) in TRACED.items():
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            wrapped = self._wrap(name, original)
            replacement = classmethod(wrapped) if is_classmethod else wrapped
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
                    elif isinstance(value, type) and value.__module__.startswith("phinmod"):
                        for ckey, cval in list(vars(value).items()):
                            if cval is raw or cval is original:
                                self._rebind(value, ckey, replacement if cval is raw else wrapped)

    def _rebind(self, owner, key, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
