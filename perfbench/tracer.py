"""Per-layer tracing of ncreflect from outside the package.

``Tracer`` replaces the public entry points of each layer with thin
wrappers that count calls and time them, and puts every original back
when it exits.  Nothing in ``src/`` knows about it: a layer function is
wrapped wherever an ``ncreflect`` module binds it, and a stage of
``analysis.analyze`` is wrapped under the name ``ncreflect.analysis``
binds it, so the stage timers see exactly the calls ``analyze`` makes.

Times are inclusive (a ``SparseEch.insert`` made by ``Subspace.intersect``
counts in both ``linalg.insert_s`` and ``linalg.intersect_s``).  A
recursive function, or a group of functions sharing one timer, is timed
at its outermost call only, so no interval is counted twice.
"""

from __future__ import annotations

import ast
import functools
import inspect
import sys
import time

# Layer functions that ``ncreflect.analysis.analyze`` calls directly, as
# ``analysis_stage_names`` derives them from the source.  Each one gets a
# ``stage.<name>_s`` metric; the self-check test keeps the two in step.
STAGES = (
    "central_idempotents",
    "check_component_multiplicativity",
    "cocycle_table",
    "component_report",
    "covariant_data",
    "dis_radical",
    "divisor_report",
    "dual_group_shortcut",
    "FixedPolyModel",
    "fixed_ring",
    "frobenius_pairing",
    "homological_determinant",
    "isotypic_series",
    "jacobian_data",
    "jacobian_transfer",
    "nakayama_check",
    "principal_radical",
    "proportional",
    "radical_slices",
    "rife_action_check",
    "series_is_polynomial",
    "series_quotient",
    "steinberg_factorization",
    "trace_discriminant",
)

# Metric name -> unit of everything one traced pass records.
LAYER_UNITS = {
    "scalars.mul_calls": "count",
    "scalars.mul_cyclotomic_calls": "count",
    "scalars.add_calls": "count",
    "scalars.inverse_calls": "count",
    "linalg.insert_calls": "count",
    "linalg.rank_raises": "count",
    "linalg.insert_yield": "ratio",
    "linalg.insert_s": "s",
    "linalg.insert_nnz": "entries",
    "linalg.intersect_calls": "count",
    "linalg.intersect_s": "s",
    "linalg.dense_rref_calls": "count",
    "linalg.dense_rref_s": "s",
    "ncalg.build_s": "s",
    "ncalg.mul_calls": "count",
    "ncalg.mul_s": "s",
    "ncalg.ideal_s": "s",
    "hopf.verify_s": "s",
    "hopf.columns_s": "s",
    "hopf.act_calls": "count",
    "smash.mul_calls": "count",
    "smash.pertinency_s": "s",
    "smash.trace_on_a_s": "s",
    **{f"stage.{name}_s": "s" for name in STAGES},
}


def analysis_stage_names(analysis) -> set[str]:
    """Names imported from ncreflect modules that ``analyze`` calls."""
    tree = ast.parse(inspect.getsource(analysis))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "analyze")
    called = {
        node.func.id
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    return called & imported


class Tracer:
    """Context manager: while active, the layer wrappers are in place.

    ``counts`` and ``seconds`` hold the raw totals; ``metrics()`` turns
    them into the named per-layer metrics of ``LAYER_UNITS``.
    """

    def __init__(self):
        self.counts = {name: 0 for name, unit in LAYER_UNITS.items()
                       if unit in ("count", "entries")}
        self.seconds = {name: 0.0 for name, unit in LAYER_UNITS.items()
                        if unit == "s"}
        self._undo: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_attr(self, owner, name: str, make) -> None:
        self._set(owner, name, make(vars(owner)[name]))

    def _wrap_function(self, module, name: str, make) -> None:
        """Wrap a module-level function in every ncreflect module binding it."""
        original = vars(module)[name]
        wrapper = make(original)
        for mod in [m for key, m in sys.modules.items()
                    if key.split(".")[0] == "ncreflect" and m is not None]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _timer(self, seconds_key: str, calls_key: str | None = None):
        """Wrapper factory; wrappers made by one factory share a nesting
        level, so only the outermost of their calls is timed."""
        level = [0]
        seconds, counts, clock = self.seconds, self.counts, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                if calls_key is not None:
                    counts[calls_key] += 1
                if level[0]:
                    return fn(*args, **kwargs)
                level[0] = 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[seconds_key] += clock() - start
                    level[0] = 0
            return timed
        return make

    def _counter(self, calls_key: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    # -- the layers --------------------------------------------------------

    def _scalars(self, scalars) -> None:
        counts = self.counts

        def make_mul(fn):
            @functools.wraps(fn)
            def mul(a, b):
                counts["scalars.mul_calls"] += 1
                if a.n != 1 and getattr(b, "n", 1) != 1:
                    counts["scalars.mul_cyclotomic_calls"] += 1
                return fn(a, b)
            return mul

        cyc = scalars.Cyc
        self._wrap_attr(cyc, "__mul__", make_mul)
        self._wrap_attr(cyc, "__rmul__", make_mul)
        # __rsub__ delegates to __sub__ and __truediv__ to __mul__ and
        # inverse, so wrapping these counts every operation once.
        add = self._counter("scalars.add_calls")
        for name in ("__add__", "__radd__", "__sub__"):
            self._wrap_attr(cyc, name, add)
        self._wrap_attr(cyc, "inverse", self._counter("scalars.inverse_calls"))

    def _linalg(self, linalg) -> None:
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter

        def make_insert(fn):
            @functools.wraps(fn)
            def insert(ech, vec):
                counts["linalg.insert_calls"] += 1
                counts["linalg.insert_nnz"] += len(vec)
                start = clock()
                raised = fn(ech, vec)
                seconds["linalg.insert_s"] += clock() - start
                counts["linalg.rank_raises"] += raised
                return raised
            return insert

        self._wrap_attr(linalg.SparseEch, "insert", make_insert)
        self._wrap_attr(linalg.Subspace, "intersect",
                        self._timer("linalg.intersect_s", "linalg.intersect_calls"))
        self._wrap_attr(linalg.Matrix, "rref",
                        self._timer("linalg.dense_rref_s", "linalg.dense_rref_calls"))

    def _ncalg(self, ncalg) -> None:
        alg = ncalg.GradedAlgebra
        self._wrap_attr(alg, "build", self._timer("ncalg.build_s"))
        self._wrap_attr(alg, "mul", self._timer("ncalg.mul_s", "ncalg.mul_calls"))
        ideal = self._timer("ncalg.ideal_s")
        for name in ("left_ideal_slices", "right_ideal_slices",
                     "two_sided_ideal_slices"):
            self._wrap_function(ncalg, name, ideal)

    def _hopf(self, hopf) -> None:
        verify = self._timer("hopf.verify_s")
        self._wrap_attr(hopf.HopfAlgebra, "verify", verify)
        self._wrap_attr(hopf.HopfAction, "verify", verify)
        self._wrap_attr(hopf.HopfAction, "columns", self._timer("hopf.columns_s"))
        self._wrap_attr(hopf.HopfAction, "act", self._counter("hopf.act_calls"))

    def _smash(self, smash) -> None:
        self._wrap_attr(smash.SmashProduct, "mul", self._counter("smash.mul_calls"))
        self._wrap_function(smash, "pertinency_slices",
                            self._timer("smash.pertinency_s"))
        self._wrap_function(smash, "_trace_on_a", self._timer("smash.trace_on_a_s"))

    def _stages(self, analysis) -> None:
        # A stage the engine no longer has keeps its zero, and its time
        # falls into stage.other_s.
        for name in STAGES:
            if name in vars(analysis):
                self._wrap_attr(analysis, name, self._timer(f"stage.{name}_s"))

    def __enter__(self) -> "Tracer":
        from ncreflect import analysis, hopf, linalg, ncalg, scalars, smash
        try:
            self._scalars(scalars)
            self._linalg(linalg)
            self._ncalg(ncalg)
            self._hopf(hopf)
            self._smash(smash)
            self._stages(analysis)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Named per-layer values; ratios are derived here from the raw
        totals, and a ratio over zero calls is reported as 0."""
        out: dict[str, float] = {**self.counts, **self.seconds}
        inserts = self.counts["linalg.insert_calls"]
        out["linalg.insert_nnz"] = (
            self.counts["linalg.insert_nnz"] / inserts if inserts else 0.0)
        out["linalg.insert_yield"] = (
            self.counts["linalg.rank_raises"] / inserts if inserts else 0.0)
        return out
