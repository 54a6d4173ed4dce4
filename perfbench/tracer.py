"""In-memory spans and counters recorded around knotpoly's public functions.

The tracer wraps functions from outside the package: it replaces every
binding of a wrapped function in the loaded ``knotpoly`` modules (and the
class attributes of wrapped methods, aliases included) and puts the
originals back on exit.  Each call records a span with a name, a start,
an end and the index of its parent span; self time is a span's duration
minus the durations of its children.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager


def _nterms(poly) -> int:
    terms = getattr(poly, "_terms", None)
    if terms is not None:
        return len(terms)
    return sum(1 for _ in poly.items())


class Tracer:
    """Span recorder plus named counters and maxima."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------- recording -------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, before=None, after=None, on_error=None):
        """A function that calls fn inside a span called name.

        before(args) runs before the call, after(args, result) after a
        return and on_error(exc) after a raise; all three are optional.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            if before is not None:
                before(args)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------- installing -------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, name: str, original, **hooks) -> None:
        """Rebind every module-level name in knotpoly bound to original."""
        traced = self.wrap(name, original, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "knotpoly" or mod_name.startswith("knotpoly.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, traced)

    def patch_method(self, name: str, cls, attr: str, **hooks) -> None:
        """Wrap cls.attr and every alias of it in the class dictionary."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            traced = self.wrap(name, raw, **hooks)
        for alias, value in list(cls.__dict__.items()):
            if value is raw:
                self._set(cls, alias, traced)

    def patch_attr(self, name: str, owner, attr: str, **hooks) -> None:
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------- results -------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time in seconds and call count per span name."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_ns[name] = self_ns.get(name, 0) + (end[i] - start[i] - child[i])
            calls[name] = calls.get(name, 0) + 1
        return {k: v / 1e9 for k, v in self_ns.items()}, calls


@contextmanager
def traced_knotpoly(tracer: Tracer):
    """Install the benchmark's wrappers on the imported knotpoly package."""
    import click

    from knotpoly import apolygon, cli, laurent, repglue, satellite, torusknot

    t = tracer
    try:
        lp = laurent.LaurentPoly

        def mul_pairs(args):
            other = args[1]
            pairs = _nterms(args[0]) * (_nterms(other) if isinstance(other, lp) else 1)
            t.count("laurent.mul.term_pairs", pairs)

        t.patch_method("laurent.mul", lp, "__mul__", before=mul_pairs)
        t.patch_method(
            "laurent.exact_divide", lp, "exact_divide",
            after=lambda args, q: t.count("laurent.exact_divide.quotient_terms", _nterms(q)),
        )
        t.patch_method("laurent.symmetrize", lp, "symmetrize")
        t.patch_method(
            "laurent.str", lp, "__str__",
            after=lambda args, s: t.count("laurent.str.bytes", len(s)),
        )

        seen = t.distinct.setdefault("torusknot.alexander", set())
        t.patch_function(
            "torusknot.alexander", torusknot.alexander, before=lambda args: seen.add(args[0])
        )

        def mismatch(exc):
            if isinstance(exc, satellite.PredictionMismatch):
                t.count("satellite.prediction_mismatch.count")

        t.patch_function("satellite.winding_violation", satellite.winding_violation, on_error=mismatch)
        t.patch_function("satellite.lspace_admissible", satellite.lspace_admissible)

        t.patch_method("apolygon.parse", apolygon.BiPoly, "parse")
        t.patch_function("apolygon.newton_polygon", apolygon.newton_polygon)
        t.patch_function("apolygon.detect", apolygon.detect_torus_from_apoly)
        t.patch_function("apolygon.detect", apolygon.detect_with_degree)

        def residual(args, res):
            t.maxima["repglue.verify_extension.max_residual"] = max(
                t.maxima.get("repglue.verify_extension.max_residual", 0.0), *res.residuals
            )

        t.patch_function("repglue.sample_instance", repglue.sample_instance)
        t.patch_function("repglue.construct_extension", repglue.construct_extension)
        t.patch_function("repglue.verify_extension", repglue.verify_extension, after=residual)
        t.patch_method(
            "repglue.mat_pow", repglue.Mat2C, "__pow__",
            before=lambda args: t.count("repglue.mat_pow.exponent_bits", abs(args[1]).bit_length()),
        )

        t.patch_function("cli.output", cli._dumps, before=lambda args: t.count("cli.json_dumps.calls"))
        t.patch_attr("cli.output", click, "echo")
        for command in _leaf_commands(cli.main):
            t.patch_attr("cli.command", command, "callback")
        yield t
    finally:
        t.restore()


def _leaf_commands(group):
    for command in group.commands.values():
        if hasattr(command, "commands"):
            yield from _leaf_commands(command)
        else:
            yield command
