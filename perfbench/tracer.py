"""Spans and work counters recorded around the library's layer boundaries.

The library imports with `from .x import y`, so a call is intercepted by
replacing the name where the calling module binds it (for example
`whittaker.evaluate`, not `family.evaluate`), or on the class for methods.
Each intercepted call records a span (id, parent, name, start, end,
verdict); the layer's self time is its duration minus its direct
children.  The original names are restored when `installed` exits.
"""

import contextlib
import itertools
import time
from collections import defaultdict

MODULES = ("cli", "period", "whittaker", "family", "localfield", "laurent", "groebner", "scalars")


def _count_len(key):
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += len(result)

    return hook


def _count_evaluation(tracer, args, kwargs, result):
    tracer.counters["evaluations"] += 1
    if not result.is_zero:
        tracer.counters["nonzero_evaluations"] += 1


def _count_membership(tracer, args, kwargs, result):
    tracer.counters["memberships"] += 1
    if result is not None:
        tracer.counters["members"] += 1


def _count_retry(tracer, args, kwargs):
    if kwargs.get("extra"):
        tracer.counters["tail_retries"] += 1


def _count(key):
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += 1

    return hook


def boundaries(lib):
    """(owner, attribute, span name, on_call, on_result) for every layer boundary."""
    g = lib.groebner
    return [
        (lib.cli, "main", "cli.main", None, None),
        (lib.cli, "vector_from_json", "family.vector_from_json", None, None),
        (lib.cli, "verify_image", "period.verify_image", None, None),
        (lib.period, "verify_image", "period.verify_image", None, None),
        (lib.period, "toric_period", "period.toric_period", None, None),
        (lib.period, "zeta_window", "period.zeta_window", _count_retry, None),
        (lib.period, "whittaker_coefficient", "whittaker.whittaker_coefficient", None,
         _count("coefficient_calls")),
        (lib.whittaker, "big_cell_split", "family.big_cell_split", None, None),
        (lib.whittaker, "evaluate", "family.evaluate", None, _count_evaluation),
        (lib.whittaker, "coset_reps", "localfield.coset_reps", None, _count_len("cosets")),
        (lib.whittaker, "unit_reps", "localfield.unit_reps", None, _count_len("units")),
        (lib.family, "iwasawa_decompose", "localfield.iwasawa_decompose", None,
         _count("iwasawa_calls")),
        (lib.scalars.Cyclotomic, "from_poly", "scalars.Cyclotomic.from_poly", None,
         _count("cyclotomic_built")),
        (lib.laurent.ZPoly, "clear_l_factor", "laurent.ZPoly.clear_l_factor", None, None),
        (lib.laurent.LaurentPoly, "divide_exact", "laurent.LaurentPoly.divide_exact", None,
         _count("exact_divisions")),
        (g.MembershipSolver, "membership", "groebner.MembershipSolver.membership", None,
         _count_membership),
        (g.Certificate, "holds_for", "groebner.Certificate.holds_for", None, None),
    ]


class Tracer:
    """Accumulates spans and counters over the verdicts it is installed for."""

    def __init__(self, lib):
        self.spans = []
        self.counters = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.coefficient_self = 0.0
        self.fastpath = 0
        self.verdict = None
        self._stack = []
        self._ids = itertools.count()
        self._boundaries = boundaries(lib)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore it."""
        restore = []
        try:
            for owner, attr, name, on_call, on_result in self._boundaries:
                original = owner.__dict__[attr]
                is_classmethod = isinstance(original, classmethod)
                fn = original.__func__ if is_classmethod else original
                wrapper = self._wrap(fn, name, on_call, on_result)
                setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, on_call, on_result):
        tracer = self
        membership = name == "groebner.MembershipSolver.membership"

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            divisions = tracer.counters["exact_divisions"]
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if membership and result is not None and tracer.counters["exact_divisions"] > divisions:
                tracer.fastpath += 1
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def span(self, name):
        return _Span(self, name)

    def _close(self, entry, end):
        span_id, parent_id, name, start, children = entry
        duration = end - start
        self.spans.append((span_id, parent_id, name, start, end, self.verdict))
        self.inclusive[name] += duration
        module = name.split(".", 1)[0]
        self.self_time[module] += duration - sum(children.values())
        if name == "whittaker.whittaker_coefficient":
            self.coefficient_self += (
                duration - children.get("family", 0.0) - children.get("localfield", 0.0)
            )
        if self._stack:
            parent_children = self._stack[-1][4]
            parent_children[module] = parent_children.get(module, 0.0) + duration


class _Span:
    __slots__ = ("tracer", "entry")

    def __init__(self, tracer, name):
        self.tracer = tracer
        parent = tracer._stack[-1][0] if tracer._stack else None
        self.entry = (next(tracer._ids), parent, name, 0.0, {})

    def __enter__(self):
        span_id, parent, name, _, children = self.entry
        self.entry = (span_id, parent, name, time.perf_counter(), children)
        self.tracer._stack.append(self.entry)
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer._close(self.entry, end)
        return False
