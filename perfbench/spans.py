"""Outside-in tracing of the anharm2d modules.

The benchmark does not edit the program. ``instrument`` wraps every public
module-level function of the package and installs the wrapper under every
name that refers to the function, in every package module. That covers a
call made through an import (``resonance.eig_complex``, ``cli.build_hamiltonian``)
as well as a call inside the defining module (``rpm.hankel_det`` from
``rpm._det_at``). Classes and private helpers are not wrapped, so their time
counts as self time of the wrapped caller.

Each call records a span: name, start, end, parent and a few attributes that
``PROBES`` reads from the arguments or the result. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


def _dim_of_arg(index):
    return lambda args, kwargs, result: {"dim": args[index].dim}


def _theta_scan(args, kwargs, result):
    return {"thetas": len(result.thetas), "ambiguous": int(result.ambiguous.sum())}


def _rpm_result(args, kwargs, result):
    v = args[0]
    s = args[1] if len(args) > 1 else kwargs["s"]
    return {
        "g": str(v[2]),
        "s": s,
        "e_value": result.e_value,
        "certified": result.stabilized_digits,
        "roots": len(result.trail),
    }


# Attributes recorded per span name: f(args, kwargs, result) -> dict.
PROBES = {
    "eig.eig_complex": _dim_of_arg(0),
    "eig.eig_selfadjoint": _dim_of_arg(0),
    "oscbasis.build_hamiltonian": _dim_of_arg(1),
    "resonance.theta_trajectory": _theta_scan,
    "rpm.rpm_eigenvalue": _rpm_result,
}


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), parent=stack[-1] if stack else None))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = clock()
            if probe is not None:
                spans[idx].attrs = probe(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def by_name(self) -> tuple[dict, dict, Counter]:
        """Total time, self time and call count per span name."""
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for span, self_s in zip(self.spans, self.self_times()):
            total[span.name] += span.end - span.start
            own[span.name] += self_s
            calls[span.name] += 1
        return total, own, calls


def package_modules(package: str = "anharm2d") -> list:
    pkg = importlib.import_module(package)
    names = sorted(m.name for m in pkgutil.iter_modules(pkg.__path__))
    return [pkg] + [importlib.import_module(f"{package}.{name}") for name in names]


@contextmanager
def instrument(tracer: Tracer, package: str = "anharm2d"):
    """Route every lookup of a public package function through `tracer`."""
    modules = package_modules(package)
    wrappers = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)
    patched = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
                patched.append((mod, name, obj))
    try:
        yield tracer
    finally:
        for mod, name, obj in patched:
            setattr(mod, name, obj)
