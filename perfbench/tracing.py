"""Traced mode: spans around the calls into each layer's public functions.

``Tracer.install`` rebinds each public function listed in ``TARGETS`` in
every ``darboux`` module that holds it by name (``catalog.dl_eval``,
``series.jacobi_sn_cn_dn``, ``verify.jacobi_sn_cn_dn``, ...), patches the
two listed methods on their classes, and wraps the solution callables that
``catalog.instantiate`` returns.  Nothing is installed unless traced mode
asks for it, and ``uninstall`` puts every original back.

A span is (name, start, end, parent span, op id); spans stay in memory
until ``write``.  A layer's self time is its span minus its child spans.
No layer has a queue or a second thread, so there is no wait time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field, replace


def _size(x) -> int:
    """Array length when an array (or list) of points is passed, else 1."""
    if isinstance(x, (str, bytes)) or not hasattr(x, "__len__"):
        return 1
    return len(x)


def _arg(index: int, name: str):
    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(name)
    return get


@dataclass
class Stat:
    calls: int = 0
    points: int = 0
    self_s: float = 0.0
    roots: int = 0
    minimal: int = 0
    yielded: int = 0
    requested: int = 0
    moduli: set = field(default_factory=set)


# -- hooks: extra counts taken from a call's arguments and result -----------


def _distinct_k(tracer, st, args, kwargs, result):
    st.moduli.add(complex(_arg(1, "k")(args, kwargs)))   # args[0] is the class
    return result


def _minimal(tracer, st, args, kwargs, result):
    st.minimal += result.mode == "minimal"
    return result


def _roots(tracer, st, args, kwargs, result):
    st.roots += len(result)
    return result


def _yield(tracer, st, args, kwargs, result):
    count = _arg(2, "count")(args, kwargs)
    st.requested += 5 if count is None else count      # sample_points' default
    st.yielded += len(result)
    return result


def _wrap_solution(tracer, st, args, kwargs, result):
    fn, desc = result
    return tracer.wrap("catalog.solution", fn, _arg(0, "u")), desc


#: (layer name, module, public attribute, point argument, hook)
TARGETS = (
    ("elliptic.sn_cn_dn", "elliptic", "jacobi_sn_cn_dn", _arg(0, "u"), None),
    ("elliptic.modulus_data", "elliptic", "ModulusData.from_modulus", None, _distinct_k),
    ("elliptic.jacobi", "elliptic", "jacobi", _arg(1, "u"), None),
    ("symmetry.glyph_value", "symmetry", "GlyphEntry.value", _arg(1, "u"), None),
    ("symmetry.sigma_and_h", "symmetry", "sigma_and_h", None, None),
    ("series.dl_eval", "series", "dl_eval", _arg(1, "u"), None),
    ("series.darboux_potential", "series", "darboux_potential", _arg(0, "u"), None),
    ("series.dl_coefficients", "series", "dl_coefficients", None, _minimal),
    ("series.infinite_cf", "series", "infinite_cf", _arg(0, "h"), None),
    ("series.function_eigenvalues", "series", "darboux_function_eigenvalues", None, _roots),
    ("series.polynomial_eigenvalues", "series", "polynomial_eigenvalues", None, None),
    ("catalog.instantiate", "catalog", "instantiate", None, _wrap_solution),
    ("catalog.sample_points", "catalog", "sample_points", None, _yield),
    ("weierstrass.evalues_from_modulus", "weierstrass", "evalues_from_modulus", None, None),
    ("weierstrass.wp", "weierstrass", "wp", _arg(0, "z"), None),
    ("reductions.landen_pair", "reductions", "landen_pair", _arg(4, "u"), None),
    ("reductions.duplication_pair", "reductions", "duplication_pair", _arg(3, "u"), None),
    ("verify.ode_residual", "verify", "ode_residual", _arg(2, "grid"), None),
    ("verify.identity_harness", "verify", "identity_harness", None, None),
    ("verify.lvariant_adjudicator", "verify", "lvariant_adjudicator", None, None),
    ("cli.main", "cli", "main", None, None),
)

#: Published stats per layer (the per_layer metrics of BENCHMARK.json).
PUBLISHED = {
    "elliptic.sn_cn_dn": ("calls", "points", "self_s", "us_per_point"),
    "elliptic.modulus_data": ("calls", "distinct_k", "self_s"),
    "elliptic.jacobi": ("calls", "self_s", "us_per_call"),
    "symmetry.glyph_value": ("calls", "self_s", "us_per_call"),
    "symmetry.sigma_and_h": ("calls", "self_s", "us_per_call"),
    "series.dl_eval": ("calls", "points", "self_s", "us_per_point"),
    "series.darboux_potential": ("calls", "self_s", "us_per_call"),
    "series.dl_coefficients": ("calls", "self_s", "minimal_frac"),
    "series.infinite_cf": ("calls", "self_s", "us_per_call"),
    "series.function_eigenvalues": ("calls", "roots", "self_s"),
    "series.polynomial_eigenvalues": ("calls", "self_s", "us_per_call"),
    "catalog.instantiate": ("calls", "self_s", "us_per_call"),
    "catalog.sample_points": ("self_s", "yield"),
    "catalog.solution": ("calls",),
    "weierstrass.evalues_from_modulus": ("calls", "self_s"),
    "weierstrass.wp": ("calls", "self_s", "us_per_call"),
    "reductions.landen_pair": ("calls", "self_s", "us_per_call"),
    "reductions.duplication_pair": ("calls", "self_s", "us_per_call"),
    "verify.ode_residual": ("calls", "points", "self_s", "us_per_point"),
    "verify.identity_harness": ("calls", "self_s"),
    "verify.lvariant_adjudicator": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}

UNITS = {"calls": "count", "points": "count", "roots": "count", "distinct_k": "count",
         "self_s": "s", "us_per_call": "us", "us_per_point": "us",
         "minimal_frac": "ratio", "yield": "ratio"}

#: Counts that must repeat exactly between traced runs of one seed.
COUNTS = ("calls", "points", "roots", "distinct_k")


def _value(st: Stat, stat: str) -> float:
    if stat == "us_per_call":
        return st.self_s / st.calls * 1e6 if st.calls else 0.0
    if stat == "us_per_point":
        return st.self_s / st.points * 1e6 if st.points else 0.0
    if stat == "distinct_k":
        return len(st.moduli)
    if stat == "minimal_frac":
        return st.minimal / st.calls if st.calls else 0.0
    if stat == "yield":
        return st.yielded / st.requested if st.requested else 0.0
    return getattr(st, stat)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[str, Stat] = {}
        self.op_id = None
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, points_of=None, hook=None):
        st = self.stats.setdefault(name, Stat())
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            st.points += _size(points_of(args, kwargs)) if points_of else 1
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op_id])
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st.self_s += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
                spans[index][1:3] = start, end
            return hook(self, st, args, kwargs, result) if hook else result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "darboux" or n.startswith("darboux.")]
        for name, module, attr, points_of, hook in TARGETS:
            owner = importlib.import_module(f"darboux.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, points_of, hook))
                else:
                    new = self.wrap(name, raw, points_of, hook)
                setattr(cls, method, new)
                self._restore.append((cls, method, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, points_of, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self, stats: dict[str, Stat] | None = None) -> dict[str, dict]:
        stats = self.stats if stats is None else stats
        out = {}
        for layer, published in PUBLISHED.items():
            st = stats.get(layer, Stat())
            for stat in published:
                out[f"{layer}.{stat}"] = {"value": _value(st, stat), "unit": UNITS[stat]}
        return out

    def snapshot(self) -> dict[str, Stat]:
        return {name: replace(st, moduli=set(st.moduli)) for name, st in self.stats.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
