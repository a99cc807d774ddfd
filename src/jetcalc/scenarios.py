"""Concrete chart-level geometries for the verification suites.

A scenario bundles the analytic data (metric, fibre metric, connection
coefficients, optional comparison data and pull-back map) with sample
points and a seed.  Scenario files are JSON with the same field names as
the dataclass; expression entries use the prefix grammar of the series
module, e.g. ``(+ 1 (* 0.3 (* x1 x1)))``.

The fibre connections of the built-in nonflat scenarios are metric for
their fibre metrics (the derivative identities on the total space require
a metric pair), shaped as omega_i = d_i(psi) I + a_i J with J the standard
rotation generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .fields import FIB, BundleGeometry, ChartGeometry, FieldTensor
from .taylor import eval_expr, parse_expr
from .tensor_core import CONTRA
from .total_space import MapData, PullbackGeometry, TotalSpaceGeometry

__all__ = ["Scenario", "builtin_scenario", "load_scenario", "scenario_digest",
           "BUILTIN_NAMES", "random_poly_tree"]


@dataclass
class Scenario:
    name: str
    n: int
    k: int
    metric: list
    fibre_metric: list
    connection: list = None          # omega[a][i][b] exprs, None = flat
    base_points: list = field(default_factory=list)
    fibre_points: list = field(default_factory=list)
    seed: int = 0
    alt: dict = None                 # second (metric, connection) data
    map: dict = None                 # pull-back map block

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError("name must be a string")
        for key in ("n", "k", "seed"):
            if not _is_int(getattr(self, key)):
                raise ValueError(f"{key} must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if not self.base_points:
            raise ValueError("a scenario needs at least one base point")
        for label, points, dim in (("base", self.base_points, self.n),
                                   ("fibre", self.fibre_points, self.k)):
            if not isinstance(points, list) or \
                    not all(_is_point(p, dim) for p in points):
                raise ValueError(f"{label} point dimension mismatch: each "
                                 f"must be a list of {dim} finite numbers")
        n, k = self.n, self.k
        shapes = {"metric": (n, n), "fibre_metric": (k, k),
                  "connection": (k, n, k)}
        blocks = [(key, getattr(self, key), shape)
                  for key, shape in shapes.items()]
        for block in ("alt", "map"):
            if getattr(self, block) is not None and \
                    not isinstance(getattr(self, block), dict):
                raise ValueError(f"{block} must be an object")
        if self.alt:
            blocks += [(f"alt.{key}", self.alt.get(key), shape)
                       for key, shape in shapes.items()]
        for label, exprs, shape in blocks:
            if exprs is None and len(shape) == 3:
                continue                # a flat connection
            _check_exprs(label, exprs, shape, self.base_points)
        if self.map:
            tn = self.map.get("target_n")
            if not _is_int(tn) or tn < 1:
                raise ValueError("map.target_n must be a positive integer")
            exprs = self.map.get("exprs")
            _check_exprs("map.exprs", exprs, (tn,), self.base_points)
            if not all(isinstance(e, str) for e in exprs):
                raise ValueError("map.exprs entries must be expressions")
            images = [[eval_expr(e, p) for e in exprs]
                      for p in self.base_points]
            _check_exprs("map.target_metric", self.map.get("target_metric"),
                         (tn, tn), images)

    # --- geometry factories -------------------------------------------------

    def chart_at(self, point=None, *, cap):
        point = self.base_points[0] if point is None else point
        return ChartGeometry(point, cap, self.metric)

    def bundle_at(self, point=None, *, cap):
        return BundleGeometry(self.chart_at(point, cap=cap), self.k,
                              self.fibre_metric, self.connection)

    def alt_bundle_at(self, point=None, *, cap):
        if not self.alt:
            raise ValueError(f"scenario {self.name} has no comparison data")
        point = self.base_points[0] if point is None else point
        base = ChartGeometry(point, cap, self.alt["metric"])
        return BundleGeometry(base, self.k, self.alt["fibre_metric"],
                              self.alt.get("connection"))

    def total_at(self, point=None, u=None, *, cap):
        u = (self.fibre_points[0] if self.fibre_points else [0.0] * self.k) \
            if u is None else u
        return TotalSpaceGeometry(self.bundle_at(point, cap=cap), u)

    def map_at(self, point=None, *, cap):
        if not self.map:
            raise ValueError(f"scenario {self.name} has no map block")
        point = self.base_points[0] if point is None else point
        dom = ChartGeometry(point, cap, self.metric)
        target_point = [eval_expr(e, point) for e in self.map["exprs"]]
        tgt = ChartGeometry(target_point, cap, self.map["target_metric"])
        md = MapData(dom, tgt, self.map["exprs"])
        return md, PullbackGeometry(md)

    # --- random analytic data ------------------------------------------------

    def rng(self, salt=0):
        return np.random.Generator(np.random.PCG64([self.seed, salt]))

    def random_function(self, salt, nvars=None, degree=3):
        rng = self.rng(salt)
        return random_poly_tree(rng, nvars or self.n, degree)

    def random_section(self, salt, degree=3):
        rng = self.rng(salt)
        return [random_poly_tree(rng, self.n, degree) for _ in range(self.k)]

    def random_vector_field(self, salt, degree=3):
        rng = self.rng(salt)
        return [random_poly_tree(rng, self.n, degree) for _ in range(self.n)]

    def random_endo(self, salt, degree=3):
        rng = self.rng(salt)
        return [[random_poly_tree(rng, self.n, degree)
                 for _ in range(self.k)] for _ in range(self.k)]

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_point(p, dim):
    """`p` is a list of `dim` finite numbers (JSON may hold any integer)."""
    return isinstance(p, list) and len(p) == dim and all(
        (_is_int(v) or isinstance(v, float)) and -1e308 < v < 1e308
        for v in p)


def _check_exprs(label, exprs, shape, points):
    """Check that `exprs` is a nested list of `shape` whose entries are
    numbers or expressions in the coordinates of `points` that evaluate at
    every one of them; raise a ValueError naming `label` otherwise."""
    nvars = len(points[0])
    dims = "x".join(map(str, shape))

    def leaves(node, depth):
        if depth == len(shape):
            yield node
            return
        if not isinstance(node, (list, tuple)) or len(node) != shape[depth]:
            raise ValueError(f"{label} must be an array of shape {dims}")
        for child in node:
            yield from leaves(child, depth + 1)

    for entry in leaves(exprs, 0):
        if isinstance(entry, bool) or \
                not isinstance(entry, (int, float, str)):
            raise ValueError(f"{label}: entry {entry!r} is not a number or "
                             f"an expression")
        if not isinstance(entry, str):
            continue
        try:
            tree = parse_expr(entry)
        except ValueError as exc:
            raise ValueError(f"{label}: {entry!r}: {exc}") from None
        for var in _variables(tree):
            if not 0 <= var < nvars:
                raise ValueError(f"{label}: {entry!r} uses x{var + 1}, "
                                 f"outside x1..x{nvars}")
        for p in points:
            try:
                eval_expr(tree, p)
            except (ArithmeticError, ValueError) as exc:
                raise ValueError(f"{label}: {entry!r} does not evaluate at "
                                 f"{list(p)}: {exc}") from None


def _variables(tree):
    """The variable indices an expression tree uses."""
    if isinstance(tree, float):
        return set()
    if tree[0] == "x":
        return {tree[1]}
    return set().union(*(_variables(child) for child in tree[1:]))


def section_field(bundle, exprs, slots=None):
    """Expand component expressions into a field on the bundle's chart;
    `exprs` nests one list level per slot."""
    chart = bundle.chart
    slots = slots or [(FIB, CONTRA)]
    dims, level = [], exprs
    for _slot in slots:
        dims.append(len(level))
        level = level[0]
    out = FieldTensor.zeros(chart, slots, tuple(dims), chart.cap)
    for idx in np.ndindex(*dims):
        expr = exprs
        for i in idx:
            expr = expr[i]
        out.data[(slice(None),) + idx] = chart.expand(expr).coeffs
    return out


def function_field(geo, expr):
    return FieldTensor.from_scalar(geo.chart, geo.chart.expand(expr))


def random_poly_tree(rng, nvars, degree):
    """A random polynomial expression tree with factorially damped
    coefficients (analytic-looking samples with an O(1) radius)."""
    import itertools
    import math
    terms = [float(np.round(rng.uniform(-1, 1), 6))]
    for total in range(1, degree + 1):
        for comb in itertools.combinations_with_replacement(range(nvars), total):
            c = rng.uniform(-1, 1) / math.factorial(total)
            node = float(np.round(c, 8))
            for v in comb:
                node = ("*", node, ("x", v))
            terms.append(node)
    return ("+", *terms)


# --------------------------------------------------------------------------
# built-in scenarios
# --------------------------------------------------------------------------

def _compatible_omega(dpsi, a):
    """omega_i = d_i psi I_2 + a_i J, metric for h = exp(2 psi) I_2."""
    om = []
    for b_out in range(2):
        rows = []
        for i in range(len(dpsi)):
            if b_out == 0:
                rows.append([dpsi[i], f"(- 0 {a[i]})"])
            else:
                rows.append([a[i], dpsi[i]])
        om.append(rows)
    return om


def _flat():
    return Scenario(
        name="flat", n=2, k=2,
        metric=[["1", "0"], ["0", "1"]],
        fibre_metric=[["1", "0"], ["0", "1"]],
        connection=None,
        base_points=[[0.1, -0.2], [0.4, 0.3], [-0.3, 0.2]],
        fibre_points=[[0.6, 0.8], [1.0, 0.0], [-0.6, 0.8]],
        seed=7007)


def _flat_line():
    return Scenario(
        name="flat-line", n=1, k=1,
        metric=[["1"]], fibre_metric=[["1"]], connection=None,
        base_points=[[0.0]], fibre_points=[[1.0]],
        seed=101)


def _conformal():
    psi = "(* 0.15 x1)"
    dpsi = ["0.15", "0"]
    a = ["(* 0.3 x2)", "(* 0.2 x1)"]
    e2psi = f"(exp (* 2 {psi}))"
    return Scenario(
        name="conformal-base", n=2, k=2,
        metric=[["(exp (* 0.4 x2))", "0"], ["0", "(exp (* 0.4 x2))"]],
        fibre_metric=[[e2psi, "0"], ["0", e2psi]],
        connection=_compatible_omega(dpsi, a),
        base_points=[[0.1, -0.2], [0.35, 0.15], [-0.25, 0.3]],
        fibre_points=[[0.6, 0.8], [0.28, -0.96]],
        seed=4242)


def _sphere():
    a = ["(* 0.25 x2)", "(* 0.2 x1)"]
    return Scenario(
        name="sphere-chart", n=2, k=2,
        metric=[["1", "0"], ["0", "(* (sin x1) (sin x1))"]],
        fibre_metric=[["1", "0"], ["0", "1"]],
        connection=_compatible_omega(["0", "0"], a),
        base_points=[[0.8, 0.3], [1.1, -0.2], [0.7, 0.5]],
        fibre_points=[[0.6, 0.8], [-0.8, 0.6]],
        seed=99)


def _twisted():
    psi = "(* 0.1 x2)"
    dpsi = ["0", "0.1"]
    a = ["(* 0.4 x2)", "(* 0.3 x1)"]
    e2psi = f"(exp (* 2 {psi}))"
    alt_psi = "(* 0.12 x1)"
    alt_dpsi = ["0.12", "0"]
    alt_a = ["(* 0.2 x1)", "(* 0.35 x2)"]
    alt_e = f"(exp (* 2 {alt_psi}))"
    return Scenario(
        name="twisted-bundle", n=2, k=2,
        metric=[["(+ 1 (* 0.2 (* x1 x1)))", "(* 0.1 (* x1 x2))"],
                ["(* 0.1 (* x1 x2))", "(+ 1 (* 0.15 (* x2 x2)))"]],
        fibre_metric=[[e2psi, "0"], ["0", e2psi]],
        connection=_compatible_omega(dpsi, a),
        base_points=[[0.1, -0.2], [0.3, 0.25], [-0.2, 0.1]],
        fibre_points=[[0.6, 0.8], [1.0, 0.0]],
        seed=515,
        alt={"metric": [["(exp (* 0.3 x1))", "0"], ["0", "(exp (* 0.3 x1))"]],
             "fibre_metric": [[alt_e, "0"], ["0", alt_e]],
             "connection": _compatible_omega(alt_dpsi, alt_a)})


def _pullback():
    return Scenario(
        name="pullback-map", n=1, k=1,
        metric=[["1"]], fibre_metric=[["1"]], connection=None,
        base_points=[[0.5], [0.2], [-0.4]],
        fibre_points=[[1.0]],
        seed=333,
        map={"exprs": ["x1", "(* x1 x1)"],
             "target_n": 2,
             "target_metric": [["(+ 1 (* 0.1 (* x2 x2)))", "0"],
                               ["0", "(+ 1 (* 0.1 (* x1 x1)))"]]})


def _pullback_split():
    return Scenario(
        name="pullback-split", n=2, k=1,
        metric=[["1", "0"], ["0", "(+ 1 (* 0.2 (* x1 x1)))"]],
        fibre_metric=[["1"]], connection=None,
        base_points=[[0.3, -0.1], [0.1, 0.2]],
        fibre_points=[[1.0]],
        seed=777,
        map={"exprs": ["(+ x1 (* 0.3 (* x2 x2)))"],
             "target_n": 1,
             "target_metric": [["(+ 1 (* 0.1 (* x1 x1)))"]]})


_BUILTINS = {}
for _f in (_flat, _flat_line, _conformal, _sphere, _twisted, _pullback,
           _pullback_split):
    _s = _f()
    _BUILTINS[_s.name] = _f

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_scenario(name):
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin scenario {name!r}; "
                         f"choose from {BUILTIN_NAMES}") from None


def load_scenario(path):
    """The scenario in a JSON file; ValueError when it is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a scenario file holds one JSON object")
    try:
        return Scenario(**data)
    except TypeError as exc:      # missing, unknown or mistyped fields
        raise ValueError(f"{path}: {exc}") from None


def scenario_digest(scn):
    import hashlib
    return hashlib.sha256(scn.to_json().encode()).hexdigest()[:16]
