"""The three benchmark workloads.

Each workload builds its fixed inputs in `setup` (this is what `setup_s`
measures, together with importing jetcalc) and then hands out the steps of
one round from `steps()`.  A step is a program call (`run`, timed), the
number of operations it stands for (`ops`) and a check of its result
(`check`, untimed) that returns (attempted, failed, problems):

* `failed` counts operations the program itself reports as failed: a check
  row that did not pass, a residual above the program's threshold, a step
  that raised, or a table refused by the memory guard;
* `problems` lists disagreements with the independent computations in
  `oracles.py`; any problem makes the run's `correct` false.

Every round attempts the same operations, so `failed / attempted` does not
depend on the run length.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

#: suites of the check-matrix workload: the suites of `verify all` that
#: finish within seconds at seed 7 (README.md says why the others are out)
CHECK_SUITES = ("tensor-laws", "taylor", "geometry", "jets", "seminorms",
                "submersion")

#: growth-frontier tables on twisted-bundle: (family, order, memory need MB).
#: The need is the peak RSS measured for that table alone on the parent
#: commit, rounded up by a quarter.
GROWTH_TABLES = (("P", 5, 160), ("V", 4, 160), ("C", 4, 320), ("L", 4, 1850))

NONFLAT = ("conformal-base", "sphere-chart", "twisted-bundle")
PROFILE_ORDER = 8
COMPARE_ORDER = 6
LIFT_ORDER = 3
LIFT_FAMILIES = (("P", "horiz_function"), ("V", "vert_section"),
                 ("H", "horiz_vector_field"), ("Vstar", "vert_dual"),
                 ("L", "vert_endo"), ("D", "eval_dual"), ("C", "eval_endo"))

FD_RTOL = 1e-7           # Richardson differences against series jets
EXPANSION_TOL = 1e-8     # forward expansion against direct derivatives
DIAGONAL_TOL = 1e-12     # diagonal map acting on its argument
NORM_RTOL = 1e-9         # closed forms of Gram norms


@dataclass
class Step:
    name: str
    run: Callable
    check: Callable
    ops: int
    need_mb: int = 0


def meminfo():
    """/proc/meminfo as {field: kB}, empty where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            return {key: int(rest.split()[0])
                    for key, rest in (line.split(":", 1) for line in fh)}
    except (OSError, ValueError, IndexError):
        return {}


def mem_available_mb():
    """MemAvailable in MB, or None where it cannot be read."""
    kb = meminfo().get("MemAvailable")
    return None if kb is None else kb / 1024.0


def _seed_salt(seed, k):
    """Per-workload salts for Scenario.random_*; distinct seeds give
    distinct inputs, and each stream stays independent of the others."""
    return int(seed) * 1000 + k


def _endo_field(bun, exprs):
    from jetcalc.fields import FIB, FieldTensor
    from jetcalc.tensor_core import CONTRA, COV
    ch = bun.chart
    out = FieldTensor.zeros(ch, [(FIB, CONTRA), (FIB, COV)],
                            (bun.k, bun.k), ch.cap)
    for i, row in enumerate(exprs):
        for j, e in enumerate(row):
            out.data[:, i, j] = ch.expand(e).coeffs
    return out


def family_exprs(scn, kind, salt):
    """Seeded expressions of the test object a lift family acts on."""
    if kind == "P":
        return scn.random_function(salt)
    if kind == "H":
        return scn.random_vector_field(salt)
    if kind in ("L", "C"):
        return scn.random_endo(salt)
    if kind in ("V", "Vstar", "D"):
        return scn.random_section(salt)
    raise ValueError(kind)


def family_field(bun, kind, exprs):
    """The test object of a lift family as a field on the bundle's chart."""
    from jetcalc.fields import FIB, TAN
    from jetcalc.scenarios import function_field, section_field
    from jetcalc.tensor_core import CONTRA, COV
    if kind == "P":
        return function_field(bun, exprs)
    if kind == "V":
        return section_field(bun, exprs)
    if kind == "H":
        return section_field(bun, exprs, slots=[(TAN, CONTRA)])
    if kind in ("Vstar", "D"):
        return section_field(bun, exprs, slots=[(FIB, COV)])
    return _endo_field(bun, exprs)


# --------------------------------------------------------------------------
# check-matrix: the CLI, suite by suite, to a written report
# --------------------------------------------------------------------------

class CheckMatrix:
    """`jetcalc verify <suite> --seed S --out PATH`, run as the CLI runs it.

    One operation is one check row.  A round runs every suite of
    CHECK_SUITES once; the report bytes of a suite must repeat exactly in
    every round of the run.  `digests` holds the sha256 of each suite's
    report, so that runs in other processes can be compared as well.
    """

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.first_bytes = {}
        self.digests = {}

    def setup(self):
        from jetcalc import cli, suites
        self.cli = cli
        self.manifest = suites.CHECK_MANIFEST

    def steps(self):
        for suite in CHECK_SUITES:
            path = os.path.join(self.out_dir, f"check-matrix-{suite}.json")
            yield Step(f"verify {suite}", self._runner(suite, path),
                       self._checker(suite, path), ops=1)

    def _runner(self, suite, path):
        argv = ["verify", suite, "--seed", str(self.seed), "--out", path]

        def run():
            with contextlib.redirect_stderr(io.StringIO()):
                return self.cli.main(argv)
        return run

    def _checker(self, suite, path):
        def check(code):
            with open(path, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
            rows = report["rows"]
            failing = [r["check_id"] for r in rows if not r["passed"]]
            problems = []
            if code != (1 if failing else 0):
                problems.append(f"{suite}: exit code {code} with "
                                f"{len(failing)} failing rows")
            if report["summary"]["total"] != len(rows) or not rows:
                problems.append(f"{suite}: summary total disagrees with rows")
            missing = set(self.manifest[suite]) - {r["tag"] for r in rows}
            if missing:
                problems.append(f"{suite}: manifest tags missing "
                                f"{sorted(missing)}")
            first = self.first_bytes.setdefault(suite, raw)
            self.digests.setdefault(suite, hashlib.sha256(raw).hexdigest())
            if raw != first:
                problems.append(f"{suite}: report bytes differ between "
                                f"rounds of one seed")
            return len(rows), len(failing), problems
        return check


# --------------------------------------------------------------------------
# growth-frontier: dense forward tables with every order verified
# --------------------------------------------------------------------------

class GrowthFrontier:
    """Forward coefficient tables on twisted-bundle with growth profiles.

    Per table the operations are: the build, the program's expansion check
    at every order 0..M, and the growth profile.  The benchmark then checks
    the table itself at the base point (see `_check_table`).
    """

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        from jetcalc.recursions import bundle_family
        from jetcalc.scenarios import builtin_scenario
        self.scn = builtin_scenario("twisted-bundle")
        self.ts = {}
        for _kind, order, _need in GROWTH_TABLES:
            cap = order + 2
            if cap not in self.ts:
                ts = self.scn.total_at(cap=cap)
                ts.b_tensor()
                self.ts[cap] = ts
        self.inputs = {}
        for k, (kind, order, _need) in enumerate(GROWTH_TABLES):
            ts = self.ts[order + 2]
            exprs = family_exprs(self.scn, kind, _seed_salt(self.seed, k))
            obj = family_field(ts.bundle, kind, exprs)
            self.inputs[kind] = (ts, bundle_family(kind, ts), obj)
        self.gram_e = oracles.total_space_metric(
            self.scn, self.scn.base_points[0], self.scn.fibre_points[0])

    def steps(self):
        for kind, order, need in GROWTH_TABLES:
            yield Step(f"{kind} forward to {order}", self._runner(kind, order),
                       self._checker(kind, order), ops=order + 3,
                       need_mb=need)

    def _runner(self, kind, order):
        def run():
            # looked up at call time, so that a traced call gets the
            # wrapped functions
            from jetcalc.recursions import (build_coefficients,
                                            growth_profile, verify_expansion)
            ts, fam, obj = self.inputs[kind]
            tab = build_coefficients(fam, order, "forward")
            residuals = [verify_expansion(fam, tab, obj, m)
                         for m in range(order + 1)]
            prof = growth_profile(tab, ts, slack=2.0)
            return tab, residuals, prof
        return run

    def _checker(self, kind, order):
        def check(result):
            tab, residuals, prof = result
            failed = sum(1 for r in residuals if not r <= EXPANSION_TOL)
            failed += int(not prof["coverage"] >= 1.0)
            problems = self._check_table(kind, order, tab, prof)
            return order + 3, failed, problems
        return check

    def _check_table(self, kind, order, tab, prof):
        ts, fam, obj = self.inputs[kind]
        dim = ts.dims["tan"]
        n_aux = fam.n_aux_out()
        grams_for = lambda T: oracles.slot_grams(T.slots, self.gram_e)
        problems = []
        # expansion at every order against direct derivatives of the lift
        direct = fam.stream_total(0, obj, 0)
        for m in range(order + 1):
            if m:
                direct = ts.cov(direct)
            terms = []
            for c in range(len(fam.aux)):
                for s in range(m + 1):
                    A = tab.get(m, c, s)
                    if A is not None:
                        terms.append((A.data[0],
                                      fam.stream_lifted(c, obj, s).data[0],
                                      n_aux + m))
            res = oracles.expansion_residual(direct.data[0], terms,
                                             grams_for(direct))
            if not res <= EXPANSION_TOL:
                problems.append(f"{kind}: expansion residual {res:.3e} "
                                f"at order {m}")
        # the diagonal acts as the identity and has the closed-form norm
        diag = tab.get(order, 0, order)
        arg = fam.stream_lifted(0, obj, order)
        back = oracles.apply_value(diag.data[0], arg.data[0], n_aux + order)
        grams = grams_for(arg)
        gap = oracles.gram_norm(back - arg.data[0], grams) \
            / max(oracles.gram_norm(arg.data[0], grams), 1e-300)
        if not gap <= DIAGONAL_TOL:
            problems.append(f"{kind}: diagonal moves its argument by "
                            f"{gap:.3e}")
        want = oracles.diagonal_norm_closed_form(dim, order, n_aux)
        got = oracles.gram_norm(diag.data[0], grams_for(diag))
        if not abs(got - want) <= NORM_RTOL * want:
            problems.append(f"{kind}: diagonal norm {got!r}, closed form "
                            f"{want!r}")
        # growth envelope: recomputed entry norms under the fitted bound
        covered = total = 0
        for (m, s, c, val) in prof["rows"]:
            A = tab.get(m, c, s)
            own = oracles.gram_norm(A.data[0], grams_for(A))
            if not abs(own - val) <= NORM_RTOL * max(val, 1e-300) + 1e-15:
                problems.append(f"{kind}: entry ({m},{c},{s}) norm {val!r}, "
                                f"recomputed {own!r}")
            if val <= 1e-13:
                continue
            total += 1
            covered += int(own <= oracles.growth_bound(
                prof["C"], prof["sigma"], prof["rho"], prof["slack"], m, s)
                * (1 + 1e-12))
        if prof["degenerate"] or covered != total:
            problems.append(f"{kind}: growth envelope covers {covered} of "
                            f"{total} entries")
        return problems


# --------------------------------------------------------------------------
# jet-samples: many small geometries, jet norms through providers
# --------------------------------------------------------------------------

class JetSamples:
    """Seeded random sections on the three nonflat scenarios.

    Operations: one per sample point of each order-8 profile, one for the
    norm comparison, and one per (base point, fibre point, lift family) for
    the up and down jet norms to order 3.
    """

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        from jetcalc.scenarios import builtin_scenario
        from jetcalc.seminorms import CompactSample
        self.scn = {name: builtin_scenario(name) for name in NONFLAT}
        self.sections = {name: scn.random_section(_seed_salt(self.seed, k))
                         for k, (name, scn) in enumerate(self.scn.items())}
        self.samples = {name: CompactSample(scn.base_points, "K")
                        for name, scn in self.scn.items()}
        tw = self.scn["twisted-bundle"]
        self.lift_exprs = {
            kind: family_exprs(tw, kind, _seed_salt(self.seed, 10 + k))
            for k, (kind, _lift) in enumerate(LIFT_FAMILIES)}
        self.lift_points = [(x, u) for x in tw.base_points
                            for u in tw.fibre_points]

    def steps(self):
        for name in NONFLAT:
            yield Step(f"profile {name}", self._profile(name),
                       self._check_profile(name),
                       ops=len(self.scn[name].base_points))
        yield Step("norm_compare twisted-bundle", self._compare,
                   self._check_compare, ops=1)
        for x, u in self.lift_points:
            yield Step(f"lift norms at {x} {u}", self._lifts(x, u),
                       self._check_lifts(x, u), ops=len(LIFT_FAMILIES))

    # profiles ----------------------------------------------------------------

    def _provider(self, name, alt=False, cap=PROFILE_ORDER + 2):
        from jetcalc.scenarios import section_field
        scn, exprs = self.scn[name], self.sections[name]

        def provider(x):
            bun = (scn.alt_bundle_at(x, cap=cap) if alt
                   else scn.bundle_at(x, cap=cap))
            return bun, section_field(bun, exprs)
        return provider

    def _profile(self, name):
        from jetcalc.seminorms import jet_norm_profile

        def run():
            return jet_norm_profile(self._provider(name), self.samples[name],
                                    PROFILE_ORDER)
        return run

    def _check_profile(self, name):
        scn, exprs = self.scn[name], self.sections[name]

        def check(prof):
            problems = []
            for x, row in zip(scn.base_points, prof):
                if not np.all(np.diff(row) >= 0.0):
                    problems.append(f"{name} {x}: profile decreases")
                n0, n1 = oracles.section_jet01(scn, exprs, x)
                for m, want in ((0, n0), (1, math.hypot(n0, n1))):
                    gap = oracles.rel_gap(row[m], want)
                    if not gap <= FD_RTOL:
                        problems.append(f"{name} {x}: order-{m} norm "
                                        f"{row[m]!r} vs differences "
                                        f"{want!r} ({gap:.2e})")
            return len(prof), 0, problems
        return check

    def _compare(self):
        from jetcalc.seminorms import norm_compare
        name = "twisted-bundle"
        cap = COMPARE_ORDER + 2
        return norm_compare(self._provider(name, cap=cap),
                            self._provider(name, alt=True, cap=cap),
                            self.samples[name], COMPARE_ORDER)

    def _check_compare(self, rep):
        problems = [f"norm_compare {side} coverage {rep[side]['coverage']!r}"
                    for side in ("forward", "backward")
                    if rep[side]["coverage"] != 1.0]
        return 1, 0, problems

    # lifts -------------------------------------------------------------------

    def _lifts(self, x, u):
        from jetcalc.jets import decompose_jet, jet_norm
        from jetcalc.total_space import lift
        tw = self.scn["twisted-bundle"]

        def run():
            ts = tw.total_at(x, u, cap=LIFT_ORDER + 2)
            bun = ts.bundle
            out = {}
            for kind, lift_kind in LIFT_FAMILIES:
                obj = family_field(bun, kind, self.lift_exprs[kind])
                down = decompose_jet(obj, bun, LIFT_ORDER)
                arg = obj.entry(()) if kind == "P" else obj
                up = decompose_jet(lift(arg, lift_kind, ts), ts, LIFT_ORDER)
                out[kind] = (jet_norm(down), jet_norm(up),
                             down.components[0].norm(),
                             up.components[0].norm())
            return out
        return run

    def _check_lifts(self, x, u):
        tw = self.scn["twisted-bundle"]

        def check(out):
            problems = []
            for kind, _lift in LIFT_FAMILIES:
                exprs = self.lift_exprs[kind]
                full_down, full_up, down0, up0 = out[kind]
                want_down, want_up = oracles.lift_order0(tw, kind, exprs, x, u)
                for label, got, want in (("down", down0, want_down),
                                         ("up", up0, want_up)):
                    if not oracles.rel_gap(got, want) <= NORM_RTOL:
                        problems.append(f"{kind} at {x},{u}: order-0 {label} "
                                        f"norm {got!r}, closed form {want!r}")
                if not (full_down >= down0 * (1 - 1e-15)
                        and full_up >= up0 * (1 - 1e-15)):
                    problems.append(f"{kind} at {x},{u}: jet norm below its "
                                    f"order-0 part")
            return len(LIFT_FAMILIES), 0, problems
        return check


WORKLOADS = {"check-matrix": CheckMatrix, "growth-frontier": GrowthFrontier,
             "jet-samples": JetSamples}
