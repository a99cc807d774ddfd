"""Batch verification driver.

    jetcalc verify <suite> [--seed N] [--out PATH] [--format json|csv]
                   [--threshold KEY=VAL]...
    jetcalc verify recursions --scenario FILE... [--family F]...
                   [--max-order M] [...]
    jetcalc fit growth [--scenario NAME] [--family F] [--max-order M]
    jetcalc fit compare [--scenario NAME] [--seed N] [--max-order M]
    jetcalc report diff A.json B.json

`verify` rejects a flag that the run would not read: `--scenario` with any
suite but recursions, `--family` or `--max-order` without `--scenario`, and
a `--threshold` key that is neither a check tag of the selected suites nor
the first segment of one.  It rejects a repeated `--family` and two
`--scenario` files of one scenario name, either of which would write rows
twice, and a `--threshold` value that is not a finite number (`nan`,
`inf`).  `fit growth` rejects `--seed` and
`fit compare` rejects `--family`.  The report's `config` block echoes the
seed when a selected suite reads it (and lists it under `ignored` when none
does) and, with `--scenario` files, the max order, families and scenario
names; the suites state every other order and bound where they make their
rows.

Exit codes: 0 all checks pass, 1 at least one failed check or no check
run, 2 bad configuration or unparsable input, 3 an internal error (an
uncaught exception in any command, reported as one `internal error:` line
on stderr).  A `ValueError` or `OSError` raised while a suite runs exits 2
only with `--scenario` files, whose data the suite reads; in a built-in
suite it is an internal error.  `report diff` exits 0 when the two reports
have the same rows and pass flags, 1 when they do not, 2 when a report
cannot be read.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

from . import suites as suites_mod
from .recursions import BUNDLE_FAMILY_KINDS
from .reporting import (build_report, diff_reports, emit_report,
                        load_report_rows, report_csv, report_json)
from .scenarios import (BUILTIN_NAMES, builtin_scenario, load_scenario,
                        scenario_digest)

SUITES = {
    "tensor-laws": suites_mod.suite_tensor_laws,
    "taylor": suites_mod.suite_taylor,
    "geometry": suites_mod.suite_geometry,
    "jets": suites_mod.suite_jets,
    "submersion": suites_mod.suite_submersion,
    "recursions": suites_mod.suite_recursions,
    "connection-compare": suites_mod.suite_connection_compare,
    "seminorms": suites_mod.suite_seminorms,
    "continuity": suites_mod.suite_continuity,
}


#: the suites whose rows are drawn from `--seed`; taylor, geometry and jets
#: take literal seeds
SEEDED_SUITES = ("tensor-laws", "submersion", "recursions",
                 "connection-compare", "seminorms", "continuity")


@dataclass
class SuiteConfig:
    seed: int = 7
    max_order: int = 3
    families: tuple = ()
    scenarios: list = field(default_factory=list)

    def echo(self, names):
        """The fields that a run of the suites `names` reads, with their
        values: the seed if one of them reads it (else `ignored: ["seed"]`),
        and with scenario files also the order, families and scenario
        names."""
        if any(name in SEEDED_SUITES for name in names):
            out = {"seed": self.seed}
        else:
            out = {"ignored": ["seed"]}
        if self.scenarios:
            out.update(max_order=self.max_order, families=list(self.families),
                       scenarios=[s.name for s in self.scenarios])
        return out


def _parse_thresholds(pairs):
    out = {}
    for p in pairs or ():
        if "=" not in p:
            raise ValueError(f"bad threshold override {p!r}, expected KEY=VAL")
        key, val = p.split("=", 1)
        out[key] = float(val)
        if not math.isfinite(out[key]):
            raise ValueError(f"threshold override {p!r} is not a finite "
                             f"number")
    return out


def _apply_thresholds(rows, overrides):
    if not overrides:
        return rows
    from .suites import CheckRow
    out = []
    for r in rows:
        thr = overrides.get(r.tag, overrides.get(r.tag.split("/")[0],
                                                 r.threshold))
        out.append(CheckRow(check_id=r.check_id, tag=r.tag, inputs=r.inputs,
                            value=r.value, threshold=thr,
                            passed=r.value <= thr))
    return out


def run_suite(name, config):
    return SUITES[name](config)


def _check_flags(args, names, overrides):
    """Reject flags that the selected suites would not read."""
    if args.scenario and args.suite != "recursions":
        raise ValueError("--scenario is read only by the recursions suite")
    if not args.scenario:
        for flag, given in (("--family", args.family),
                            ("--max-order", args.max_order is not None)):
            if given:
                raise ValueError(f"{flag} is read only together with "
                                 f"--scenario")
    for kind in args.family or ():
        if kind not in BUNDLE_FAMILY_KINDS:
            raise ValueError(f"unknown family {kind!r}, expected one of "
                             f"{', '.join(BUNDLE_FAMILY_KINDS)}")
        if args.family.count(kind) > 1:
            raise ValueError(f"--family {kind!r} is given more than once")
    keys = {part for name in names
            for tag in suites_mod.CHECK_MANIFEST[name]
            for part in (tag, tag.split("/")[0])}
    for key in overrides:
        if key not in keys:
            raise ValueError(f"--threshold key {key!r} matches no check tag "
                             f"of {', '.join(names)}")


def cmd_verify(args):
    try:
        if args.suite != "all" and args.suite not in SUITES:
            raise ValueError(f"unknown suite {args.suite!r}")
        names = list(SUITES) if args.suite == "all" else [args.suite]
        overrides = _parse_thresholds(args.threshold)
        _check_flags(args, names, overrides)
        if args.max_order is not None and args.max_order < 0:
            raise ValueError(f"--max-order must be nonnegative, "
                             f"got {args.max_order}")
        if args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        config = SuiteConfig(
            seed=args.seed, families=tuple(args.family or ()),
            scenarios=[load_scenario(p) for p in (args.scenario or ())])
        scenario_names = [scn.name for scn in config.scenarios]
        for name in scenario_names:
            if scenario_names.count(name) > 1:
                raise ValueError(f"scenario name {name!r} is shared by more "
                                 f"than one --scenario file")
        if args.max_order is not None:
            config.max_order = args.max_order
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        packs = [run_suite(n, config) for n in names]
    except (ValueError, OSError) as exc:
        # only scenario files bring user data into a suite; a built-in
        # suite that raises has a defect, which main reports as exit 3
        if not config.scenarios:
            raise
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    rows = [r for pack in packs for r in pack]
    rows = _apply_thresholds(rows, overrides)
    digests = {s.name: scenario_digest(s) for s in config.scenarios}
    for name in (BUILTIN_NAMES if not config.scenarios else ()):
        digests[name] = scenario_digest(builtin_scenario(name))
    report = build_report(args.suite, rows, config.echo(names), digests)
    if args.out:
        emit_report(report, args.format, args.out)
    else:
        sys.stdout.write(report_json(report) if args.format == "json"
                         else report_csv(report))
    failing = report["summary"]["failing_ids"]
    print(f"{report['summary']['passed']}/{report['summary']['total']} "
          f"checks passed", file=sys.stderr)
    for cid in failing:
        print(f"FAILED {cid}", file=sys.stderr)
    if not rows:
        print("no checks ran", file=sys.stderr)
    return 1 if failing or not rows else 0


def cmd_fit(args):
    try:
        flag, given = (("--seed", args.seed) if args.kind == "growth"
                       else ("--family", args.family))
        if given is not None:
            raise ValueError(f"{flag} is not read by fit {args.kind}")
        if args.max_order < 0:
            raise ValueError(f"--max-order must be nonnegative, "
                             f"got {args.max_order}")
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        if args.family is not None and args.family not in BUNDLE_FAMILY_KINDS:
            raise ValueError(f"unknown family {args.family!r}, expected "
                             f"one of {', '.join(BUNDLE_FAMILY_KINDS)}")
        scn = (load_scenario(args.scenario) if args.scenario
               and os.path.exists(args.scenario)
               else builtin_scenario(args.scenario or "twisted-bundle"))
        # the geometries are built here, so that data they reject exits 2,
        # to the fitted order (order 0 still needs the Levi-Civita
        # connection, one derivative of the metric)
        cap = max(args.max_order, 1)
        if args.kind == "growth":
            ts = scn.total_at(cap=cap)
        else:
            pairs = {tuple(x): (scn.bundle_at(x, cap=cap),
                                scn.alt_bundle_at(x, cap=cap))
                     for x in scn.base_points}
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    import json as _json
    if args.kind == "growth":
        from .recursions import (build_coefficients, bundle_family,
                                 growth_profile)
        fam = bundle_family(args.family or "V", ts)
        tab = build_coefficients(fam, args.max_order, "forward")
        prof = growth_profile(tab, ts)
        prof["rows"] = [[int(m), int(s), int(c), repr(v)]
                        for (m, s, c, v) in prof["rows"]]
        sys.stdout.write(_json.dumps(prof, indent=2, sort_keys=True) + "\n")
        return 0
    from .scenarios import section_field
    from .seminorms import CompactSample, norm_compare
    K = CompactSample(scn.base_points, "K")
    exprs = scn.random_section(7 if args.seed is None else args.seed)

    def prov_a(x):
        bun = pairs[tuple(x)][0]
        return bun, section_field(bun, exprs)

    def prov_b(x):
        bun = pairs[tuple(x)][1]
        return bun, section_field(bun, exprs)

    rep = norm_compare(prov_a, prov_b, K, args.max_order)
    sys.stdout.write(_json.dumps(rep, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_report(args):
    try:
        a, b = load_report_rows(args.a), load_report_rows(args.b)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    diff = diff_reports(a, b)
    sys.stdout.write(report_json(diff))
    changed = diff["new_rows"] or diff["missing_rows"] or diff["flipped"]
    print(f"{diff['common']} common rows, {len(diff['new_rows'])} new, "
          f"{len(diff['missing_rows'])} missing, {len(diff['flipped'])} "
          f"flipped", file=sys.stderr)
    return 1 if changed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="numerical verification of chart-level jet calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", help=f"one of {', '.join(SUITES)} or 'all'")
    pv.add_argument("--scenario", action="append",
                    help="scenario JSON file (repeatable; recursions only)")
    pv.add_argument("--family", action="append",
                    help="restrict recursion families (repeatable; with "
                         "--scenario only)")
    pv.add_argument("--max-order", type=int, default=None,
                    help="recursion order on --scenario files (default 3)")
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--out", help="write the report here instead of stdout")
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.add_argument("--threshold", action="append",
                    help="override, e.g. recursions/P-expansion=1e-6; the "
                         "key is a tag of the suite or its first segment")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("fit", help="envelope fits")
    pf.add_argument("kind", choices=("growth", "compare"))
    pf.add_argument("--scenario", help="builtin name or JSON file")
    pf.add_argument("--family", help="lift family (growth only; default V)")
    pf.add_argument("--max-order", type=int, default=4)
    pf.add_argument("--seed", type=int,
                    help="section seed (compare only; default 7)")
    pf.set_defaults(func=cmd_fit)

    pr = sub.add_parser("report", help="compare two JSON reports")
    pr.add_argument("kind", choices=("diff",))
    pr.add_argument("a", help="the reference report")
    pr.add_argument("b", help="the report compared with it")
    pr.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:    # a crash must not read as a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
