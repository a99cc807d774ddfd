"""Machine-readable reports with byte-stable serialization.

Rows are sorted by check id and floats go through repr (shortest
round-trip), so identical (config, seed, version) runs emit identical
bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math

from . import __version__

CSV_FIELDS = ("check_id", "tag", "inputs", "value", "threshold", "passed")


def build_report(suite, rows, config_echo, scenario_digests):
    rows = sorted(rows, key=lambda r: r.check_id)
    failing = [r.check_id for r in rows if not r.passed]
    return {
        "tool": {"name": "jetcalc", "version": __version__},
        "suite": suite,
        "config": config_echo,
        "scenarios": scenario_digests,
        "rows": [
            {
                "check_id": r.check_id,
                "tag": r.tag,
                "inputs": r.inputs,
                "value": repr(float(r.value)),
                "threshold": repr(float(r.threshold)),
                "passed": bool(r.passed),
            }
            for r in rows
        ],
        "summary": {
            "total": len(rows),
            "passed": len(rows) - len(failing),
            "failed": len(failing),
            "failing_ids": failing,
        },
    }


def report_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_csv(report):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in report["rows"]:
        writer.writerow({k: row[k] for k in CSV_FIELDS})
    return buf.getvalue()


def emit_report(report, fmt, path):
    text = report_json(report) if fmt == "json" else report_csv(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def load_report_rows(path):
    """{row id: (tag, value, passed)} of a JSON report file.

    A row id is the check id, followed by the row's inputs in parentheses
    when it has any: one check id can cover several inputs.  Raises OSError
    when the file cannot be read and ValueError when it is not a jetcalc
    JSON report: a row whose check id, tag, inputs or value is not a
    string, whose value does not read as a number, or whose pass flag is
    not a boolean, names the file and the row.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON report: {exc}") from None
    rows = {}
    try:
        for r in report["rows"]:
            rid = (f"{r['check_id']} ({r['inputs']})" if r["inputs"]
                   else r["check_id"])
            if rid in rows:
                raise ValueError(f"{path}: row {rid!r} appears twice")
            wrong = [key for key in ("check_id", "tag", "inputs", "value")
                     if not isinstance(r[key], str)]
            if not isinstance(r["passed"], bool):
                wrong.append("passed")
            if wrong:
                raise ValueError(f"{path}: row {rid!r}: {', '.join(wrong)} "
                                 f"of the wrong type")
            try:
                value = float(r["value"])
            except ValueError:
                raise ValueError(f"{path}: row {rid!r}: value "
                                 f"{r['value']!r} is not a number") from None
            rows[rid] = (r["tag"], value, r["passed"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a jetcalc report") from exc
    return rows


def diff_reports(a, b):
    """Compare the rows of two reports (as `load_report_rows` gives them).

    Lists rows new in b and missing from b, rows whose pass flag
    flipped, and per tag family (the tag up to its first '/') the largest
    drift |value_b - value_a| / max(1, |value_a|) over the common rows.
    """
    common = sorted(a.keys() & b.keys())
    drift = {}
    for rid in common:
        (tag, va, _), vb = a[rid], b[rid][1]
        same = va == vb or (math.isnan(va) and math.isnan(vb))
        d = 0.0 if same else abs(vb - va) / max(1.0, abs(va))
        d = math.inf if math.isnan(d) else d
        family = tag.split("/")[0]
        if family not in drift or d > drift[family][0]:
            drift[family] = (d, rid)
    return {
        "common": len(common),
        "new_rows": sorted(b.keys() - a.keys()),
        "missing_rows": sorted(a.keys() - b.keys()),
        "flipped": [{"row": rid, "a": a[rid][2], "b": b[rid][2]}
                    for rid in common if a[rid][2] != b[rid][2]],
        "max_drift": {family: {"drift": repr(d), "row": rid}
                      for family, (d, rid) in sorted(drift.items())},
    }
