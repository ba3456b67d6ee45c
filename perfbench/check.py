"""Checking op reports against the frozen references.

A reference is the JSON report the op printed at the commit that froze
it.  An op passes when every field of its reference is present in the
new report with an equal value; fields the reference lacks are allowed,
so additive report fields do not count as failures.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_references(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def differences(expected, actual, where: str = "report") -> list[str]:
    """Places where ``actual`` does not carry ``expected``'s value."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(differences(value, actual[key], f"{where}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(differences(e, a, f"{where}[{i}]"))
        return out
    # bool is an int subclass: compare types so True never equals 1
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    return []


def check_report(op_key: str, text: str, references: dict) -> list[str]:
    """Problems with one op's printed report; empty when it passes."""
    if op_key not in references:
        return [f"no reference for {op_key!r}"]
    try:
        report = json.loads(text)
    except ValueError as e:
        return [f"output is not JSON: {e}"]
    problems = differences(references[op_key], report)
    delta = report.get("delta") if isinstance(report, dict) else None
    if op_key.startswith("collide ") and not (isinstance(delta, dict) and delta.get("agreement") is True):
        problems.append("delta routes disagree (agreement is not true)")
    return problems
