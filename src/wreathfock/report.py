"""Check reports shared by the verification suites and the CLI."""
from __future__ import annotations

import json


class CheckResult:
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: str | None = None):
        self.name, self.passed, self.witness = name, passed, witness

    def __repr__(self):
        return (f"CheckResult(name={self.name!r}, passed={self.passed!r}, "
                f"witness={self.witness!r})")

    def to_json_obj(self):
        obj = {"name": self.name, "status": "pass" if self.passed else "fail"}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


class Report:
    """Deterministic run report: serialized output is byte-stable across
    runs."""

    __slots__ = ("command", "checks")

    def __init__(self, command: str):
        self.command, self.checks = command, []

    def add(self, name: str, passed: bool, witness: str | None = None):
        self.checks.append(CheckResult(name, passed, witness))

    def check(self, name: str, cases, holds, witness=None):
        """Record one check over `cases`, each a tuple of arguments: PASS
        when `holds(*case)` is true for every case, else FAIL at the first
        case that fails, with `witness(*case)` (or None) as its witness.
        Stops at the first failure; `cases` may be a lazy generator."""
        for case in cases:
            if not holds(*case):
                self.add(name, False, witness(*case) if witness else None)
                return
        self.add(name, True)

    def extend(self, results):
        self.checks.extend(results)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json(self) -> str:
        return json.dumps({
            "schema": "wreathfock-report/1",
            "command": self.command,
            "all_passed": self.all_passed,
            "checks": [c.to_json_obj() for c in self.checks],
        }, indent=2, sort_keys=False)

    def to_table(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}"
            if c.witness:
                line += f"  ({c.witness})"
            lines.append(line)
        lines.append(f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)
