#!/usr/bin/env python3
"""Negative controls: the benchmark's checks must catch known faults.

    python3 perfbench/controls.py

Each control runs a short workload on a deployment with one of the
program's own vulnerability switches turned on and passes only when the
named check reports problems. A clean run of the same workload must
report none, so a check that flags everything fails the controls too.
Exits 0 when every control behaves as expected.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import execute  # noqa: E402

CONTROLS = (
    # (description, workload, deployment overrides, check that must fail)
    ("clean registry_refresh", "registry_refresh", {}, None),
    ("aggregator matches cases by local number", "registry_refresh",
     {"aggregator_vulnerability": True}, "registry"),
    ("clean portal_pages", "portal_pages", {}, None),
    ("records route without access check, label check off", "portal_pages",
     {"portal_vulnerability": "omitted_access_check", "check_labels": False}, "access"),
)

SECONDS = 3


def main() -> int:
    failures = 0
    for description, workload, overrides, must_fail in CONTROLS:
        run = execute(workload, seed=1, seconds=SECONDS, trace=False, deployment=overrides)
        caught = [p for p in run.problems if must_fail and p.startswith(f"{must_fail}: ")]
        if must_fail is None:
            ok = not run.problems
            verdict = "no problems" if ok else f"{len(run.problems)} problems"
        else:
            ok = bool(caught)
            verdict = f"{len(caught)} {must_fail} problems"
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {description}: {verdict}")
        for problem in (caught or run.problems)[:2]:
            print(f"     e.g. {problem[:160]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
