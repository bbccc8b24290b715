"""Run a verification suite from the bundled scenario and print a summary.

Usage (from the repository root):

    PYTHONPATH=src python3 scripts/run_paper_suite.py [--suite paper-all] [--out report.json]

Exit status as for `istruct run`: 0 all claims came out as expected, 1 at least
one did not, 2 parse or resolution error.
"""

import argparse
import sys

from istruct.cli import bundled_scenario_path, load_scenario, run_suite, write_report
from istruct.errors import ScenarioError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="paper-all")
    parser.add_argument("--out", default=None,
                        help="optional path for the full JSON report")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    try:
        scenario = load_scenario(bundled_scenario_path())
        report = run_suite(scenario, args.suite, seed=args.seed)
        if args.out:
            write_report(report, args.out)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    width = max(len(c["id"]) for c in report["claims"])
    failures = 0
    for c in report["claims"]:
        ok = c["outcome"] == "verified"
        failures += not ok
        expect = "" if c["expected"] == "verified" else " (expected violation)"
        print(f"{'ok  ' if ok else 'FAIL'} {c['id']:<{width}} "
              f"{c['report']['status']}{expect}")
    print(f"\n{len(report['claims']) - failures}/{len(report['claims'])} "
          f"claims came out as expected (suite {report['suite']!r}, "
          f"seed {report['seed']})")

    if args.out:
        print(f"full report written to {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
