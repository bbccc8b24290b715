"""Print one digest per benchmark workload and seed, for a byte-identity check.

Usage (from the repository root):

    PYTHONPATH=src python3 scripts/report_digest.py [--seeds 1 7 101 2026] [--per-claim]

For each workload of perfbench/scenarios.py and each seed, the workload's
suite runs in process with that seed passed explicitly (paper-all's scenario
is the bundled file, whose own seed the command line overrides), the report's
`timestamp` is dropped and the rest is serialized as `istruct run` writes it.
Each run prints `<workload> <seed> <sha256>`, or with --per-claim one line
`<workload> <seed> <claim id> <sha256>` per claim entry, serialized the same
way, so that a mismatch names its claim.  Run it in two checkouts and compare
the outputs with diff: equal lines mean reports byte-identical apart from the
timestamp.
"""

import argparse
import hashlib
import json
import pathlib
import sys

from istruct.cli import run_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import scenarios  # noqa: E402


def report(workload: str, seed: int) -> dict:
    """The workload's report at the seed, without its timestamp."""
    scenario = json.loads(scenarios.scenario_text(workload, seed, ROOT))
    out = run_suite(scenario, workload, seed=seed)
    del out["timestamp"]
    return out


def digest(obj) -> str:
    """sha256 of obj serialized as `istruct run` writes a report."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 101, 2026])
    parser.add_argument("--per-claim", action="store_true",
                        help="one digest per claim entry instead of per report")
    args = parser.parse_args()
    for workload in scenarios.WORKLOADS:
        for seed in args.seeds:
            out = report(workload, seed)
            if args.per_claim:
                for entry in out["claims"]:
                    print(workload, seed, entry["id"], digest(entry), flush=True)
            else:
                print(workload, seed, digest(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
