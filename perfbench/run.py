"""istruct benchmark: one seeded workload, end to end or traced per layer.

    python3 perfbench/run.py --workload paper-all --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout (it runs ``src/istruct`` from
there).  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer ones.  It prints every metric as ``name = value
unit``, then the environment, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import scenarios  # noqa: E402
from refclock import RefClock  # noqa: E402

SETUP_SPAWNS = 5
COLD_RUNS = 3  # the serial worker's own first pass is one of them
MIN_CLAIM_SAMPLES = 100  # at least 10 samples beyond claim_p90_ms
CHILD_TIMEOUT_S = 170
WORK_DIR = ".perfbench-work"

# A fresh interpreter up to a loaded scenario.  It marks the monotonic clock
# (shared between processes on Linux), then times the reference kernel on the
# core it ran on.  argv: the perfbench directory, the scenario, stream kernel.
SETUP_CODE = ("import sys, time\n"
              "import istruct.cli as cli\n"
              "cli.load_scenario(sys.argv[2])\n"
              "done = time.monotonic()\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "from refclock import RefClock\n"
              "print(done, RefClock(sys.argv[3] == '1').median())\n")

UNITS = {"ms": "ms", "mb": "MB", "frac": "frac"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    if name == "cli.cpu_over_wall":
        return "cpu-s/s"
    if name == "cli.threaded_speedup":
        return "x"
    if last == "row":
        return "nodes/row"
    if last == "s":
        return "s"
    return UNITS.get(last, "count")


def child_env(root: Path, threads: int | None = None) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ISTRUCT_THREADS", None)
    # the same dict and set layouts in every process, run after run
    env["PYTHONHASHSEED"] = "0"
    if threads is not None:
        # claim workers plus BLAS threads stay within the cores
        env["ISTRUCT_THREADS"] = str(threads)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
    return env


def run_child(argv: list, env: dict, root: Path) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{argv[:3]} did not finish in {CHILD_TIMEOUT_S} s") from exc


def setup_time(root: Path, scenario: Path, ref: RefClock) -> tuple[float, float]:
    """(scaled, raw) time from spawning an interpreter to a loaded scenario."""
    before = ref.median()
    start = time.monotonic()
    proc = run_child([sys.executable, "-c", SETUP_CODE, str(HERE), str(scenario),
                      str(int(ref.stream))], child_env(root), root)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    done, reference = (float(x) for x in proc.stdout.split()[-2:])
    raw = done - start
    return raw * ref.factor((before + reference) / 2), raw


def spawn_worker(root: Path, work: Path, req: dict, ref: RefClock):
    """(cold run s or None, worker result) of one worker process.

    The cold run is the spawn up to the import of istruct.cli, scaled by
    kernel runs here before the spawn and in the worker after the import,
    plus the worker's first pass (None when a claim of it failed).
    """
    before = ref.median()
    start = time.monotonic()
    w = run_worker(root, work, req)
    if w["cold_pass_s"] is None:
        return None, w
    imported = (w["imported"] - start) * ref.factor((before + w["reference"]) / 2)
    return imported + w["cold_pass_s"], w


def run_worker(root: Path, work: Path, req: dict, threads: int | None = None) -> dict:
    path = work / f"request-{req['mode']}.json"
    path.write_text(json.dumps(req), encoding="utf-8")
    proc = run_child([sys.executable, str(HERE / "worker.py"), str(path)],
                     child_env(root, threads), root)
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, args, worker_env: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc(), "cpu": cpu_model(),
            "python": platform.python_version(), **worker_env,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            # serial passes always run with it unset
            "ISTRUCT_THREADS": os.environ.get("ISTRUCT_THREADS"),
            "commit": git_commit(root)}


def end_to_end(root, work, req):
    ref = RefClock(req["stream_kernel"])
    setup, setup_raw = zip(*(setup_time(root, Path(req["scenario"]), ref)
                             for _ in range(SETUP_SPAWNS)))
    cold_workers = [spawn_worker(root, work, dict(req, mode="cold"), ref)
                    for _ in range(COLD_RUNS - 1)]
    cold, w = spawn_worker(root, work, req, ref)
    colds = [c for c in [c for c, _ in cold_workers] + [cold] if c is not None]
    claim_ms = sorted(1000.0 * s for s in w["claim_s"])
    if len(claim_ms) < 2 or not w["walls"] or not colds:
        raise BenchError("no successful timed pass; nothing to report")
    p90 = statistics.quantiles(claim_ms, n=10)[8]
    notes = {"claim_samples": len(claim_ms),
             "claim_samples_beyond_p90": sum(1 for x in claim_ms if x > p90),
             "timed_passes": len(w["walls"]), "cold_runs_s": colds,
             "raw_wall": {"setup_s": statistics.median(setup_raw),
                          "suite_s": statistics.median(w["raw_walls"])}}
    metrics = {"setup_s": statistics.median(setup),
               "cold_run_s": statistics.median(colds),
               "suite_s": statistics.median(w["walls"]),
               "claim_p50_ms": statistics.median(claim_ms), "claim_p90_ms": p90,
               "peak_rss_mb": w["maxrss_mb"]}
    attempted = w["attempted"] + sum(c["attempted"] for _, c in cold_workers)
    failed = w["failed"] + sum(c["failed"] for _, c in cold_workers)
    return metrics, attempted, failed, w["env"], notes


def per_layer(root, work, req):
    w = run_worker(root, work, dict(req, trace=True))
    suite_s = w["suite_s"]
    if not math.isfinite(suite_s):
        raise BenchError("no successful untraced pass; nothing to report")
    threads = nproc()
    t = run_worker(root, work, dict(req, mode="threaded"), threads=threads)
    threaded_s = t["threaded_s"]
    metrics = dict(w["trace"])
    metrics.update({"cli.cpu_over_wall": w["cpu_over_wall"], "cli.threaded_s": threaded_s,
                    "cli.threaded_speedup": suite_s / threaded_s,
                    "trace.overhead_frac": w["traced_wall"] / suite_s - 1.0})
    notes = {"suite_s_untraced": suite_s, "traced_pass_s": w["traced_wall"],
             "spans": w["spans"], "absent": w["absent"], "restored": w["restored"],
             "threaded_workers": threads}
    attempted = w["attempted"] + t["attempted"]
    failed = w["failed"] + t["failed"]
    return metrics, attempted, failed, w["env"], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "istruct" / "cli.py").is_file():
        print(f"error: {root} is not an istruct checkout (no src/istruct/cli.py)",
              file=sys.stderr)
        return 2
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
    try:
        scenario, suite = scenarios.write_scenario(args.workload, args.seed, work, root)
        req = {"scenario": str(scenario), "suite": suite,
               # paper-all is the bundled file as shipped: its seed goes on the command line
               "seed": args.seed if args.workload == "paper-all" else None,
               "out": str(work / "report.json"), "seconds": args.seconds,
               "min_samples": MIN_CLAIM_SAMPLES, "mode": "serial", "trace": False,
               "stream_kernel": args.workload in scenarios.QUADRATURE_BOUND}
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, worker_env, notes = measure(root, work, req)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it

    wanted = layers.metric_names() if args.trace else list(metrics)
    missing = [n for n in wanted if n not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name in wanted:
        print(f"{name} = {metrics[name]:.6g} {unit_of(name)}")
    print(f"claims_failed_frac = {failed / attempted:.6g} frac "
          f"({failed} of {attempted} claims attempted)")
    print("notes: " + json.dumps(notes, sort_keys=True))
    print("env: " + json.dumps(environment(root, args, worker_env), sort_keys=True))
    # a traced run must also have put every original function back
    correct = failed == 0 and notes.get("restored", True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
