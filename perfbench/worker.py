"""Runs passes of one suite through ``istruct.cli.main`` in this process.

    python3 perfbench/worker.py REQUEST.json

REQUEST.json holds ``scenario``, ``suite``, ``seed`` (null: the scenario's
own), ``out`` (report path), ``seconds``, ``min_samples``, ``mode``,
``trace`` and ``stream_kernel``.  The worker marks the monotonic clock once
``istruct.cli`` is imported and times its first (cold) pass; the ``cold``
mode stops there.  The ``threaded`` mode then times one more pass.  The
``serial`` mode makes timed passes for ``seconds`` (and until it has
``min_samples`` claim times), or, with ``trace``, untraced passes for
``seconds`` and then one traced pass.  It prints one JSON object as its last
line.  Every pass is checked: a claim whose outcome differs from the
scenario's ``expect`` counts as failed, and its time is not reported.  Times
are at reference CPU speed (see refclock.py).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from importlib import metadata

import layers
from refclock import RefClock
from tracer import Tracer, istruct_callables

VERIFIED = "verified"


def expectations(scenario_path: str, suite: str) -> dict:
    """Claim id -> expected status, in suite order."""
    with open(scenario_path, encoding="utf-8") as fh:
        scenario = json.load(fh)
    claims = scenario["claims"]
    return {cid: claims[cid].get("expect", VERIFIED) for cid in scenario["suites"][suite]}


def failed_claims(code, report_path: str, expected: dict) -> set:
    """Ids of claims that did not come out as expected in one pass.

    A claim fails when it is missing from the report, when its report status
    differs from the scenario's ``expect`` or its outcome is not verified, and
    every claim fails when ``main`` exited non-zero without naming a claim.
    """
    try:
        with open(report_path, encoding="utf-8") as fh:
            entries = {c["id"]: c for c in json.load(fh)["claims"]}
    except (OSError, ValueError, KeyError, TypeError):
        return set(expected)
    bad = {cid for cid, expect in expected.items()
           if cid not in entries or entries[cid].get("outcome") != VERIFIED
           or entries[cid].get("report", {}).get("status") != expect}
    if code != 0 and not bad:
        return set(expected)
    return bad


def cli_argv(req: dict) -> list[str]:
    argv = ["run", req["scenario"], "--suite", req["suite"], "--out", req["out"]]
    if req.get("seed") is not None:
        argv += ["--seed", str(req["seed"])]
    return argv


class Passes:
    """Runs checked passes and keeps the tallies.

    In a clocked pass the reference kernel is timed once before ``main`` and
    once after each claim, outside the claim's span; each claim's time is
    scaled by the mean of the kernel runs on either side of it, and the pass
    time is the sum of the scaled claims plus the rest of the pass (minus the
    kernel runs) scaled by the pass's median kernel time.
    """

    def __init__(self, cli, req: dict):
        self.cli, self.req = cli, req
        self.argv = cli_argv(req)
        self.expected = expectations(req["scenario"], req["suite"])
        self.ref = RefClock(req["stream_kernel"])
        self.attempted = self.failed = 0

    def claim_clock(self) -> Tracer:
        """Times each claim at the ``run_claim`` boundary, then the kernel."""
        def claim_id_then_kernel(args, kwargs, result):
            # runs after the claim's span has closed: the kernel is in no claim
            return {"id": args[0] if args else kwargs.get("claim_id"),
                    "ref": self.ref.sample()}
        return Tracer([("istruct.cli", "run_claim")], {"cli.run_claim": claim_id_then_kernel})

    def run(self, clock=None):
        """One checked pass: (raw s, scaled s, scaled times of the good claims,
        whether every claim came out as expected).

        Without a clock the scaled time is None; with one, the kernel runs are
        left out of the raw time.
        """
        if os.path.exists(self.req["out"]):
            os.remove(self.req["out"])
        if clock is not None:
            clock.spans.clear()
        ref_before = self.ref.sample()
        start = time.perf_counter()
        try:
            code = self.cli.main(self.argv)
        except Exception as exc:  # a crashing pass is a failed pass, not a dead benchmark
            print(f"pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
        wall = time.perf_counter() - start
        bad = failed_claims(code, self.req["out"], self.expected)
        self.attempted += len(self.expected)
        self.failed += len(bad)
        if clock is None:
            return wall, None, [], not bad
        spans = clock.spans
        refs = [ref_before] + [attrs["ref"] for *_, attrs in spans]
        claims = [(end - begin) * self.ref.factor((refs[i] + refs[i + 1]) / 2)
                  for i, (_, begin, end, _, _) in enumerate(spans)]
        rest = wall - sum(end - begin for _, begin, end, _, _ in spans) - sum(refs[1:])
        scaled = sum(claims) + rest * self.ref.factor(statistics.median(refs))
        good = [c for c, (*_, attrs) in zip(claims, spans) if attrs["id"] not in bad]
        return wall - sum(refs[1:]), scaled, good, not bad

    def bracketed(self) -> float:
        """One pass without a clock, scaled by kernel runs either side of it."""
        before = self.ref.median()
        raw = self.run()[0]
        return raw * self.ref.factor((before + self.ref.median()) / 2)


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    np_mod = sys.modules.get("numpy")
    blas = None
    if np_mod is not None:
        try:
            blas = np_mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = {"name": blas.get("name"), "version": blas.get("version")}
        except Exception:  # build-info layout varies between numpy releases
            blas = None
    return {"numpy": version("numpy"), "scipy": version("scipy"),
            "scipy_imported": "scipy" in sys.modules, "blas": blas}


def main(request_path: str) -> dict:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    import istruct.cli as cli
    imported = time.monotonic()

    passes = Passes(cli, req)
    out = {"imported": imported, "reference": passes.ref.median()}
    with passes.claim_clock() as clock:
        # the first pass of a fresh process, nothing warm yet: the cold pass,
        # and the warm-up of the passes after it
        _, cold, _, ok = passes.run(clock)
    out["cold_pass_s"] = cold if ok else None
    if req["mode"] == "threaded":
        out["threaded_s"] = passes.bracketed()
    elif req["mode"] == "serial" and req["trace"]:
        out.update(traced_run(cli, passes, req["seconds"]))
    elif req["mode"] == "serial":
        out.update(timed_passes(passes, req["seconds"], req["min_samples"]))
    return dict(out, attempted=passes.attempted, failed=passes.failed, env=environment())


def timed_passes(passes: Passes, seconds: float, min_samples: int) -> dict:
    walls, raw_walls, claim_s = [], [], []
    with passes.claim_clock() as clock:
        start = time.perf_counter()
        while True:
            raw, scaled, claims, ok = passes.run(clock)
            claim_s += claims
            if ok:
                walls.append(scaled)
                raw_walls.append(raw)
            elapsed = time.perf_counter() - start
            if elapsed >= 3 * seconds:
                break
            if elapsed >= seconds and len(claim_s) >= min_samples:
                break
    return {"walls": walls, "raw_walls": raw_walls, "claim_s": claim_s,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced_run(cli, passes: Passes, seconds: float) -> dict:
    """Untraced passes for ``seconds``, then one pass with every public
    function of the layers traced, all clocked the same way.

    The claim clock wraps the tracer's ``run_claim`` span, so its kernel runs
    fall outside every span but ``cli.main``'s; they are left out of the
    traced pass's time and of the top-level spans.
    """
    untraced = []
    cpu0, start = os.times(), time.perf_counter()
    with passes.claim_clock() as clock:
        while not untraced or time.perf_counter() - start < seconds:
            _, scaled, _, ok = passes.run(clock)
            if ok:
                untraced.append(scaled)
    cpu1, wall = os.times(), time.perf_counter() - start

    tracer = Tracer(layers.traced_targets(), layers.ANNOTATE)
    originals = istruct_callables()
    json_module = getattr(cli, "json", None)
    with tracer:
        # the report is written by cli.main through json.dump
        tracer.wrap_imported(cli, "json", "dump", layers.REPORT_DUMP)
        with passes.claim_clock() as clock:
            raw, scaled, _, _ = passes.run(clock)
            kernel_s = sum(attrs["ref"] for *_, attrs in clock.spans)
    restored = (istruct_callables() == originals
                and getattr(cli, "json", None) is json_module)
    return {"suite_s": statistics.median(untraced) if untraced else float("nan"),
            "cpu_over_wall": (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall,
            "trace": layers.layer_metrics(tracer.spans, raw, scaled / raw, kernel_s),
            "traced_wall": scaled, "spans": len(tracer.spans),
            "absent": tracer.absent, "restored": restored}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
