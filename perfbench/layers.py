"""Per-layer metrics computed from one traced pass.

Names follow ``<module>.<function>.<calls|rows|self_s|total_s>``; see
README.md for which end-to-end metric each one should move.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import LAYERS, istruct_modules, public_functions, self_times

# descriptor kinds, split the way the quadrature cost splits
KINDS = ("lp1", "lpinf", "lpp", "lp2", "wlp", "quad", "poly", "sum", "sub", "cplx")
_KIND_OF_CLASS = {"WeightedLp": "wlp", "EuclideanQuadratic": "quad", "Polyhedral": "poly",
                  "SumNorm": "sum", "SubspaceNorm": "sub", "ComplexificationOfBase": "cplx"}

NORM = "spaces.norm_batch"
CPLX = "spaces.complexification_norm_batch"


def descriptor_kind(space) -> str:
    desc = getattr(space, "norm_desc", None)
    name = type(desc).__name__
    if name == "Lp":
        p = desc.p
        return "lpinf" if math.isinf(p) else {1.0: "lp1", 2.0: "lp2"}.get(p, "lpp")
    return _KIND_OF_CLASS.get(name, name.lower())


def _rows_and_kind(args, kwargs, result):
    space = args[0] if args else kwargs.get("space", kwargs.get("base"))
    X = args[1] if len(args) > 1 else kwargs.get("X")
    return {"kind": descriptor_kind(space), "rows": len(X) if X is not None else 0}


def _certificate(args, kwargs, result):
    if result is None:
        return {"exact": None, "samples": 0}
    return {"exact": bool(result.exact), "samples": int(result.samples_used)}


def _norm_between(args, kwargs, result):
    return {"exact": bool(result[1]) if result is not None else None}


ANNOTATE = {NORM: _rows_and_kind, CPLX: _rows_and_kind,
            "structures.certify": _certificate,
            "morphisms.matrix_norm_between": _norm_between}

REPORT_DUMP = "cli.report_dump"


def metric_names() -> list[str]:
    """Every name `layer_metrics` returns, plus the ones the runner adds."""
    names = ["spaces.norm_batch.calls", "spaces.norm_batch.rows", "spaces.norm_batch.self_s"]
    for kind in KINDS:
        names += [f"spaces.norm_batch.{kind}.rows", f"spaces.norm_batch.{kind}.self_s"]
    names += [f"spaces.cplx_norm.{s}" for s in ("calls", "rows", "self_s", "nodes_per_row")]
    for kind in KINDS:
        names += [f"spaces.cplx_norm.{kind}.self_s", f"spaces.cplx_norm.{kind}.nodes_per_row"]
    names += [f"structures.certify.{m}.{s}" for m in ("exact", "sampled")
              for s in ("calls", "total_s")]
    names += ["structures.certify.sampled.samples",
              "structures.search_i_operator.calls", "structures.search_i_operator.total_s",
              "morphisms.make_respecting.calls", "morphisms.make_respecting.self_s",
              "morphisms.matrix_norm_between.calls",
              "morphisms.matrix_norm_between.exact_calls",
              "morphisms.matrix_norm_between.total_s",
              "morphisms.is_isomorphism.calls", "morphisms.is_isomorphism.self_s",
              "theory.build_complexification_witness.total_s",
              "theory.verify_squares_isomorphism.total_s",
              "theory.verify_real_cartesian_identities.self_s",
              "theory.verify_complex_cartesian_identities.self_s",
              "theory.verify_theorem_real.total_s", "theory.verify_theorem_complex.total_s",
              "ideals.decide_real.calls", "ideals.decide_complex.calls", "ideals.decide.self_s",
              "ideals.ideal_norm.calls", "ideals.ideal_norm.self_s",
              "ideals.audit_self_conjugacy.total_s",
              "pelczynski.search_chain.total_s", "pelczynski.apply_rule.calls",
              "pelczynski.apply_rule.self_s", "pelczynski.check_derivation.calls",
              "corpus.calls", "corpus.self_s",
              "cli.load_scenario_s", "cli.run_claim.self_s", "cli.report_dump_s",
              "cli.cpu_over_wall", "cli.threaded_s", "cli.threaded_speedup",
              "trace.overhead_frac", "trace.top_span_frac", "trace.spaces_self_frac"]
    return names


def layer_metrics(spans, pass_wall_s: float, time_factor: float,
                  bench_s: float = 0.0) -> dict:
    """Per-layer metrics of one traced pass that took ``pass_wall_s``, not
    counting ``bench_s`` the benchmark itself spent inside its top-level span.
    Every time is multiplied by ``time_factor`` (to reference CPU speed)."""
    selfs = self_times(spans)
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    rows, kind_rows, kind_self = defaultdict(int), defaultdict(int), defaultdict(float)
    cplx_rows, cplx_self, node_rows = defaultdict(int), defaultdict(float), defaultdict(int)
    certify = defaultdict(float)
    exact_norms = 0
    top = 0.0
    for (name, start, end, parent, attrs), own in zip(spans, selfs):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own
        if parent < 0:
            top += end - start
        if name == NORM:
            rows[name] += attrs["rows"]
            kind_rows[attrs["kind"]] += attrs["rows"]
            kind_self[attrs["kind"]] += own
            if parent >= 0 and spans[parent][0] == CPLX:
                node_rows[spans[parent][4]["kind"]] += attrs["rows"]
        elif name == CPLX:
            cplx_rows[attrs["kind"]] += attrs["rows"]
            cplx_self[attrs["kind"]] += own
        elif name == "structures.certify" and attrs["exact"] is not None:
            mode = "exact" if attrs["exact"] else "sampled"
            certify[f"{mode}.calls"] += 1
            certify[f"{mode}.total_s"] += end - start
            certify[f"{mode}.samples"] += attrs["samples"]
        elif name == "morphisms.matrix_norm_between" and attrs["exact"]:
            exact_norms += 1

    def per_row(num, den):
        return num / den if den else 0.0

    m = {"spaces.norm_batch.calls": calls[NORM], "spaces.norm_batch.rows": rows[NORM],
         "spaces.norm_batch.self_s": self_s[NORM]}
    for kind in KINDS:
        m[f"spaces.norm_batch.{kind}.rows"] = kind_rows[kind]
        m[f"spaces.norm_batch.{kind}.self_s"] = kind_self[kind]
    all_cplx_rows = sum(cplx_rows.values())
    m.update({"spaces.cplx_norm.calls": calls[CPLX], "spaces.cplx_norm.rows": all_cplx_rows,
              "spaces.cplx_norm.self_s": self_s[CPLX],
              "spaces.cplx_norm.nodes_per_row": per_row(sum(node_rows.values()), all_cplx_rows)})
    for kind in KINDS:
        m[f"spaces.cplx_norm.{kind}.self_s"] = cplx_self[kind]
        m[f"spaces.cplx_norm.{kind}.nodes_per_row"] = per_row(node_rows[kind], cplx_rows[kind])
    for mode in ("exact", "sampled"):
        m[f"structures.certify.{mode}.calls"] = int(certify[f"{mode}.calls"])
        m[f"structures.certify.{mode}.total_s"] = certify[f"{mode}.total_s"]
    m["structures.certify.sampled.samples"] = int(certify["sampled.samples"])
    for name in ("structures.search_i_operator", "morphisms.matrix_norm_between"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.total_s"] = total[name]
    m["morphisms.matrix_norm_between.exact_calls"] = exact_norms
    for name in ("morphisms.make_respecting", "morphisms.is_isomorphism",
                 "ideals.ideal_norm", "pelczynski.apply_rule"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("theory.build_complexification_witness", "theory.verify_squares_isomorphism",
                 "theory.verify_theorem_real", "theory.verify_theorem_complex",
                 "ideals.audit_self_conjugacy", "pelczynski.search_chain"):
        m[f"{name}.total_s"] = total[name]
    for name in ("theory.verify_real_cartesian_identities",
                 "theory.verify_complex_cartesian_identities", "cli.run_claim"):
        m[f"{name}.self_s"] = self_s[name]
    for name in ("ideals.decide_real", "ideals.decide_complex", "pelczynski.check_derivation"):
        m[f"{name}.calls"] = calls[name]
    m["ideals.decide.self_s"] = self_s["ideals.decide_real"] + self_s["ideals.decide_complex"]
    corpus = [n for n in calls if n.startswith("corpus.")]
    m["corpus.calls"] = sum(calls[n] for n in corpus)
    m["corpus.self_s"] = sum(self_s[n] for n in corpus)
    m["cli.load_scenario_s"] = total["cli.load_scenario"]
    m["cli.report_dump_s"] = total[REPORT_DUMP]
    m["trace.top_span_frac"] = per_row(top - bench_s, pass_wall_s)
    m["trace.spaces_self_frac"] = per_row(
        sum(v for n, v in self_s.items() if n.startswith("spaces.")), pass_wall_s)
    return {n: v * time_factor if n.endswith("_s") else v for n, v in m.items()}


# functions the metrics above read by name; a missing one is reported absent
NAMED = (NORM, CPLX, "structures.certify", "structures.search_i_operator",
         "morphisms.make_respecting", "morphisms.matrix_norm_between",
         "morphisms.is_isomorphism", "theory.build_complexification_witness",
         "theory.verify_squares_isomorphism", "theory.verify_real_cartesian_identities",
         "theory.verify_complex_cartesian_identities", "theory.verify_theorem_real",
         "theory.verify_theorem_complex", "ideals.decide_real", "ideals.decide_complex",
         "ideals.ideal_norm", "ideals.audit_self_conjugacy", "pelczynski.search_chain",
         "pelczynski.apply_rule", "pelczynski.check_derivation", "cli.load_scenario",
         "cli.run_claim", "cli.main")


def traced_targets() -> list[tuple[str, str]]:
    """(module name, function name) for every public function of the layers,
    and for every function in NAMED whether or not it still exists."""
    found = {(mod.__name__, fn) for mod in istruct_modules() for fn in public_functions(mod)
             if mod.__name__.rsplit(".", 1)[-1] in LAYERS}
    named = {tuple(("istruct." + n).rsplit(".", 1)) for n in NAMED}
    return sorted(found | named)
