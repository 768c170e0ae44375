#!/usr/bin/env python3
"""Compare two BENCH_e2e.json files written by bonsai_bench.

    python3 bench/e2e/compare.py A.json B.json
    python3 bench/e2e/compare.py --self-test

A is the baseline, B the candidate.  One row is printed per workload
and end-to-end metric of BENCHMARK.json: A's median, B's median, the
relative change and a verdict, judged against the metric's bound:

    better      B beats A by more than the bound
    same        the change is within the bound
    worse       B loses to A by more than the bound
    unresolved  either file's spread (interquartile range over median
                of the samples behind the metric) exceeds the bound
    missing     only one file has the workload, or a file lacks the
                metric

Two more rows per workload hold exact counts: spill_bytes_per_input_byte
must not change and fail_ratio must not rise.  Exits 1 if any row is
worse or missing, 0 otherwise.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# The spread field of each metric that is a median over samples.
SPREAD = {"sort_s_p50": "sort_s_spread",
          "throughput_mb_s": "sort_s_spread",
          "speedup_vs_std_sort": "speedup_spread"}
EXACT = [("spill_bytes_per_input_byte", "lower"), ("fail_ratio", "lower")]
FAILING = {"worse", "missing"}


def verdict(a, b, better, bound, spread=0.0):
    if spread > bound:
        return "unresolved"
    if a == b:
        return "same"
    delta = (b - a) / a if a else float("inf")
    gain = -delta if better == "lower" else delta
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def compare(spec, a_doc, b_doc):
    """Rows of (workload, metric, a, b, delta, verdict); a value that a
    file lacks is None."""
    a_points = {p["workload"]: p for p in a_doc["points"]}
    b_points = {p["workload"]: p for p in b_doc["points"]}
    workloads = list(a_points) + [w for w in b_points if w not in a_points]
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics += [(name, better, 0.0) for name, better in EXACT]
    rows = []
    for w in workloads:
        a = a_points.get(w, {})
        b = b_points.get(w, {})
        for name, better, bound in metrics:
            va, vb = a.get(name), b.get(name)
            if va is None or vb is None:
                rows.append((w, name, va, vb, None, "missing"))
                continue
            field = SPREAD.get(name)
            spread = max(a.get(field, 0.0), b.get(field, 0.0)) \
                if field else 0.0
            delta = (vb - va) / va if va else 0.0
            rows.append((w, name, va, vb, delta,
                         verdict(va, vb, better, bound, spread)))
    return rows


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    docs = [json.loads(Path(p).read_text()) for p in argv]
    rows = compare(spec, *docs)

    def num(v):
        return f"{v:11.5g}" if v is not None else f"{'-':>11}"

    print(f"{'workload':18} {'metric':27} {'A':>11} {'B':>11} "
          f"{'delta':>7}  verdict")
    for w, name, va, vb, delta, v in rows:
        d = f"{delta:+7.1%}" if delta is not None else f"{'-':>7}"
        print(f"{w:18} {name:27} {num(va)} {num(vb)} {d}  {v}")
    return 1 if any(r[5] in FAILING for r in rows) else 0


def self_test():
    spec = {"end_to_end": [
        {"name": "sort_s_p50", "better": "lower", "bound": 0.08},
        {"name": "throughput_mb_s", "better": "higher", "bound": 0.08},
        {"name": "speedup_vs_std_sort", "better": "higher", "bound": 0.08}]}

    def point(workload, sort_s, spread=0.01, ratio_spread=0.01, spill=2.0,
              fail=0.0):
        return {"workload": workload, "sort_s_p50": sort_s,
                "throughput_mb_s": 100 / sort_s, "sort_s_spread": spread,
                "speedup_vs_std_sort": 0.5 / sort_s,
                "speedup_spread": ratio_spread,
                "spill_bytes_per_input_byte": spill, "fail_ratio": fail}

    def doc(sort_s, **kw):
        return {"points": [point("w", sort_s, **kw)]}

    def verdicts(a, b):
        return {(r[0], r[1]): r[5] for r in compare(spec, a, b)}

    base = doc(1.0)
    two = {"points": [point("w", 1.0), point("v", 1.0)]}
    no_metric = doc(1.0)
    del no_metric["points"][0]["sort_s_p50"]
    checks = [
        (verdicts(base, doc(1.0)), "sort_s_p50", "same"),
        (verdicts(base, doc(1.05)), "sort_s_p50", "same"),
        (verdicts(base, doc(1.10)), "sort_s_p50", "worse"),
        (verdicts(base, doc(1.10)), "throughput_mb_s", "worse"),
        (verdicts(base, doc(0.85)), "sort_s_p50", "better"),
        (verdicts(base, doc(0.85)), "throughput_mb_s", "better"),
        (verdicts(base, doc(1.10)), "speedup_vs_std_sort", "worse"),
        (verdicts(base, doc(0.85)), "speedup_vs_std_sort", "better"),
        (verdicts(base, doc(1.10, ratio_spread=0.2)),
         "speedup_vs_std_sort", "unresolved"),
        (verdicts(base, doc(1.10, ratio_spread=0.2)), "sort_s_p50",
         "worse"),
        (verdicts(base, doc(1.10, spread=0.2)), "sort_s_p50",
         "unresolved"),
        (verdicts(base, doc(1.0, spill=4.0)),
         "spill_bytes_per_input_byte", "worse"),
        (verdicts(base, doc(1.0, fail=0.1)), "fail_ratio", "worse"),
        (verdicts(doc(1.0, fail=0.1), doc(1.0)), "fail_ratio", "better"),
        (verdicts(base, no_metric), "sort_s_p50", "missing"),
        (verdicts(no_metric, base), "sort_s_p50", "missing"),
        (verdicts(no_metric, base), "throughput_mb_s", "same"),
    ]
    failed = [(m, want, got[("w", m)]) for got, m, want in checks
              if got[("w", m)] != want]
    # A workload that only one file has: every one of its rows is
    # missing, whichever side dropped it.
    for a, b in ((two, base), (base, two)):
        got = {v for (w, _), v in verdicts(a, b).items() if w == "v"}
        if got != {"missing"}:
            failed.append(("workload v", "missing", got))
    for m, want, got in failed:
        print(f"self-test: {m}: want {want}, got {got}", file=sys.stderr)
    print("self-test " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
