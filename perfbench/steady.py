"""Steadiness check: repeat the benchmark and compare spreads to bounds.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]

Run from the root of a checkout. Each workload runs ``--runs`` times, on
seeds 1, 2, ..., for BENCHMARK.json's ``run_seconds``. For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median, against the metric's bound from
BENCHMARK.json: "steady" below a third of the bound, "within" up to
the bound, "WIDE" beyond it. It also checks that the share of failed
operations is the same in every run, and runs the traced pass twice on
the first seed to check that every count metric repeats exactly. It
exits 1 when any check fails. Results are kept in
perfbench/out/steady_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import WORKLOADS  # noqa: E402

NOTE = re.compile(r"^\S+\s+\((.+) (\S+)\)$")


def _run(name, seed, seconds, trace) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["wall_s"] = time.perf_counter() - t0
    # The report's "(key value)" lines: kernel time and unscaled figures.
    res["notes"] = {}
    for line in lines[:-1]:
        m = NOTE.match(line)
        if m:
            res["notes"][m[1]] = float(m[2])
    return res


def spread(values) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    (HERE / "out").mkdir(exist_ok=True)
    ok = True
    for name in args.workload:
        runs = []
        for seed in range(1, args.runs + 1):
            res = _run(name, seed, seconds, 0)
            runs.append(res)
            print(f"{name} seed {seed}: attempted={res['attempted']} "
                  f"failed={res['failed']} correct={res['correct']} "
                  f"({res['wall_s']:.1f} s)", flush=True)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        same_share = len({f / a for f, a in shares}) == 1
        ok &= same_share and all(r["correct"] for r in runs)
        print(f"{name}: failed share {'identical' if same_share else 'DIFFERS'}"
              f" across runs: {sorted(shares)}")
        summary = {"runs": runs, "spread": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            verdict = ("steady" if s < bound / 3 else
                       "within" if s <= bound else "WIDE")
            ok &= verdict != "WIDE"
            summary["spread"][metric] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": s, "bound": bound}
            print(f"{name:13s} {metric:12s} median {med:10.5g}  "
                  f"q1 {q1:10.5g}  q3 {q3:10.5g}  spread {s:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
        a = _run(name, 1, seconds, 1)
        b = _run(name, 1, seconds, 1)
        counts = [m["name"] for m in bench["per_layer"]
                  if m["unit"] == "count"]
        differ = [c for c in counts
                  if a["metrics"][c]["value"] != b["metrics"][c]["value"]]
        ok &= not differ and a["correct"] and b["correct"]
        print(f"{name}: traced counts "
              f"{'repeat exactly' if not differ else f'DIFFER: {differ}'}"
              f" ({a['wall_s']:.1f} s, {b['wall_s']:.1f} s)")
        summary["trace_repeat"] = {"differ": differ,
                                   "counts": {c: a["metrics"][c]["value"]
                                              for c in counts}}
        (HERE / "out" / f"steady_{name}.json").write_text(
            json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
