"""The latrelay benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. For one workload it prints the metrics
by name with their units and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(names, units and directions come from BENCHMARK.json).

``--trace 0`` runs the operation loop in a fresh worker process (set-up,
SECONDS of operations in segments, output checks); between the segments,
while the worker waits, it runs fresh set-up-only processes and the
workload's latrelay CLI subcommands in fresh processes, one at a time.
Every end-to-end time is scaled to a reference machine speed: the loop
scales each operation by the reference kernel of ``calib`` timed around
it, and each fresh set-up or CLI process is scaled by a reference process
(REF_PROCESS) started just before it.
``--trace 1`` runs the traced pass in one fresh worker. ``--workload
all`` (the default) runs every workload both ways and ends with one JSON
object whose metric names are prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import CLI_REPS, SEGMENTS, SETUP_REPS, WORKLOADS  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT = 150
# A fresh interpreter that imports numpy and none of the program, and its
# wall time on the reference machine. A fresh set-up or CLI process is
# reported as measured * REF_PROCESS_S / (this process's time just
# before it): process start-up and imports slow down with the machine
# in their own way, which the in-process kernel does not follow.
REF_PROCESS = ("-c", "import numpy")
REF_PROCESS_S = 0.2


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"       # one thread: the closed loop has a single client
    return env


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value. A fresh process's
    time varies by itself by about 15 %, nearly symmetrically, so the
    mean of the repetitions is steadier than their median; the trimming
    keeps one stray repetition from moving it."""
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) > 2 else ordered)


def _spawn(cmd, timeout=CHILD_TIMEOUT) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:4]} exceeded {timeout} s") from exc


def _process_scale() -> float:
    """Factor for a fresh process started next: REF_PROCESS_S over the
    wall time of one reference process started now."""
    t0 = time.perf_counter()
    proc = _spawn([sys.executable, *REF_PROCESS])
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"reference process exited {proc.returncode}")
    return REF_PROCESS_S / elapsed


def _worker(mode, name, seed) -> dict:
    proc = _spawn([sys.executable, str(HERE / "worker.py"), mode, name,
                   str(seed)])
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} {name} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ops_session(name, seed, seconds, between) -> tuple[float, dict]:
    """Run the operation loop in one fresh worker, as SEGMENTS segments of
    seconds / SEGMENTS; ``between(i)`` runs after segment i while the
    worker waits, so the measured operations sample the machine over the
    whole run. Returns the worker's scaled set-up time and its final
    result."""
    err_path = OUT / f"worker_{name}.err"
    scale = _process_scale()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "ops", name, str(seed)],
            cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            def reply() -> dict:
                line = proc.stdout.readline()
                if not line:
                    raise BenchError(f"worker ops {name} stopped:\n"
                                     f"{err_path.read_text()[-2000:]}")
                return json.loads(line)

            setup_s = reply()["setup_s"] * scale
            for i in range(SEGMENTS):
                last = int(i == SEGMENTS - 1)
                proc.stdin.write(f"run {seconds / SEGMENTS!r} {last}\n")
                proc.stdin.flush()
                reply()
                if not last:
                    between(i)
            proc.stdin.write("end\n")
            proc.stdin.flush()
            result = reply()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return setup_s, result


def _cli_once(name, seed) -> tuple[float, list]:
    """Scaled wall time of the workload's subcommands, each in a fresh
    process, and a list of problems with their exit codes or outputs."""
    spec = WORKLOADS[name]
    out_dir = OUT / f"cli_{name}"
    shutil.rmtree(out_dir, ignore_errors=True)
    problems = []
    elapsed = 0.0
    scale = _process_scale()
    for sub in spec.cli:
        cmd = [sys.executable, "-m", "latrelay.cli", sub, "--config",
               str(HERE / spec.ini), "--seed", str(seed), "--out",
               str(out_dir), "--quiet"]
        t0 = time.perf_counter()
        proc = _spawn(cmd)
        elapsed += time.perf_counter() - t0
        if proc.returncode != 0:
            problems.append(f"latrelay {sub} exited {proc.returncode}: "
                            f"{proc.stderr[-500:]}")
    elapsed *= scale
    expected = {"p2p-sim": ["p2p.csv"],
                "relay-sim": ["relay_blocks.csv", "relay_summary.csv"],
                "twrc-sim": ["twrc_blocks.csv", "twrc_summary.csv"],
                "gaps": ["gaps.csv", "gaps.svg"]}
    for sub in spec.cli:
        for fname in expected[sub]:
            path = out_dir / fname
            if not path.is_file() or path.stat().st_size == 0:
                problems.append(f"latrelay {sub} wrote no {fname}")
    return elapsed, problems


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found: run from a checkout root")
    return json.loads(path.read_text())


def check_checkout():
    pkg = ROOT / "src" / "latrelay" / "__init__.py"
    if not pkg.is_file():
        raise BenchError(f"{pkg.relative_to(ROOT)} is missing: the benchmark "
                         "runs the program from this checkout's source")


def run_workload(name, seed, seconds, trace) -> dict:
    """One run of one workload; returns the result object."""
    bench = load_benchmark()
    OUT.mkdir(exist_ok=True)
    if trace:
        res = _worker("trace", name, seed)
        values = res["per_layer"]
        declared = bench["per_layer"]
        problems = res["messages"] if not res["correct"] else []
        attempted, failed, correct = (res["attempted"], res["failed"],
                                      res["correct"])
        notes = {}
    else:
        setups, cli_times, cli_problems = [], [], []

        def setup_rep():
            scale = _process_scale()
            setups.append(_worker("setup", name, seed)["setup_s"] * scale)

        def cli_rep():
            elapsed, found = _cli_once(name, seed)
            cli_times.append(elapsed)
            cli_problems.extend(found)

        # One repetition in each gap between segments, alternating kinds;
        # the worker's own set-up is the first set-up sample.
        tasks = []
        for i in range(max(SETUP_REPS - 1, CLI_REPS)):
            tasks += [cli_rep] * (i < CLI_REPS)
            tasks += [setup_rep] * (i < SETUP_REPS - 1)

        def between(i):
            if i < len(tasks):
                tasks[i]()

        first_setup, main = _ops_session(name, seed, seconds, between)
        setups.append(first_setup)
        for task in tasks[SEGMENTS - 1:]:
            task()
        problems = [] if main["correct"] and not main["failed"] \
            else list(main["messages"])
        problems += cli_problems
        values = {
            "setup_s": trimmed_mean(setups),
            "work_per_s": main.get("work_per_s"),
            "op_p50_ms": main.get("op_p50_ms"),
            "op_tail_ms": main.get("op_tail_ms"),
            "peak_rss_mb": main["peak_rss_mb"],
            "cli_s": trimmed_mean(cli_times),
        }
        declared = bench["end_to_end"]
        notes = {"kernel_ms": main["kernel_ms"],
                 **{f"{k} unscaled": v
                    for k, v in main.get("unscaled", {}).items()}}
        attempted, failed = main["attempted"], main["failed"]
        correct = main["correct"] and not cli_problems
    if set(values) != {m["name"] for m in declared}:
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    if any(v is None for v in values.values()):
        raise BenchError("no operation completed")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics,
            "problems": problems[:20], "notes": notes}


def _report(name, res):
    for key, m in res["metrics"].items():
        print(f"{name:13s} {key:38s} {m['value']:14.6g} {m['unit']}")
    for key, value in res["notes"].items():
        print(f"{name:13s} ({key} {value:.6g})")
    print(f"{name:13s} attempted={res['attempted']} failed={res['failed']} "
          f"correct={res['correct']}")
    for msg in res["problems"]:
        print(f"{name:13s} problem: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 for one workload, both for all")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
            _report(args.workload, res)
            res.pop("problems")
            res.pop("notes")
            print(json.dumps(res))
            return 0
        traces = (0, 1) if args.trace is None else (args.trace,)
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in traces:
                res = run_workload(name, args.seed, args.seconds, bool(trace))
                _report(name, res)
                total["correct"] &= res["correct"]
                total["attempted"] += res["attempted"]
                total["failed"] += res["failed"]
                for key, m in res["metrics"].items():
                    total["metrics"][f"{name}.{key}"] = m
        print(json.dumps(total))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
