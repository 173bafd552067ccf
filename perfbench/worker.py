"""One workload in one fresh process; its last output line is the result
as JSON.

    python3 perfbench/worker.py MODE WORKLOAD SEED

MODE is ``setup`` (import and set-up only, timed), ``ops`` (set-up, then
a closed loop of operations from this single thread in segments that the
parent starts over stdin, then the output checks) or
``trace`` (a fixed number of rounds, each run untraced and then traced,
and the workload's CLI subcommands run in-process under the tracer). Run
from the root of a checkout: latrelay is imported from ``src/`` there and
nowhere else.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program() -> float:
    """Import latrelay from this checkout's src/ and return the seconds."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import latrelay
    elapsed = time.perf_counter() - t0
    where = Path(latrelay.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"latrelay imported from {where}, not this checkout")
    return elapsed


class Loop:
    """Closed loop over whole rounds of operations from this one thread.

    ``run`` may be called repeatedly: each call is a segment that stops at
    the first round boundary after ``seconds`` once ``min_ops`` operations
    ran in total, or after exactly ``rounds`` more rounds. Only the
    operation itself is inside each timed interval. Its output is checked
    right after the interval and then dropped; the checking time is left
    out of the segment's time, as is the time between segments. What the
    loop keeps per operation is its duration (8 bytes) and the few numbers
    the workload's ``check_op`` keeps, so the process's peak memory does
    not grow with the outputs of a faster program.

    With ``calibrate`` the loop also times the reference kernel of
    ``calib`` at the start and the end of each segment and after an
    operation at most every KERNEL_EVERY seconds, outside the timed
    intervals, and keeps each timing with its place among the operations.
    """

    KERNEL_EVERY = 0.02

    def __init__(self, wl, state, tracer=None, calibrate=False):
        self.wl, self.state, self.tracer = wl, state, tracer
        self.calibrate = calibrate
        if calibrate:                   # numpy only after the timed import
            import calib
            self.kernel_time = calib.kernel_time
        self.durations = array("d")
        # Kernel timings, each taken before the operation durations[pos].
        self.kernel_pos, self.kernel_s = array("q"), array("d")
        self.bad, self.errors, self.acc = {}, [], {}
        # Per run() call: (elapsed, work, first and end index into
        # durations).
        self.segments = []
        self.attempted = self.failed = self.work = self.r = 0
        self.elapsed = self.untimed_s = self.next_kernel = 0.0

    def run(self, seconds=0.0, min_ops=0, rounds=None):
        perf = time.perf_counter
        if self.calibrate:
            self._kernel()
        start = perf()
        deadline = start + seconds
        stop = None if rounds is None else self.r + rounds
        work, untimed_s, first = self.work, self.untimed_s, len(self.durations)
        while (self.r < stop) if stop is not None else (
                perf() < deadline or self.attempted < min_ops):
            for inp in self.wl.round_inputs(self.state, self.r):
                self._one(inp)
            self.r += 1
        elapsed = perf() - start - (self.untimed_s - untimed_s)
        if self.calibrate:
            self._kernel()
        self.elapsed += elapsed
        self.segments.append((elapsed, self.work - work, first,
                              len(self.durations)))
        return self

    def _kernel(self):
        self.kernel_pos.append(len(self.durations))
        self.kernel_s.append(self.kernel_time())

    def op_kernels(self) -> array:
        """Kernel time around each timed operation: the mean of the
        timings taken just before and just after it."""
        pos, ks, n = self.kernel_pos, self.kernel_s, len(self.kernel_pos)
        out = array("d")
        for j in range(len(self.durations)):
            before = bisect.bisect_right(pos, j) - 1
            after = bisect.bisect_left(pos, j + 1)
            before = after if before < 0 else before
            after = before if after == n else after
            out.append((ks[before] + ks[after]) / 2)
        return out

    def _one(self, inp):
        perf = time.perf_counter
        index = self.attempted
        if self.tracer is not None:
            self.tracer.op_id = index
        self.attempted += 1
        t0 = perf()
        try:
            out, units = self.wl.run(self.state, inp)
        except Exception as exc:         # a raising operation is a failed one
            self.failed += 1
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            return
        t1 = perf()
        self.durations.append(t1 - t0)
        self.work += units
        msg = self.wl.check_op(self.state, self.acc, index, inp, out)
        if msg:
            self.bad[index] = msg
        if self.calibrate and perf() >= self.next_kernel:
            self._kernel()
            self.next_kernel = perf() + self.KERNEL_EVERY
        self.untimed_s += perf() - t1

    def check(self) -> tuple[int, bool, list]:
        """Apply the workload's checks that need the whole operation
        phase; returns (failed operations, correct, messages)."""
        bad, problems = self.wl.check(self.state, self.acc)
        bad = {**self.bad, **bad}
        messages = self.errors + [f"op {i}: {m}" for i, m in sorted(bad.items())]
        return self.failed + len(bad), not problems, messages + problems


def _percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-pct * len(ordered) // 100)) - 1))
    return ordered[k]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup(name, seed):
    import_s = _import_program()
    import workloads
    wl = workloads.make(name)
    t0 = time.perf_counter()
    wl.setup(seed)
    return {"setup_s": import_s + time.perf_counter() - t0}


def _send(obj):
    print(json.dumps(obj), flush=True)


def mode_ops(name, seed):
    """Set up, then run operation segments as the parent asks on stdin:
    ``run SECONDS LAST`` runs one segment (the last one also reaches the
    workload's minimum operation count) and ``end`` runs the checks."""
    from spec import WORKLOADS
    spec = WORKLOADS[name]
    import_s = _import_program()
    import workloads
    wl = workloads.make(name)
    t0 = time.perf_counter()
    state = wl.setup(seed)
    _send({"setup_s": import_s + time.perf_counter() - t0})
    loop = Loop(wl, state, calibrate=True)
    for line in sys.stdin:
        words = line.split()
        if words[0] == "end":
            break
        loop.run(float(words[1]), spec.min_ops if words[2] == "1" else 0)
        _send({"segment_ops": loop.attempted})
    peak = _peak_rss_mb()
    failed, correct, messages = loop.check()
    import calib
    # Every operation at the reference speed of the kernel timed around
    # it; a segment's work rate by the same factor, weighted by time.
    raw = loop.durations
    d = array("d", (t * calib.scale(k)
                    for t, k in zip(raw, loop.op_kernels())))
    rates = [work / (elapsed * (sum(d[a:b]) / sum(raw[a:b]) if b > a else 1))
             for elapsed, work, a, b in loop.segments]
    return {
        "attempted": loop.attempted, "failed": failed,
        "correct": correct, "messages": messages[:20],
        **({"work_per_s": statistics.median(rates),
            "op_p50_ms": _percentile(d, 50.0) * 1e3,
            "op_tail_ms": _percentile(d, spec.tail_pct) * 1e3,
            "unscaled": {
                "work_per_s": statistics.median(
                    w / e for e, w, *_ in loop.segments),
                "op_p50_ms": _percentile(raw, 50.0) * 1e3,
                "op_tail_ms": _percentile(raw, spec.tail_pct) * 1e3}}
           if raw else {}),
        "kernel_ms": statistics.median(loop.kernel_s) * 1e3,
        "ops_timed": len(d), "peak_rss_mb": peak,
    }


def mode_trace(name, seed):
    from spec import WORKLOADS
    spec = WORKLOADS[name]
    import_s = _import_program()
    import latrelay.cli as cli
    import tracer as tracing
    import workloads
    wl = workloads.make(name)
    tr = tracing.Tracer()
    tr.install()
    tr.op_id = tracing.SETUP
    t0 = time.perf_counter()
    state = wl.setup(seed)
    build_s = time.perf_counter() - t0
    tr.uninstall()

    # The same rounds untraced and traced, alternating round by round so
    # that both passes see the same machine state; their work rates give
    # the tracing overhead.
    plain, traced = Loop(wl, state), Loop(wl, state, tr)
    for _ in range(spec.trace_rounds):
        plain.run(rounds=1)
        tr.install()
        traced.run(rounds=1)
        tr.uninstall()
    tr.install()
    tr.op_id = tracing.CLI
    OUT.mkdir(exist_ok=True)
    cli_dir = OUT / f"cli_trace_{name}"
    t0 = time.perf_counter()
    codes = [cli.main([sub, "--config", str(HERE / spec.ini), "--seed",
                       str(seed), "--out", str(cli_dir), "--quiet"])
             for sub in spec.cli]
    command_s = time.perf_counter() - t0
    tr.uninstall()
    tr.write(OUT / f"trace_{name}.csv")

    failed_a, correct_a, msg_a = plain.check()
    failed_b, correct_b, msg_b = traced.check()
    correct = correct_a and correct_b and codes == [0] * len(codes)
    if any(codes):
        msg_b.append(f"in-process CLI exit codes {codes}")

    ops = traced.attempted
    s = tr.summary()

    def per_op(span, field):
        return s["ops"].get(span, [0, 0.0, 0.0, 0])[field] / ops

    def total(phase, span, field):
        return s[phase].get(span, [0, 0.0, 0.0, 0])[field]

    CALLS, TOTAL, SELF, QTY = 0, 1, 2, 3
    metrics = {}
    for span, fields in (
            ("lattice.nearest", ("calls", "self_ms")),
            ("lattice.nearest_many", ("calls", "rows", "self_ms")),
            ("lattice.mod", ("calls", "self_ms")),
            ("lattice.sample_voronoi", ("calls", "self_ms")),
            ("lattice.construct", ("calls", "self_ms")),
            ("lattice.enumerate_codebook", ("calls", "self_ms")),
            ("gf.rref", ("calls", "self_ms")),
            ("gf.all_codewords", ("rows",)),
            ("channel.simulate_p2p", ("self_ms",)),
            ("channel.trial_rng", ("calls", "self_ms")),
            ("channel.decoder_init", ("calls", "self_ms")),
            ("channel.decode", ("calls", "self_ms")),
            ("channel.unique_decode", ("calls",)),
            ("relay.df_round_trip", ("self_ms",)),
            ("twrc.twrc_round_trip", ("self_ms",)),
            ("twrc.sum_codeword", ("calls",)),
            ("twrc.bin_of_sum", ("calls",)),
            ("twrc.relay_decode_sum", ("self_ms",)),
            ("rates.gap_report", ("calls",)),
            ("rates.maximize_unimodal", ("calls", "evals", "self_ms")),
            ("rates.cutset", ("self_ms",)),
            ("rates.sample_twrc_params", ("self_ms",))):
        for field in fields:
            if field == "self_ms":
                metrics[f"{span}.self_ms"] = per_op(span, SELF) * 1e3
            elif field == "calls":
                metrics[f"{span}.calls"] = per_op(span, CALLS)
            else:                                   # rows, evals
                metrics[f"{span}.{field}"] = per_op(span, QTY)
    metrics["lattice.sample_voronoi.accept_ratio"] = tr.accept_ratio()
    # Blocks df_round_trip simulated: one destination list decode each.
    metrics["relay.blocks"] = tr.child_calls(
        "channel.decode", "relay.df_round_trip") / ops
    metrics["chain.build_chain.calls"] = total("setup", "chain.build_chain",
                                               CALLS)
    metrics["chain.pick_generator_rows.self_ms"] = total(
        "setup", "chain.pick_generator_rows", SELF) * 1e3
    metrics["chain.candidates_scored"] = total(
        "setup", "chain.shortest_vector_norm", CALLS)
    metrics["setup.import_ms"] = import_s * 1e3
    metrics["setup.build_ms"] = build_s * 1e3
    metrics["setup.second_moment_ms"] = total(
        "setup", "lattice.second_moment", TOTAL) * 1e3
    metrics["setup.construct_ms"] = total("setup", "lattice.construct",
                                          TOTAL) * 1e3
    metrics["cli.command_ms"] = command_s * 1e3
    metrics["cli.write_ms"] = total("cli", "cli.write", TOTAL) * 1e3
    metrics["svgplot.emit_plot_ms"] = total("cli", "svgplot.emit_plot",
                                            TOTAL) * 1e3
    metrics["trace.overhead_work_per_s"] = (
        traced.work / traced.elapsed - plain.work / plain.elapsed)
    return {"attempted": plain.attempted + traced.attempted,
            "failed": failed_a + failed_b, "correct": correct,
            "messages": (msg_a + msg_b)[:20], "per_layer": metrics,
            "spans": len(tr.spans)}


def main(argv):
    mode, name, seed = argv[1], argv[2], int(argv[3])
    sys.path.insert(0, str(HERE))
    if mode == "setup":
        out = mode_setup(name, seed)
    elif mode == "ops":
        out = mode_ops(name, seed)
    elif mode == "trace":
        out = mode_trace(name, seed)
    else:
        raise SystemExit(f"unknown mode {mode}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv))
