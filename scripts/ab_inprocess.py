#!/usr/bin/env python3
"""Time two checkouts of latrelay on one benchmark workload in one
process, in alternating blocks.

    python3 scripts/ab_inprocess.py A B [--workload W] [--seed S]
                                    [--blocks K] [--rounds R]

A and B are checkout roots. Each side's ``src/latrelay`` is loaded as a
package of its own name, and each side gets its own copy of
``perfbench/workloads.py`` (read from this checkout, never written),
whose ``latrelay`` imports are bound to that side's package. Both sides
set the workload up from the same seed. Block b runs rounds b R to
(b + 1) R - 1 of the workload's operations on each side, the side that
goes first alternating from block to block, and times the block as a
whole. The script prints each side's median time per operation over the
blocks, the median over blocks of the ratio B / A, the number of blocks
each side was faster in, and the number of operations whose outputs the
two sides agree on, compared by value (``output_key``) after the timing.
It exits 1 when any operation's outputs differ, and 0 otherwise.

Interleaved blocks in one process see the same machine state, so the
sign of a few-percent difference shows through noise that moves whole
benchmark processes by much more.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import os
import statistics
import sys
import time
import types
from pathlib import Path

# One BLAS thread, as the benchmark's workers run (before numpy loads).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SUBMODULES = ("errors", "gf", "lattice", "chain", "channel", "rates",
              "relay", "twrc")


def load_package(root: Path, alias: str) -> types.ModuleType:
    """``root/src/latrelay`` imported as the package ``alias``, with its
    submodules loaded."""
    pkg_dir = Path(root).resolve() / "src" / "latrelay"
    spec = importlib.util.spec_from_file_location(
        alias, pkg_dir / "__init__.py",
        submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    for name in SUBMODULES:
        importlib.import_module(f"{alias}.{name}")
    return pkg


def bind_workloads(pkg: types.ModuleType, alias: str) -> types.ModuleType:
    """A fresh module run from ``perfbench/workloads.py`` whose
    ``latrelay`` imports resolve to ``pkg``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))   # its oracles module
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType(f"workloads_{alias}")
    module.__file__ = str(path)
    saved = sys.modules.get("latrelay")
    sys.modules["latrelay"] = pkg
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        if saved is None:
            del sys.modules["latrelay"]
        else:
            sys.modules["latrelay"] = saved
    return module


def output_key(workloads: types.ModuleType, name: str, out):
    """What an operation's output is compared by across the two sides,
    built of plain values so that records of the two packages compare:
    a p2p sweep point's CSV row and trial log, a block-Markov
    operation's counts and transcripts, a gap draw's rates, gaps and
    parameters."""
    if name.startswith("p2p"):
        return out.csv_row(), out.log
    if name == "block_markov":
        return workloads._summary(out)
    if name == "gap_batch":
        return ((out.achievable.R1, out.achievable.R2, out.outer.R1,
                 out.outer.R2, out.gap1, out.gap2),
                dataclasses.asdict(out.params))
    raise KeyError(name)


class Side:
    """One checkout's workload, set up, its block times and the keys of
    its outputs."""

    def __init__(self, root: Path, alias: str, workload: str, seed: int):
        self.root = root
        self.name = workload
        self.workloads = bind_workloads(load_package(root, alias), alias)
        self.wl = self.workloads.make(workload)
        self.state = self.wl.setup(seed)
        self.per_op: list[float] = []
        self.keys: list = []

    def run_block(self, first: int, rounds: int) -> float:
        """Run rounds first .. first + rounds - 1; record and return the
        seconds per operation, and keep each output's key."""
        wl, state = self.wl, self.state
        inputs = [inp for r in range(first, first + rounds)
                  for inp in wl.round_inputs(state, r)]
        outputs = []
        perf = time.perf_counter
        start = perf()
        for inp in inputs:
            outputs.append(wl.run(state, inp)[0])
        elapsed = (perf() - start) / len(inputs)
        self.per_op.append(elapsed)
        self.keys.extend(output_key(self.workloads, self.name, out)
                         for out in outputs)
        return elapsed


def compare(a: Side, b: Side, blocks: int, rounds: int) -> dict:
    """Alternating blocks of the same rounds on both sides."""
    for k in range(blocks):
        order = (a, b) if k % 2 == 0 else (b, a)
        for side in order:
            side.run_block(k * rounds, rounds)
    ratios = [tb / ta for ta, tb in zip(a.per_op, b.per_op)]
    return {"a_ms": statistics.median(a.per_op) * 1e3,
            "b_ms": statistics.median(b.per_op) * 1e3,
            "ratio": statistics.median(ratios),
            "b_wins": sum(r < 1.0 for r in ratios),
            "a_wins": sum(r > 1.0 for r in ratios),
            "ops": len(a.keys),
            "equal": sum(ka == kb for ka, kb in zip(a.keys, b.keys))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="checkout root of side A")
    ap.add_argument("b", type=Path, help="checkout root of side B")
    ap.add_argument("--workload", default="p2p_n2")
    ap.add_argument("--seed", type=int, default=9701)
    ap.add_argument("--blocks", type=int, default=40)
    ap.add_argument("--rounds", type=int, default=5,
                    help="rounds of the workload per side in each block")
    args = ap.parse_args(argv)
    if args.blocks < 1 or args.rounds < 1:
        ap.error("--blocks and --rounds must be >= 1")
    a = Side(args.a, "latrelay_ab_a", args.workload, args.seed)
    b = Side(args.b, "latrelay_ab_b", args.workload, args.seed)
    res = compare(a, b, args.blocks, args.rounds)
    print(f"workload {args.workload}, seed {args.seed}, {args.blocks} blocks "
          f"of {args.rounds} rounds per side")
    print(f"A {a.root}: median {res['a_ms']:.4f} ms/op")
    print(f"B {b.root}: median {res['b_ms']:.4f} ms/op")
    print(f"paired median B/A {res['ratio']:.4f} "
          f"({(res['ratio'] - 1) * 100:+.1f} %); B faster in "
          f"{res['b_wins']} of {args.blocks} blocks, A in {res['a_wins']}")
    print(f"outputs equal in {res['equal']} of {res['ops']} operations")
    return 0 if res["equal"] == res["ops"] else 1


if __name__ == "__main__":
    sys.exit(main())
