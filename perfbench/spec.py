"""Static description of the benchmark's workloads and metrics.

Kept free of numpy and latrelay imports so that the orchestrator
(``run.py``) and the steadiness command stay light; the fresh worker
process imports the program itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    tail_pct: float       # fixed percentile reported as op_tail_ms
    min_ops: int          # a run never stops before this many operations
    trace_rounds: int     # rounds in each pass of the traced run (fixed)
    cli: tuple            # latrelay subcommands timed for cli_s
    ini: str              # the benchmark's own config, relative to perfbench/


# min_ops = 10 / (1 - tail_pct / 100): the tail percentile is the highest
# that keeps at least ten operations beyond it at the minimum count.
WORKLOADS = {
    "p2p_n2": WorkloadSpec("p2p_n2", 90.0, 100, 10,
                           ("p2p-sim",), "configs/p2p_n2.ini"),
    "p2p_n8": WorkloadSpec("p2p_n8", 90.0, 100, 8,
                           ("p2p-sim",), "configs/p2p_n8.ini"),
    "block_markov": WorkloadSpec("block_markov", 90.0, 100, 24,
                                 ("relay-sim", "twrc-sim"),
                                 "configs/block_markov.ini"),
    "gap_batch": WorkloadSpec("gap_batch", 90.0, 100, 20,
                              ("gaps",), "configs/gap_batch.ini"),
}

# The operation phase runs in this many segments spread over the run;
# work_per_s is the median of the segments' work rates, so a burst of
# interference from other tenants of the machine moves one segment
# rather than the figure.
SEGMENTS = 10
# Fresh processes that each time import + set-up; setup_s is their
# trimmed mean (run.trimmed_mean).
SETUP_REPS = 7
# Fresh-process CLI repetitions; cli_s is their trimmed mean.
CLI_REPS = 7
