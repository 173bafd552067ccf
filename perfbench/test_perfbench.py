"""Smoke tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The oracles are checked on cases worked out by hand, each workload runs
a round or two through its own checks, and the tracer is checked for
coverage, exact repetition and clean removal. Temporary files go under
perfbench/out/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Loop  # noqa: E402


# --- oracles on hand-computed cases -------------------------------------

def test_z2_nearest_distance_and_cell():
    words = oracles.code_words(3, np.eye(2, dtype=int))      # all of Z^2
    assert len(words) == 9
    assert oracles.nearest_sq_dist([[0.4, 0.7]], 3, words)[0] == \
        pytest.approx(0.4 ** 2 + 0.3 ** 2)
    assert oracles.in_voronoi([[0.4, -0.2]], 3, words)[0]
    assert not oracles.in_voronoi([[0.6, 0.0]], 3, words)[0]


def test_coset_key_identifies_congruent_points():
    words = oracles.code_words(3, [[1, 1]])
    # (2,0) - (2,2) = (0,-2) = (0,1) mod 3, so both share the key (0,1).
    assert oracles.coset_key([2, 0], 3, words) == (0, 1)
    assert oracles.coset_key([0, 1], 3, words) == (0, 1)
    assert oracles.coset_key([1, 0], 3, words) != (0, 1)


def test_brute_list_one_dimension():
    # coarse = mid = 3Z, fine = Z: every fine point within 1.5 of y'.
    assert oracles.brute_list([0.2], 1.0, 3, np.zeros((0, 1), int),
                              np.zeros((0, 1), int), [[1]]) == \
        {(2,), (0,), (1,)}
    # mid = fine = Z: the list is the nearest integer alone.
    assert oracles.brute_list([0.2], 1.0, 3, np.zeros((0, 1), int),
                              [[1]], [[1]]) == {(0,)}


def test_brute_list_z2_strip():
    # fine = Z^2, mid = Z x 3Z, coarse = 3Z^2, y' = (0.2, 0.4): the cell
    # [-0.5,0.5) x [-1.5,1.5) around y' holds lambda = (0, -1), (0, 0), (0, 1).
    got = oracles.brute_list([0.2, 0.4], 1.0, 3, np.zeros((0, 2), int),
                             [[1, 0]], np.eye(2, dtype=int))
    assert got == {(0, 2), (0, 0), (0, 1)}


def test_brute_list_matches_example_chain_decoder():
    from latrelay import build_chain
    from latrelay.channel import NestedListDecoder
    ch = build_chain(3, 2, [0, 1, 2], gamma=1.0, seed=0)
    dec = NestedListDecoder(ch[0], ch[1], ch[2])
    rng = np.random.default_rng(5)
    for y in rng.uniform(-1.5, 1.5, size=(50, 2)):
        res = dec.decode(y)
        want = oracles.brute_list(y, 1.0, 3, ch[0].rows, ch[1].rows,
                                  ch[2].rows)
        assert len(want) == 3
        assert oracles.program_list_keys(res.points, 1.0, 3,
                                         ch[0].rows) == want


def test_outside_cell_rate_one_dimension():
    # n=1, coarse 3gZ, mid gZ: Z' = W mod 3g with W = -(1-a)X + aZ and
    # X ~ U[-1.5g, 1.5g]; integrate Pr(|Z'| <= g/2) directly.
    P, N, p = 1.0, 1.0, 3
    g = math.sqrt(12 * P) / p
    a = P / (P + N)
    L, h, s = p * g, g / 2, a * math.sqrt(N)
    xs = (np.arange(20_000) + 0.5) / 20_000 * L - L / 2

    def cdf(v):
        return 0.5 * (1 + np.vectorize(math.erf)(v / (s * math.sqrt(2))))
    inside = sum(np.mean(cdf(k * L + h + (1 - a) * xs)
                         - cdf(k * L - h + (1 - a) * xs)) for k in range(-4, 5))
    rate = oracles.outside_cell_rate(P, N, g, p, [[1]], 200_000,
                                     np.random.default_rng(0))
    assert rate == pytest.approx(1 - inside, abs=0.005)


def test_outer_bounds_hand_cases_and_grid():
    # Pi = PR = NR = N_other = 1: both cuts equal C(2) at rho = 0.
    assert oracles.general_outer(1, 1, 1, 1) == pytest.approx(
        0.5 * math.log2(3))
    # PR = 0: the degraded bound is min(C(a), C(1)), largest at a = 1.
    assert oracles.degraded_outer(1, 0, 1, 0) == pytest.approx(0.5)
    grid = np.linspace(0, 1, 200_001)
    rng = np.random.default_rng(1)
    for Pi, PR, NR, No in np.exp(rng.uniform(-4, 4, size=(20, 4))):
        c = lambda x: 0.5 * np.log2(1 + x)              # noqa: E731
        deg = np.max(np.minimum(
            c(grid * Pi / NR),
            c((Pi + PR + 2 * np.sqrt((1 - grid) * Pi * PR)) / (No + NR))))
        gen = np.max(np.minimum(
            c(Pi * (1 - grid ** 2) * (1 / NR + 1 / No)),
            c((Pi + PR + 2 * grid * np.sqrt(Pi * PR)) / No)))
        assert oracles.degraded_outer(Pi, PR, NR, No) == pytest.approx(
            deg, abs=1e-4)
        assert oracles.general_outer(Pi, PR, NR, No) == pytest.approx(
            gen, abs=1e-4)


def test_achievable_formula_hand_case():
    # Pi/(P1+P2) + Pi/NR = 1/2 + 1 = 1.5; the broadcast term C(2) is larger.
    assert oracles.achievable(1, 1, 1, 1, 1, 1) == pytest.approx(
        0.5 * math.log2(1.5))


# --- every workload runs and passes its checks ----------------------------

@pytest.mark.parametrize("name,rounds", [("p2p_n2", 1), ("p2p_n8", 1),
                                         ("block_markov", 2),
                                         ("gap_batch", 2)])
def test_workload_tiny_run(name, rounds):
    wl = workloads.make(name)
    state = wl.setup(3)
    loop = Loop(wl, state).run(rounds=rounds)
    failed, correct, messages = loop.check()
    assert loop.attempted > 0 and loop.work > 0
    assert failed == 0 and correct, messages


def test_checks_catch_a_wrong_gap():
    from dataclasses import replace
    wl = workloads.make("gap_batch")
    state = wl.setup(1)
    inp = wl.round_inputs(state, 0)[0]
    rep, _ = wl.run(state, inp)
    assert wl.check_op(state, {}, 0, inp, rep) is None
    assert wl.check_op(state, {}, 0, inp, replace(rep, gap1=rep.gap1 + 1e-3))


def test_loop_keeps_no_outputs():
    # What a run retains must not grow with the outputs: gap_batch keeps
    # nothing per operation, block_markov only its first CHECK_RUNS.
    gap = Loop(workloads.make("gap_batch"), {"seed": 1}).run(rounds=2)
    assert gap.acc == {} and len(gap.durations) == gap.attempted
    wl = workloads.make("block_markov")
    bm = Loop(wl, wl.setup(1)).run(rounds=wl.CHECK_RUNS + 1)
    assert len(bm.acc["kept"]) == wl.CHECK_RUNS


def test_calibrated_loop_brackets_every_operation():
    import calib
    wl = workloads.make("p2p_n2")
    loop = Loop(wl, wl.setup(1), calibrate=True).run(rounds=1).run(rounds=1)
    assert [s[1:] for s in loop.segments] == [(400, 0, 4), (400, 4, 8)]
    # A timing at each segment's start and end, and one after each
    # operation longer than KERNEL_EVERY.
    assert list(loop.kernel_pos)[:2] == [0, 1] and loop.kernel_pos[-1] == 8
    ks = loop.op_kernels()
    assert len(ks) == 8 and min(ks) > 0
    assert ks[0] == (loop.kernel_s[0] + loop.kernel_s[1]) / 2
    assert calib.scale(calib.REF_S) == 1.0
    assert calib.scale(2 * calib.REF_S) == 0.5


# --- tracer --------------------------------------------------------------

def _traced_counts(name, seed):
    wl = workloads.make(name)
    state = wl.setup(seed)
    tr = tracing.Tracer()
    tr.install()
    try:
        Loop(wl, state, tr).run(rounds=1)
    finally:
        tr.uninstall()
    return {k: v[0] for k, v in tr.summary()["ops"].items()}, tr


def test_tracer_covers_layers_and_repeats():
    import latrelay.channel as channel
    import latrelay.relay as relay
    original = channel.trial_rng
    a, tr = _traced_counts("block_markov", 2)
    b, _ = _traced_counts("block_markov", 2)
    assert a == b
    for span in ("lattice.nearest", "lattice.sample_voronoi", "channel.decode",
                 "channel.trial_rng", "channel.unique_decode",
                 "relay.df_round_trip", "twrc.twrc_round_trip",
                 "twrc.sum_codeword", "lattice.construct", "gf.rref"):
        assert a.get(span, 0) > 0, span
    assert 0 < tr.accept_ratio() < 1          # Lambda_2 is not cubic
    # One destination list decode per DF block: B message blocks + flush.
    wl = workloads.make("block_markov")
    assert tr.child_calls("channel.decode", "relay.df_round_trip") == \
        wl.df.B + 1
    assert channel.trial_rng is original and relay.trial_rng is original


def test_tracer_self_time_excludes_children():
    a, tr = _traced_counts("p2p_n2", 1)
    s = tr.summary()["ops"]
    for calls, total, self_time, _ in s.values():
        assert 0 <= self_time <= total + 1e-9
    assert s["channel.simulate_p2p"][2] < s["channel.simulate_p2p"][1]


# --- the command itself ----------------------------------------------------

def _bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench(ROOT, "--workload", "gap_batch", "--seed", "2",
                  "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert res["correct"] and res["failed"] == 0


def test_fails_without_the_program_source():
    bare = HERE / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copytree(HERE / "configs", bare / "perfbench" / "configs")
    try:
        proc = _bench(bare, "--workload", "p2p_n2", "--seed", "1",
                      "--seconds", "1", "--trace", "0", timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
