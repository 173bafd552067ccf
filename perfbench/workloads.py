"""The benchmark's four workloads: set-up, operations and output checks.

Every input is made here from the workload seed; latrelay receives only
the generated inputs. A workload runs in rounds (whole sweeps, whole
protocol pairs or whole draw batches), so a run always attempts the same
mix of operations. Program functions are called through their modules
(``channel.simulate_p2p``), which is where the tracer patches them.

Each output is checked as soon as its operation's timed interval ends:
``check_op`` returns a problem or None and keeps at most a few numbers
per operation in ``acc``, so what a run retains does not grow with the
size of the program's outputs. ``check`` then runs the checks that need
the whole operation phase (reference error rates, repeated runs) and
returns (per-operation problems, workload-level problems). An operation
whose output fails a check counts as failed; a workload-level problem
makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import math
from array import array

import numpy as np
from latrelay import chain, channel, rates, relay, twrc

import oracles

P_PRIME = 3


def derive(seed: int, *parts) -> int:
    """A 63-bit integer fixed by the workload seed and a label."""
    text = ":".join(str(x) for x in (seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(),
                          "little") >> 1


class P2P:
    """One operation is one point of a noise sweep: a simulate_p2p call
    of ``trials`` trials at p=3 with cubic (rank-0) shaping, P=1."""

    P = 1.0
    ORACLE_SAMPLES = 40_000      # Monte-Carlo samples per noise level

    def __init__(self, n: int, ranks, trials: int, noise, rows_seed=None):
        self.n, self.ranks, self.trials = n, tuple(ranks), trials
        self.noise = tuple(noise)
        self.rows_seed = rows_seed            # None: rows from workload seed

    def setup(self, seed: int):
        gamma = math.sqrt(12.0 * self.P) / P_PRIME
        rows_seed = (self.rows_seed if self.rows_seed is not None
                     else derive(seed, "rows") % 2**32)
        ch = chain.build_chain(P_PRIME, self.n, self.ranks, gamma=gamma,
                               seed=rows_seed)
        return {"seed": seed, "chain": ch, "gamma": gamma}

    def round_inputs(self, state, r: int):
        return [(N, derive(state["seed"], "p2p", r, j))
                for j, N in enumerate(self.noise)]

    def run(self, state, inp):
        N, op_seed = inp
        stats = channel.simulate_p2p(state["chain"],
                                     channel.AwgnParams(P=self.P, N=N),
                                     self.trials, op_seed, keep_log=True)
        return stats, self.trials

    def check_op(self, state, acc, index, inp, st):
        list_size = P_PRIME ** (self.ranks[2] - self.ranks[1])
        sizes = {entry[2] for entry in st.log}
        misses = sum(entry[3] for entry in st.log)
        if st.list_size != list_size or sizes != {list_size}:
            return f"list sizes {sizes}, expected {list_size}"
        if st.trials != self.trials or len(st.log) != self.trials:
            return f"{len(st.log)} trials logged of {self.trials}"
        if st.pe_hat != misses / self.trials:
            return f"pe_hat {st.pe_hat} != {misses}/{self.trials}"
        # (operation indices, error counts) per noise level, for check().
        ops, counts = acc.setdefault(inp[0], (array("q"), array("q")))
        ops.append(index)
        counts.append(misses)
        return None

    def check(self, state, acc):
        bad, problems = {}, []
        mid_rows = state["chain"].rows[:self.ranks[1]]
        for j, N in enumerate(self.noise):
            rng = np.random.default_rng(derive(state["seed"], "oracle", j))
            ref = oracles.outside_cell_rate(self.P, N, state["gamma"], P_PRIME,
                                            mid_rows, self.ORACLE_SAMPLES, rng)
            if not 0.0 < ref < 1.0:
                problems.append(f"N={N}: reference error rate {ref} is not "
                                "strictly between 0 and 1")
                continue
            ops, counts = acc.get(N, ((), ()))
            for i, misses in zip(ops, counts):
                if not oracles.binomial_agree(misses, self.trials, ref,
                                              self.ORACLE_SAMPLES):
                    bad[i] = (f"N={N}: pe_hat {misses / self.trials:.4f} "
                              f"disagrees with reference {ref:.4f}")
            total = sum(counts)
            if ops and not oracles.binomial_agree(
                    total, len(ops) * self.trials, ref, self.ORACLE_SAMPLES):
                problems.append(f"N={N}: pooled pe {total}/"
                                f"{len(ops) * self.trials} disagrees with "
                                f"reference {ref:.4f}")
        return bad, problems


# DF: R exceeds the direct link's capacity C(P/(N+NR)) = 1.47 bits, and the
# destination's list (size 3) is resolved with 9 bins.
DF_PARAMS = dict(P=4.0, PR=32.0, NR=0.02, N=0.58, alpha=0.5, B=20,
                 R=1.58, RR=1.58)
# TWRC: P1 > P2 gives Lambda_2 rank 1 (rejection-sampled dither and
# Monte-Carlo second moment); weak direct links give lists of 3.
TWRC_PARAMS = dict(P1=4.0, P2=1.0, PR=200.0, N1=1.0, N2=1.0, NR=0.01,
                   R1=1.58, R2=0.8, R=4.0, B=20)
BM_N = 2


class BlockMarkov:
    """One operation is a df_round_trip run followed by a twrc_round_trip
    run, each of B message blocks, on codebooks built once in set-up."""

    CHECK_RUNS = 2               # operations repeated under the recorder

    def __init__(self):
        self.df = relay.DegradedRelayParams(**DF_PARAMS)
        t = dict(TWRC_PARAMS)
        ch = rates.TwrcParams(P1=t.pop("P1"), P2=t.pop("P2"), PR=t.pop("PR"),
                              N1=t.pop("N1"), N2=t.pop("N2"), NR=t.pop("NR"))
        self.tw = twrc.TwrcSimParams(channel=ch, **t)

    def setup(self, seed: int):
        df_cbs = relay.build_df_codebooks(self.df, P_PRIME, BM_N,
                                          seed=seed % 2**31)
        tw_cbs = twrc.build_twrc_codebooks(self.tw, P_PRIME, BM_N,
                                           seed=seed % 2**31)
        return {"seed": seed, "df": df_cbs, "tw": tw_cbs}

    def round_inputs(self, state, r: int):
        return [(derive(state["seed"], "df", r), derive(state["seed"], "tw", r))]

    def run(self, state, inp):
        a = relay.df_round_trip(state["df"], self.df, inp[0], True)
        b = twrc.twrc_round_trip(state["tw"], self.tw, inp[1], True)
        return (a, b), self.df.B + self.tw.B

    def _static_problems(self, state):
        """Rates, list sizes and the list-decoding regime of the set-up."""
        df, tw, n = state["df"], state["tw"], BM_N
        problems = []
        lg = math.log2(P_PRIME)
        m = df.message_chain.ranks
        r_ = df.resolution_chain.ranks
        checks = [
            ("DF rate", df.rate_achieved, (m[2] - m[0]) * lg / n,
             math.log2(df.num_messages) / n),
            ("DF bin rate", df.bin_rate_achieved, (r_[1] - r_[0]) * lg / n,
             math.log2(df.num_bins) / n),
            ("TWRC rate 1", tw.rate1_achieved,
             (tw.lam_c1.k - tw.lam1.k) * lg / n, math.log2(len(tw.entries1)) / n),
            ("TWRC rate 2", tw.rate2_achieved,
             (tw.lam_c2.k - tw.lam2.k) * lg / n, math.log2(len(tw.entries2)) / n),
        ]
        for label, got, from_ranks, from_size in checks:
            if abs(got - from_ranks) > 1e-12 or abs(got - from_size) > 1e-9:
                problems.append(f"{label} {got} != dk log2 p / n = {from_ranks}"
                                f" (codebook gives {from_size})")
        direct = 0.5 * math.log2(1 + self.df.P / (self.df.N + self.df.NR))
        if not df.rate_achieved > direct:
            problems.append(f"DF rate {df.rate_achieved} does not exceed the "
                            f"direct link's capacity {direct}")
        if self._df_list(state) < 2 or min(self._tw_lists(state)) < 2:
            problems.append("lists hold a single codeword: no list decoding")
        if tw.lam2.k < 1:
            problems.append("Lambda_2 is cubic: no rejection-sampled dither")
        return problems

    @staticmethod
    def _df_list(state):
        m = state["df"].message_chain.ranks
        return P_PRIME ** (m[2] - m[1])

    @staticmethod
    def _tw_lists(state):
        tw = state["tw"]
        return (P_PRIME ** (tw.lam_c1.k - tw.lam_s1.k),
                P_PRIME ** (tw.lam_c2.k - tw.lam_s2.k))

    def _output_problem(self, state, out):
        a, b = out
        l_df = self._df_list(state)
        l1, l2 = self._tw_lists(state)
        if a.messages != self.df.B or len(a.transcript) != self.df.B:
            return "DF run did not report B blocks"
        if not 0 <= a.message_errors <= a.messages:
            return "DF error count out of range"
        if a.message_errors != sum(not rec.resolved_ok for rec in a.transcript):
            return "DF error count disagrees with its transcript"
        if any(rec.list_size != l_df for rec in a.transcript):
            return f"DF list size differs from {l_df}"
        if b.messages != self.tw.B or len(b.transcript) != self.tw.B:
            return "TWRC run did not report B blocks"
        if (b.errors_dir1 != sum(not r.resolve1_ok for r in b.transcript)
                or b.errors_dir2 != sum(not r.resolve2_ok for r in b.transcript)):
            return "TWRC error counts disagree with the transcript"
        if any((rec.list1_size, rec.list2_size) != (l1, l2)
               for rec in b.transcript):
            return f"TWRC list sizes differ from ({l1}, {l2})"
        return None

    def check_op(self, state, acc, index, inp, out):
        kept = acc.setdefault("kept", [])
        if len(kept) < self.CHECK_RUNS:
            kept.append((index, inp, out))
        return self._output_problem(state, out)

    def check(self, state, acc):
        bad, problems = {}, self._static_problems(state)
        # Re-run the first operations with the decoder recorded: the same
        # seed must give identical counts and transcripts, and every list
        # decode must match the brute-force list modulo the coarse lattice.
        for i, inp, out in acc.get("kept", ()):
            records = []
            original = channel.NestedListDecoder.decode

            def recording(dec, y_prime, truth=None):
                res = original(dec, y_prime, truth)
                records.append((dec, np.array(y_prime, dtype=float),
                                np.array(res.points)))
                return res
            channel.NestedListDecoder.decode = recording
            try:
                again, _ = self.run(state, inp)
            finally:
                channel.NestedListDecoder.decode = original
            if _summary(again) != _summary(out):
                bad[i] = "repeated run with the same seed differs"
                continue
            for dec, y, points in records:
                msg = _list_problem(dec, y, points)
                if msg:
                    bad[i] = msg
                    break
            if not records:
                problems.append("no list decodes recorded")
        return bad, problems


def _summary(out):
    a, b = out
    return ((a.messages, a.message_errors, a.relay_errors, a.bin_errors,
             [rec.csv_row() for rec in a.transcript]),
            (b.messages, b.errors_dir1, b.errors_dir2, b.sum_errors,
             [rec.csv_row() for rec in b.transcript]))


def _list_problem(dec, y, points):
    c, s, f = dec.coarse, dec.mid, dec.fine
    want = oracles.brute_list(y, f.gamma, f.p, c.rows, s.rows, f.rows)
    got = oracles.program_list_keys(points, f.gamma, f.p, c.rows)
    if len(points) != len(want) or got != want:
        return (f"list of {len(points)} ({sorted(got)}) != brute-force list "
                f"{sorted(want)} at y'={y.tolist()}")
    return None


class GapBatch:
    """One operation is one log-uniform parameter draw and its gap_report,
    alternating scenarios 1 and 2."""

    ROUND = 50

    def setup(self, seed: int):
        return {"seed": seed}

    def round_inputs(self, state, r: int):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=derive(state["seed"], "gaps"), spawn_key=(r,)))
        return [(1 + j % 2, rng) for j in range(self.ROUND)]

    def run(self, state, inp):
        scenario, rng = inp
        params = rates.sample_twrc_params(scenario, rng)
        return rates.gap_report(params, scenario), 1

    def check_op(self, state, acc, index, inp, rep):
        return _gap_problem(inp[0], rep)

    def check(self, state, acc):
        return {}, []


# The cut-set solvers search to 1e-9 in the argument; 1e-6 bits is far
# above that and far below any modelling difference.
OUTER_TOL = 1e-6


def _gap_problem(scenario, rep):
    q = rep.params
    if rep.scenario != scenario:
        return "scenario mislabelled"
    if scenario == 1:
        outer = (oracles.degraded_outer(q.P1, q.PR, q.NR, q.N2p),
                 oracles.degraded_outer(q.P2, q.PR, q.NR, q.N1p))
    else:
        outer = (oracles.general_outer(q.P1, q.PR, q.NR, q.N2),
                 oracles.general_outer(q.P2, q.PR, q.NR, q.N1))
    ach = (oracles.achievable(q.P1, q.P1, q.P2, q.PR, q.NR, q.N2),
           oracles.achievable(q.P2, q.P1, q.P2, q.PR, q.NR, q.N1))
    got_outer = (rep.outer.R1, rep.outer.R2)
    got_ach = (rep.achievable.R1, rep.achievable.R2)
    gaps = (rep.gap1, rep.gap2)
    cap = oracles.GAP_CAP[scenario]
    for u in range(2):
        if abs(got_outer[u] - outer[u]) > OUTER_TOL:
            return f"outer R{u + 1} {got_outer[u]} != crossing solve {outer[u]}"
        if abs(got_ach[u] - ach[u]) > 1e-12:
            return f"achievable R{u + 1} {got_ach[u]} != formula {ach[u]}"
        if abs(gaps[u] - (got_outer[u] - got_ach[u])) > 1e-12:
            return f"gap{u + 1} is not outer minus achievable"
        if not -1e-12 <= gaps[u] <= cap + OUTER_TOL:
            return f"gap{u + 1} = {gaps[u]} outside [0, {cap}]"
    return None


def make(name: str):
    if name == "p2p_n2":
        # The shipped example chain: rows from seed 0, ranks 0,1,2.
        return P2P(2, (0, 1, 2), trials=100, noise=(0.3, 0.45, 0.65, 0.9),
                   rows_seed=0)
    if name == "p2p_n8":
        return P2P(8, (0, 4, 6), trials=40, noise=(0.3, 0.4, 0.55, 0.75))
    if name == "block_markov":
        return BlockMarkov()
    if name == "gap_batch":
        return GapBatch()
    raise KeyError(name)
