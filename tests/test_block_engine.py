"""The block-batched DF and TWRC engines against per-block references.

``block_reference`` runs each protocol one block at a time through the
single-vector lattice operations; the engines must give the same counts
and transcripts, record for record, and each batched protocol map must
equal its one-vector reference row by row. Each kind of random draw is
one stream laid out by block, so a run's draws and transcript are a
prefix of a longer run's. The CLI outputs on the shipped example config
are pinned to hashes.
"""

import dataclasses
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from latrelay import channel, gf, twrc
from latrelay.chain import build_chain
from latrelay.channel import (
    STREAM_KEYS,
    NestedListDecoder,
    block_draws,
    effective_noise,
    encode_dithered,
    receiver_front_end,
    trial_rng,
    unique_decode,
)
from latrelay.cli import main
from latrelay.errors import DimensionMismatch, NotACodeword
from latrelay.lattice import (
    GRID_TOL,
    Codebook,
    ConstructionALattice,
    cubic_gamma,
)
from latrelay.rates import TwrcParams
from latrelay.relay import (
    DegradedRelayParams,
    build_df_codebooks,
    df_round_trip,
)
from latrelay.twrc import (
    TwrcSimParams,
    build_twrc_codebooks,
    relay_decode_sum,
    sum_codeword,
    twrc_round_trip,
)
import block_reference as ref
from block_reference import df_reference, twrc_reference
from conftest import (
    message_index_oracle,
    non_prefix_pairs,
    recover_t1_from_sum,
    recover_t2_from_sum,
    shift_rescan_decode,
)

SEEDS = range(50)

# The benchmark's block_markov operating points (perfbench/workloads.py).
DF_BM = dict(P=4.0, PR=32.0, NR=0.02, N=0.58, alpha=0.5, B=20,
             R=1.58, RR=1.58)
TWRC_BM = dict(P1=4.0, P2=1.0, PR=200.0, N1=1.0, N2=1.0, NR=0.01,
               R1=1.58, R2=0.8, R=4.0, B=20)


def _at_least_one_per_run(field):
    """The runs count at least as many ``field`` events as there are runs."""
    return lambda runs: sum(getattr(r, field) for r in runs) >= len(runs)


# name: (params, p, n, codebook seed, what the runs must show)
DF_POINTS = {
    "block_markov": (DF_BM, 3, 2, 0, None),
    "relay_misses": (dict(DF_BM, NR=0.6), 3, 2, 0,
                     _at_least_one_per_run("relay_errors")),
    "noiseless": (dict(P=2.0, PR=50.0, NR=1e-12, N=1e-12, alpha=0.3, B=10,
                       R=0.7, RR=0.7), 5, 2, 1,
                  lambda runs: all(r.message_errors == r.relay_errors
                                   == r.bin_errors == 0 for r in runs)),
}
TWRC_POINTS = {
    "block_markov": (TWRC_BM, 3, 2, 0, None),
    "sum_errors": (dict(TWRC_BM, NR=0.5), 3, 2, 0,
                   _at_least_one_per_run("sum_errors")),
    "noiseless": (dict(P1=4.0, P2=4.0, PR=200.0, N1=1e-12, N2=1e-12,
                       NR=1e-12, R1=0.8, R2=0.8, R=3.0, B=10), 3, 2, 1,
                  lambda runs: all(r.errors_dir1 == r.errors_dir2
                                   == r.sum_errors == 0 for r in runs)),
}


# The FOUND case of CHANGES.md on TWRC losses: a rank-1 (non-cubic)
# Lambda_2 and noiseless links.
TWRC_FOUND = dict(P1=4.0, P2=1.0, PR=200.0, N1=1e-12, N2=1e-12, NR=1e-12,
                  R1=0.8, R2=0.8, R=4.0, B=10)


def _twrc_params(d):
    d = dict(d)
    ch = TwrcParams(**{k: d.pop(k) for k in ("P1", "P2", "PR", "N1", "N2",
                                              "NR")})
    return TwrcSimParams(channel=ch, **d)


def _df_summary(r):
    return (r.messages, r.message_errors, r.relay_errors, r.bin_errors,
            [rec.csv_row() for rec in r.transcript])


def _twrc_summary(r):
    return (r.messages, r.errors_dir1, r.errors_dir2, r.sum_errors,
            [rec.csv_row() for rec in r.transcript])


@pytest.mark.parametrize("point", sorted(DF_POINTS))
def test_df_engine_matches_reference(point):
    d, p, n, cb_seed, shows = DF_POINTS[point]
    params = DegradedRelayParams(**d)
    cbs = build_df_codebooks(params, p, n, seed=cb_seed)
    runs = [df_round_trip(cbs, params, seed) for seed in SEEDS]
    for seed, got in zip(SEEDS, runs):
        assert _df_summary(got) == _df_summary(df_reference(cbs, params, seed))
    assert shows is None or shows(runs)


@pytest.mark.parametrize("point", sorted(TWRC_POINTS))
def test_twrc_engine_matches_reference(point):
    d, p, n, cb_seed, shows = TWRC_POINTS[point]
    params = _twrc_params(d)
    cbs = build_twrc_codebooks(params, p, n, seed=cb_seed,
                               enforce_broadcast_rate=False)
    runs = [twrc_round_trip(cbs, params, seed) for seed in SEEDS]
    for seed, got in zip(SEEDS, runs):
        assert _twrc_summary(got) == _twrc_summary(
            twrc_reference(cbs, params, seed))
    assert shows is None or shows(runs)


def _list_decoders(kind, point):
    """(decoder, message codebook) pairs of the DF or TWRC list decodes:
    the decoders the engines use."""
    if kind == "df":
        d, p, n, cb_seed, _ = DF_POINTS[point]
        cbs = build_df_codebooks(DegradedRelayParams(**d), p, n, seed=cb_seed)
        return [(cbs.message_chain.list_decoder,
                 cbs.message_chain.codebook.points)]
    d, p, n, cb_seed, _ = (TWRC_POINTS[point] if point != "found"
                           else (TWRC_FOUND, 3, 2, 0, None))
    cbs = build_twrc_codebooks(_twrc_params(d), p, n, seed=cb_seed,
                               enforce_broadcast_rate=False)
    if point == "found":
        assert cbs.lam2.k >= 1
    return [(cbs.dec1, cbs.entries1), (cbs.dec2, cbs.entries2)]


def test_round_trips_build_no_decoder(decoder_builds, monkeypatch):
    d, p, n, cb_seed, _ = DF_POINTS["block_markov"]
    df_params = DegradedRelayParams(**d)
    df_cbs = build_df_codebooks(df_params, p, n, seed=cb_seed)
    d, p, n, cb_seed, _ = TWRC_POINTS["block_markov"]
    tw_params = _twrc_params(d)
    tw_cbs = build_twrc_codebooks(tw_params, p, n, seed=cb_seed)
    # DF's message decoder, which owns the message codebook, then dec1 and
    # dec2.
    assert len(decoder_builds) == 3
    dec = df_cbs.message_chain.list_decoder
    assert tw_cbs.entries1 is tw_cbs.dec1.codebook.points
    assert tw_cbs.entries2 is tw_cbs.dec2.codebook.points
    # Nor does a run build a lattice: DF's kappa-scaled bin-decode pair is
    # built with its codebooks.
    lattice_builds = []
    original = ConstructionALattice.__init__

    def counting(self, *args, **kwargs):
        lattice_builds.append(self)
        original(self, *args, **kwargs)
    monkeypatch.setattr(ConstructionALattice, "__init__", counting)
    for seed in range(3):
        df_round_trip(df_cbs, df_params, seed)
        twrc_round_trip(tw_cbs, tw_params, seed)
    assert len(decoder_builds) == 3 and not lattice_builds
    assert df_cbs.message_chain.list_decoder is dec


@pytest.mark.parametrize(
    "kind, point",
    [("df", pt) for pt in sorted(DF_POINTS)]
    + [("twrc", pt) for pt in sorted(TWRC_POINTS) + ["found"]])
def test_list_members_are_codebook_rows(kind, point):
    # The engines resolve a block by comparing the message indices of its
    # list, with no point tolerance. Those indices are the class table's;
    # each must be nonzero and equal the codebook row that the
    # shift-and-rescan reference's member, reduced mod the coarse lattice
    # by its own direct scan, finds in the message codebook.
    rng = np.random.default_rng(0)
    for dec, entries in _list_decoders(kind, point):
        c, n = dec.coarse, dec.coarse.n
        g, half = c.gamma, c.gamma * c.p / 2
        Y = np.vstack([_half_grid(g), rng.uniform(-half, half, size=(2000, n))])
        members = shift_rescan_decode(Y, c, dec.mid, dec.fine)
        want = message_index_oracle(entries, members.reshape(-1, n), g)
        assert np.all(want > 0)
        assert np.array_equal(dec.decode_many(Y),
                              want.reshape(len(Y), dec.list_size))


@pytest.mark.parametrize("kind", ["df", "twrc"])
def test_one_row_decode_is_the_batch_row(kind):
    # decode runs the scan on one row by itself, on views its table keeps;
    # its indices must be row 0 of decode_many of that row, on the tie
    # grid and on random rows, through the engines' own decoders.
    rng = np.random.default_rng(1)
    for dec, _ in _list_decoders(kind, "block_markov"):
        c, n = dec.coarse, dec.coarse.n
        half = c.gamma * c.p / 2
        Y = np.vstack([_half_grid(c.gamma),
                       rng.uniform(-half, half, size=(300, n))])
        for y in Y:
            got = dec.decode(y).indices
            assert got.shape == (dec.list_size,)
            assert np.array_equal(got, dec.decode_many(y[None])[0])
        with pytest.raises(DimensionMismatch):
            dec.decode(Y[:1])


@pytest.mark.parametrize("point", ["block_markov", "found"])
def test_round_trip_shares_q2(monkeypatch, point):
    # twrc_round_trip computes Q2(t2 + U2) once, for X2 and the sum T; on
    # the draws of its own runs, the relay's input X1 + X2 + ZR and the
    # true sum must be, bit for bit, what lam2.mod_many(t2 + U2) and
    # sum_codeword give.
    d = TWRC_BM if point == "block_markov" else TWRC_FOUND
    params = _twrc_params(d)
    cbs = build_twrc_codebooks(params, 3, 2, seed=0,
                               enforce_broadcast_rate=False)
    lam1, lam2, ch, B = cbs.lam1, cbs.lam2, params.channel, params.B
    assert lam2.k >= 1
    relay_in, relay_out, indexed = [], [], []
    decode_sum, index = twrc.relay_decode_sum, cbs.sum_codebook.index

    def recording_decode(YR, *args):
        relay_in.append(YR)
        relay_out.append(decode_sum(YR, *args))
        return relay_out[-1]

    def recording_index(T):
        indexed.append(T)
        return index(T)
    monkeypatch.setattr(twrc, "relay_decode_sum", recording_decode)
    monkeypatch.setattr(cbs.sum_codebook, "index", recording_index)
    for seed in range(5):
        indexed.clear()
        twrc_round_trip(cbs, params, seed)
        (w1, w2), (U1, U2), (ZR, _, _) = block_draws(
            seed, B, (len(cbs.entries1), len(cbs.entries2)), (lam1, lam2),
            (ch.NR, ch.N1, ch.N2))
        t1, t2 = cbs.entries1[w1 - 1], cbs.entries2[w2 - 1]
        X1 = lam1.mod_many(t1 - U1)
        assert np.array_equal(relay_in[-1],
                              X1 + lam2.mod_many(t2 + U2) + ZR)
        # The sums indexed per block: the relay's decode, then the truth.
        T_hat, T_true = [T for T in indexed if len(T) == B + 1]
        assert T_hat is relay_out[-1]
        assert np.array_equal(T_true, sum_codeword(t1, t2, U2, lam1, lam2))


def test_zero_sum_index_raises(monkeypatch, bm_codebooks):
    # A bin is read by a sum's index; index 0 (no sum codeword) raises,
    # in bin_of_index and in a round trip whose relay decodes no sum.
    cbs = bm_codebooks
    assert np.array_equal(cbs.bin_of_index(np.array([1, 2])),
                          cbs.bin_table[:2])
    with pytest.raises(NotACodeword):
        cbs.bin_of_index(np.array([1, 0]))
    monkeypatch.setattr(twrc, "relay_decode_sum",
                        lambda *args: np.full((21, 2), np.nan))
    with pytest.raises(NotACodeword):
        twrc_round_trip(cbs, _twrc_params(TWRC_BM), 0)


def _draw_args(kind):
    """The codebooks, params and ``block_draws`` arguments (message
    codebook sizes, dither lattices, noise variances) of the benchmark's
    DF or TWRC point."""
    if kind == "df":
        params = DegradedRelayParams(**DF_BM)
        cbs = build_df_codebooks(params, 3, 2, seed=0)
        return cbs, params, ((cbs.num_messages,), (cbs.message_chain[0],
                              cbs.resolution_chain[0]), (params.NR, params.N))
    params = _twrc_params(TWRC_BM)
    cbs = build_twrc_codebooks(params, 3, 2, seed=0)
    ch = params.channel
    return cbs, params, ((len(cbs.entries1), len(cbs.entries2)),
                         (cbs.lam1, cbs.lam2), (ch.NR, ch.N1, ch.N2))


ROUND_TRIP = {"df": df_round_trip, "twrc": twrc_round_trip}


@pytest.mark.parametrize("kind", ["df", "twrc"])
def test_cubic_dithers_match_rejection_draws(kind):
    # block_draws draws every dither as one box draw for the whole run,
    # reduced mod the lattice; the reference draws the same rows one block
    # at a time, each reduced by Lattice.mod. Messages and noises match
    # their one-block-at-a-time draws too. A cubic lattice's rows are the
    # rows that sequential sample_voronoi calls on the same kind stream
    # accept at once (DF's U1 and U2, TWRC's U1). TWRC's U2 (rank 1) would
    # reject, so its rows are checked to lie in the cell: nearest point 0.
    _, _, (sizes, lattices, noise) = _draw_args(kind)
    assert [lat.k for lat in lattices] == ([0, 0] if kind == "df" else [0, 1])
    for seed in range(20):
        got = block_draws(seed, 20, sizes, lattices, noise)
        want = ref.block_draws(seed, 20, sizes, lattices, noise)
        assert [len(g) for g in got] == [len(w) for w in want] == \
            [len(sizes), len(lattices), len(noise)]
        for a, b in zip(itertools.chain(*got), itertools.chain(*want)):
            assert a.shape[0] == 21 and np.array_equal(a, b)
        for lat, key, U in zip(lattices, STREAM_KEYS["dithers"], got[1]):
            if lat.k == 0:
                rng = trial_rng(seed, key)
                assert np.array_equal(U, [lat.sample_voronoi(rng)
                                          for _ in range(21)])
            else:
                assert not any(lat.nearest(u).any() for u in U)


@pytest.mark.parametrize("kind", ["df", "twrc"])
def test_draws_and_transcripts_are_prefixes(kind):
    # Each kind of draw is one stream laid out by block, so block b's
    # draws do not depend on B: a 5-block run's are the first rows of a
    # 12-block run's, the rank-1 dither included, and so is its
    # transcript but for its last record, which the flush block resolves.
    cbs, params, args = _draw_args(kind)
    short, long_ = (block_draws(3, B, *args) for B in (5, 12))
    for a, b in zip(short[0], long_[0]):
        assert np.array_equal(a[:5], b[:5]) and a[5] == 1
    for a, b in zip(itertools.chain(*short[1:]), itertools.chain(*long_[1:])):
        assert np.array_equal(a, b[:6])
    run = ROUND_TRIP[kind]
    records = [[rec.csv_row() for rec in run(
        cbs, dataclasses.replace(params, B=B), 3).transcript] for B in (5, 12)]
    assert records[0][:-1] == records[1][:4]


@pytest.mark.parametrize("B", [2, 30])
def test_one_generator_per_kind_of_draw(monkeypatch, B):
    # DF draws w, U1, U2, ZR, Z2' and TWRC w1, w2, U1, U2, ZR, Z1, Z2, each
    # from one generator per run, however many blocks it has.
    built = []

    def counting(seed, key):
        built.append(key)
        return trial_rng(seed, key)
    monkeypatch.setattr(channel, "trial_rng", counting)
    for kind, want in (("df", 5), ("twrc", 7)):
        cbs, params, _ = _draw_args(kind)
        built.clear()
        ROUND_TRIP[kind](cbs, dataclasses.replace(params, B=B), 0)
        assert len(built) == len(set(built)) == want, kind


def test_stream_keys_are_disjoint():
    # Every stream keyed with a run or codebook seed has its own spawn key,
    # so no kind of block draw can replay the bins, the TWRC relay
    # codebook or the gap draws.
    keys = list(np.hstack(list(STREAM_KEYS.values())))
    assert (STREAM_KEYS["bins"], STREAM_KEYS["relay_codebook"],
            STREAM_KEYS["gaps"]) == (0xB1A5, 0xC0DE, 0x6A9)
    assert len(keys) == len(set(keys)) == 10


# sha256 of each output of `p2p-sim`, `relay-sim` and `twrc-sim` on
# scripts/configs/example.ini: p2p.csv taken from the shift-and-rescan list
# decoder, the relay and TWRC files from the engines with one stream per
# kind of draw, which the per-block references above reproduce.
# (twrc_summary.csv counts no error on this config, so it is also the file
# of the earlier one-stream-per-block layout.)
EXAMPLE = Path(__file__).resolve().parents[1] / "scripts/configs/example.ini"
PINNED = {
    0: {"p2p.csv": "984fa9b5f6bca25ce698040890c6d097"
                   "1160f6c7c9a44a56549e54ac930b79b9",
        "relay_blocks.csv": "5a9951b598f9f119250e25d5346341c2"
                            "8bc8b44af55a4f610092ec18e078bd24",
        "relay_summary.csv": "75146fd8f8fa3df0c05064b298a8306f"
                             "94dff6faf68330a5925ab7b8ec41d1b8",
        "twrc_blocks.csv": "ab863d8dcf8aa25f8b6f41e7013477a1"
                           "2616e3357bd7a7a5101d256fc897b4f7",
        "twrc_summary.csv": "b30448375b46d0acf72675472234a3e9"
                            "b2fd588c9a5e059eadef4da12dff8f64"},
    3: {"p2p.csv": "d99b0462f8d0df80940e235a1deb3caf"
                   "b9532496811e4f8f91671a58a1607135",
        "relay_blocks.csv": "3ba425fb3ce95ee78753647bc0f4bbd7"
                            "e1b865209ac39a31d1cb8d5cd76a002f",
        "relay_summary.csv": "cad04061a399bb3c0300613c5e1aa12e"
                             "95eff4f404936e032cc46d03d217b12e",
        "twrc_blocks.csv": "92dd62f1555c2dab020620f00f5e6f86"
                           "186ad48a6683ea3683fef2be1f9611a7",
        "twrc_summary.csv": "20e0d51454491c264730eb7e224272726"
                            "bc2e21faddab322d17c283c5edd8854"},
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_example_cli_outputs_pinned(tmp_path, seed):
    for command in ("p2p-sim", "relay-sim", "twrc-sim"):
        assert main([command, "--config", str(EXAMPLE), "--seed", str(seed),
                     "--out", str(tmp_path), "--quiet"]) == 0
    for name, digest in PINNED[seed].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


# sha256 of `twrc-sim`'s outputs at the benchmark's TWRC point, whose
# Lambda_2 has rank 1: its dither is one draw_cell cube draw reduced mod
# Lambda_2 and its power is second_moment's fixed quadrature of the cell.
BM_PINNED = {
    0: {"twrc_blocks.csv": "7555a20a0c20d797c727efc7eb1ad912"
                           "bff7aa537045af6523908ceadc7ec1a2",
        "twrc_summary.csv": "996fc1e4cf26d52069b6ae59e6ae9877"
                            "05c16ab6f0b6f633af5ecd17170587a1"},
    3: {"twrc_blocks.csv": "760a9d8299d07fa1e4ed46916323608c"
                           "d1c5d6c6810c186cbe48cc527c0e34ad",
        "twrc_summary.csv": "f38c8fa0ae14877e78eb4b100bbb62a6"
                            "4bc532a973cabcd31e9cf56940af7549"},
}


@pytest.mark.parametrize("seed", sorted(BM_PINNED))
def test_rank_one_twrc_outputs_pinned(tmp_path, seed):
    config = tmp_path / "twrc.ini"
    config.write_text("[twrc-sim]\n" + "".join(
        f"{key} = {value}\n"
        for key, value in dict(TWRC_BM, p=3, n=2, runs=2).items()))
    assert main(["twrc-sim", "--config", str(config), "--seed", str(seed),
                 "--out", str(tmp_path), "--quiet"]) == 0
    for name, digest in BM_PINNED[seed].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


# sha256 over the bytes of codebooks and list decoders: each codebook's
# points and the classes of its fine code's codewords in gf.all_codewords'
# order, each decoder's reps and the classes of its scan's columns. They
# cover every pair and triple of fixed chains, the non-prefix pairs, the
# block_markov DF and TWRC set-ups (Lambda_2 of rank 1) and the p2p
# benchmark chains.
CODEBOOK_BYTES = ("18238bfba2a2e29ae3d36c765685c93f"
                  "ccff564fe21fbad3739def2a583fd7d0")


def test_codebook_bytes_pinned():
    h = hashlib.sha256()

    def put(a, dtype):
        a = np.ascontiguousarray(a, dtype=dtype)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())

    def put_book(book, fine):
        put(book.points, np.float64)
        put(book.classes(gf.all_codewords(fine.rows, fine.p)), np.int64)

    def put_decoder(dec):
        put_book(dec.codebook, dec.fine)
        put(dec.reps, np.float64)
        if dec.list_size > 1:
            put(dec._scan.classes, np.int64)

    for p, n, gamma in ((2, 4, 1.3), (3, 3, 1.0), (5, 2, 0.37), (7, 2, 0.99),
                        (3, 5, 0.5)):
        ch = build_chain(p, n, list(range(n + 1)), gamma=gamma, seed=4)
        for i, j in itertools.combinations_with_replacement(range(n + 1), 2):
            put_book(Codebook(ch[i], ch[j]), ch[j])
        for i, j, k in itertools.combinations_with_replacement(
                range(n + 1), 3):
            put_decoder(NestedListDecoder(ch[i], ch[j], ch[k]))
    for coarse, fine in non_prefix_pairs():
        put_book(Codebook(coarse, fine), fine)
    for seed in (0, 1, 2):
        df = build_df_codebooks(DegradedRelayParams(**DF_BM), 3, 2, seed=seed)
        put_decoder(df.message_chain.list_decoder)
        put_book(df.resolution_codebook, df.resolution_chain[1])
        tw = build_twrc_codebooks(_twrc_params(TWRC_BM), 3, 2, seed=seed)
        assert tw.lam2.k == 1
        put_decoder(tw.dec1)
        put_decoder(tw.dec2)
        put_book(tw.sum_codebook, max(tw.lam_c1, tw.lam_c2, key=lambda l: l.k))
    gamma = cubic_gamma(3, 1.0)
    put_decoder(build_chain(3, 2, [0, 1, 2], gamma=gamma, seed=0).list_decoder)
    for seed in (1, 2):
        put_decoder(build_chain(3, 8, [0, 4, 6], gamma=gamma,
                                seed=seed).list_decoder)
    assert h.hexdigest() == CODEBOOK_BYTES

# --- batch-only protocol maps ---------------------------------------------

def _half_grid(gamma=1.0):
    """The 169 points of the half-integer grid on [-3, 3]^2: many are ties
    between lattice points."""
    g = np.arange(-6, 7) / 2.0
    return gamma * np.array(list(itertools.product(g, g)))


def _batch_matches_reference(fn, reference, arrays, *args):
    """fn on the batches equals its one-vector reference row by row, bit
    for bit; ``args`` go to both."""
    batch = fn(*arrays, *args)
    assert np.array_equal(batch, np.array(
        [reference(*row, *args) for row in zip(*arrays)]))
    return batch


def test_unique_decode_batch_matches_single():
    coarse = ConstructionALattice(3, [[1, 1]], n=2)
    fine = ConstructionALattice(3, [[1, 1], [0, 1]], n=2)
    rng = np.random.default_rng(0)
    Y = np.vstack([_half_grid(), rng.uniform(-4, 4, size=(200, 2))])
    _batch_matches_reference(unique_decode, ref.unique_decode, (Y,),
                             coarse, fine)


def test_sum_codeword_batch_matches_single():
    lam1 = ConstructionALattice(3, np.zeros((0, 2)), n=2)
    lam2 = ConstructionALattice(3, [[1, 1]], n=2)
    grid = _half_grid()
    rng = np.random.default_rng(1)
    idx = rng.integers(0, len(grid), size=(3, 400))
    _batch_matches_reference(sum_codeword, ref.sum_codeword,
                             tuple(grid[i] for i in idx), lam1, lam2)


@pytest.fixture(scope="module")
def bm_codebooks():
    """The TWRC codebooks of the benchmark's block_markov point (n = 2)."""
    return build_twrc_codebooks(_twrc_params(TWRC_BM), 3, 2, seed=0)


def test_relay_decode_sum_and_bins_batch_match_single(bm_codebooks):
    cbs = bm_codebooks
    g = cbs.lam1.gamma
    rng = np.random.default_rng(2)
    grid = _half_grid(g)
    idx = rng.integers(0, len(grid), size=(3, 300))
    YR, U1, U2 = (grid[i] for i in idx)
    YR = np.vstack([YR, rng.uniform(-3 * g, 3 * g, size=(300, 2))])
    U1 = np.vstack([U1, rng.uniform(-g, g, size=(300, 2))])
    U2 = np.vstack([U2, rng.uniform(-g, g, size=(300, 2))])
    T = _batch_matches_reference(relay_decode_sum, ref.relay_decode_sum,
                                 (YR, U1, U2), cbs, 0.01)
    sums = np.vstack([T, cbs.sum_codebook.points])
    bins = cbs.bin_of_sum(sums)
    assert bins.shape == (len(sums),) and bins.dtype.kind == "i"
    assert bins.tolist() == list(map(ref.sum_bin_lookup(cbs), sums))


def test_sum_index_reads_off_grid_points_as_none(bm_codebooks):
    # Points within gamma / 2 of the zero sum (row 5) but off the fine
    # grid, and a NaN row, are no codeword; a row within GRID_TOL gamma
    # of a codeword, as the engines' sums are, still reads as it.
    book = bm_codebooks.sum_codebook
    g = book.gamma
    assert book.index(np.zeros((1, 2))).tolist() == [5]
    off = g * np.array([[0.3, -0.2], [0.49, 0.0], [0.5, 0.5],
                        [GRID_TOL * 1.5, 0.0]])
    assert book.index(off).tolist() == [0, 0, 0, 0]
    assert book.index(np.array([[np.nan, np.nan]])).tolist() == [0]
    near = book.points + g * GRID_TOL * np.array([0.5, -0.5])
    assert book.index(near).tolist() == list(range(1, len(book) + 1))


# name: the map applied to array arguments all of one shape, on the
# block_markov TWRC codebooks.
BATCH_ONLY = {
    "encode_dithered": lambda c, a: encode_dithered(a, a, c.lam1),
    "receiver_front_end":
        lambda c, a: receiver_front_end(a, a, 1.0, 1.0, c.lam1),
    "effective_noise": lambda c, a: effective_noise(a, a, 1.0, 1.0, c.lam1),
    "unique_decode": lambda c, a: unique_decode(a, c.lam1, c.lam_c1),
    "sum_codeword": lambda c, a: sum_codeword(a, a, a, c.lam1, c.lam2),
    "relay_decode_sum": lambda c, a: relay_decode_sum(a, a, a, c, 0.01),
    "recover_t1_from_sum":
        lambda c, a: recover_t1_from_sum(a, a, a, c.lam1, c.lam2),
    "recover_t2_from_sum":
        lambda c, a: recover_t2_from_sum(a, a, c.lam1, c.lam2),
    "bin_of_sum": lambda c, a: c.bin_of_sum(a),
    "nearest_many": lambda c, a: c.lam2.nearest_many(a),
    "mod_many": lambda c, a: c.lam2.mod_many(a),
    "codebook_index": lambda c, a: c.sum_codebook.index(a),
}


@pytest.mark.parametrize("shape", [(2,), (4, 3), (4, 1)],
                         ids=["vector", "wide_batch", "narrow_batch"])
@pytest.mark.parametrize("name", sorted(BATCH_ONLY))
def test_batch_only_map_rejects_other_shapes(bm_codebooks, name, shape):
    fn = BATCH_ONLY[name]
    assert len(fn(bm_codebooks, np.zeros((4, 2)))) == 4
    with pytest.raises(DimensionMismatch):
        fn(bm_codebooks, np.zeros(shape))
