"""The block-batched DF and TWRC engines against per-block references.

``block_reference`` runs each protocol one block at a time through the
single-vector lattice operations; the engines must give the same counts
and transcripts, record for record, and each batched protocol map must
equal its one-vector reference row by row. The CLI outputs on the shipped
example config are pinned to hashes taken before the engines were batched.
"""

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from latrelay.channel import (
    effective_noise,
    encode_dithered,
    receiver_front_end,
    unique_decode,
)
from latrelay.cli import main
from latrelay.errors import DimensionMismatch
from latrelay.lattice import ConstructionALattice, codebook_index
from latrelay.rates import TwrcParams
from latrelay.relay import (
    DegradedRelayParams,
    build_df_codebooks,
    df_round_trip,
)
from latrelay.twrc import (
    TwrcSimParams,
    build_twrc_codebooks,
    recover_t1_from_sum,
    recover_t2_from_sum,
    relay_decode_sum,
    sum_codeword,
    twrc_round_trip,
)
import block_reference as ref
from block_reference import df_reference, twrc_reference

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
        return [(cbs.message_chain.list_decoder, cbs.message_entries)]
    d, p, n, cb_seed, _ = (TWRC_POINTS[point] if point != "found"
                           else (TWRC_FOUND, 3, 2, 0, None))
    cbs = build_twrc_codebooks(_twrc_params(d), p, n, seed=cb_seed,
                               enforce_broadcast_rate=False)
    if point == "found":
        assert cbs.lam2.k >= 1
    return [(cbs.dec1, cbs.entries1), (cbs.dec2, cbs.entries2)]


def test_round_trips_build_no_decoder(decoder_builds):
    d, p, n, cb_seed, _ = DF_POINTS["block_markov"]
    df_params = DegradedRelayParams(**d)
    df_cbs = build_df_codebooks(df_params, p, n, seed=cb_seed)
    d, p, n, cb_seed, _ = TWRC_POINTS["block_markov"]
    tw_params = _twrc_params(d)
    tw_cbs = build_twrc_codebooks(tw_params, p, n, seed=cb_seed)
    assert len(decoder_builds) == 2                  # dec1 and dec2
    dec = df_cbs.message_chain.list_decoder          # built on first use
    assert len(decoder_builds) == 3
    for seed in range(3):
        df_round_trip(df_cbs, df_params, seed)
        twrc_round_trip(tw_cbs, tw_params, seed)
    assert len(decoder_builds) == 3
    assert df_cbs.message_chain.list_decoder is dec


@pytest.mark.parametrize(
    "kind, point",
    [("df", pt) for pt in sorted(DF_POINTS)]
    + [("twrc", pt) for pt in sorted(TWRC_POINTS) + ["found"]])
def test_list_members_are_codebook_rows(kind, point):
    # Every list member has a nonzero message index, so the engines can
    # resolve a block by comparing indices, with no point tolerance.
    rng = np.random.default_rng(0)
    for dec, entries in _list_decoders(kind, point):
        g, half = dec.coarse.gamma, dec.coarse.gamma * dec.coarse.p / 2
        Y = np.vstack([_half_grid(g),
                       rng.uniform(-half, half, size=(2000, dec.coarse.n))])
        members = dec.decode_many(Y).reshape(-1, dec.coarse.n)
        assert np.all(codebook_index(entries, members, g) > 0)


# sha256 of each output of `relay-sim` and `twrc-sim` on
# scripts/configs/example.ini, taken from the per-block engines.
EXAMPLE = Path(__file__).resolve().parents[1] / "scripts/configs/example.ini"
PINNED = {
    0: {"relay_blocks.csv": "371adcc5a2fde26d6d20b472466e06b2"
                            "f48be0646a00ef96f04dd93dd1bfad5d",
        "relay_summary.csv": "c4682522c4d29e11a3d890604b5100a9"
                             "a9bdd3ea093006b89189de13f790b540",
        "twrc_blocks.csv": "475c5c964470beea3d3e9161dbacc318"
                           "3be00bac64fb52ebe6f3408432f0311d",
        "twrc_summary.csv": "b30448375b46d0acf72675472234a3e9"
                            "b2fd588c9a5e059eadef4da12dff8f64"},
    3: {"relay_blocks.csv": "28b4ac3f0d6a7c87bc40f175fc9b086d"
                            "0affeccd81cd124a74dda65aae13ba94",
        "relay_summary.csv": "81a49ae34899a48dfc06de156209279d"
                             "7d50856d39c262dfd64127883af5790b",
        "twrc_blocks.csv": "f91ac90756e36e0b8ea3505302d569a4"
                           "857010abae5d4ac490bea076660f3dda",
        "twrc_summary.csv": "20e0d51454491c264730eb7e224272726"
                            "bc2e21faddab322d17c283c5edd8854"},
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_example_cli_outputs_pinned(tmp_path, seed):
    for command in ("relay-sim", "twrc-sim"):
        assert main([command, "--config", str(EXAMPLE), "--seed", str(seed),
                     "--out", str(tmp_path), "--quiet"]) == 0
    for name, digest in PINNED[seed].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


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
    sums = np.vstack([T, cbs.sum_entries])
    bins = cbs.bin_of_sum(sums)
    assert bins.shape == (len(sums),) and bins.dtype.kind == "i"
    assert bins.tolist() == list(map(ref.sum_bin_lookup(cbs), sums))


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
    "codebook_index":
        lambda c, a: codebook_index(c.sum_entries, a, c.lam1.gamma),
}


@pytest.mark.parametrize("shape", [(2,), (4, 3), (4, 1)],
                         ids=["vector", "wide_batch", "narrow_batch"])
@pytest.mark.parametrize("name", sorted(BATCH_ONLY))
def test_batch_only_map_rejects_other_shapes(bm_codebooks, name, shape):
    fn = BATCH_ONLY[name]
    assert len(fn(bm_codebooks, np.zeros((4, 2)))) == 4
    with pytest.raises(DimensionMismatch):
        fn(bm_codebooks, np.zeros(shape))
