"""Nested-lattice list decoding and decode-and-forward relay simulations.

Core pieces: exact small-dimension Construction-A lattices (lattice),
nested chains with quantized rates (chain), the fixed-size list decoder
and AWGN harness (channel), block-Markov decode-and-forward for the
degraded relay channel (relay), sum decoding plus binning for the
two-way relay channel with direct links (twrc), closed-form rate and
gap calculators (rates), and a CLI front end (cli).
"""

from .errors import LatrelayError
from .lattice import (
    ConstructionALattice,
    Lattice,
    cubic_gamma,
    enumerate_codebook,
    is_sublattice,
    second_moment,
)
from .chain import LatticeChain, build_chain, size_list_lattice
from .channel import (
    AwgnParams,
    NestedListDecoder,
    simulate_p2p,
    unique_decode,
)
from .rates import (
    GapReport,
    RatePoint,
    TwrcParams,
    capacity_c,
    cutset_degraded,
    cutset_general,
    gap_report,
    two_way_no_relay,
    twrc_region,
)
from .relay import (
    DegradedRelayParams,
    build_df_codebooks,
    df_capacity,
    df_round_trip,
)
from .twrc import (
    TwrcSimParams,
    build_twrc_codebooks,
    sum_codeword,
    twrc_round_trip,
)

__version__ = "0.1.0"
