"""Closed-form achievable rates, cut-set outer bounds, and gap checks.

All rates are in bits per channel use (base-2 logs). The two-way relay
achievable region and the physically degraded cut-set bound follow the
displayed formulas; the stochastic-case outer bound is the standard
Gaussian full-duplex cut-set bound with correlated inputs, derived in the
README, since no closed form is displayed for that case.

``TwrcParams`` is a frozen parameter record; ``RatePoint`` and
``GapReport`` are plain result records, built once per call and cheap to
build. Each bound is a few float operations per user, done by a
module-level helper (``_region_rate``, ``best_power_split``,
``_general_rate``) rather than a closure made on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NegativeArgument, ScenarioViolation

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def capacity_c(x: float) -> float:
    """C(x) = 1/2 log2(1 + x)."""
    if x < 0:
        raise NegativeArgument(f"capacity argument must be >= 0, got {x}")
    return 0.5 * math.log2(1.0 + x)


def positive_part(x: float) -> float:
    """[x]+ = max(x, 0)."""
    return max(x, 0.0)


def maximize_unimodal(f: Callable[[float], float], lo: float, hi: float,
                      grid: int = 10_000, xtol: float = 1e-9) -> tuple[float, float]:
    """Coarse grid scan followed by golden-section refinement.

    Returns (argmax, max). Assumes f is unimodal on [lo, hi] near the grid
    optimum; the grid guards against picking the wrong basin. The package's
    optimisers are closed forms and no longer call it; it stays while the
    benchmark's tracer (``perfbench/tracer.py``) binds it by name.
    """
    xs = np.linspace(lo, hi, grid + 1)
    vals = np.asarray(f(xs))   # objectives are numpy-vectorized
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid)]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = float(0.5 * (a + b))
    return x, float(f(x))


@dataclass
class RatePoint:
    """Per-user rate bounds in bits per channel use (a result record)."""
    R1: float
    R2: float

    def __post_init__(self):
        if not (0 <= self.R1 < math.inf and 0 <= self.R2 < math.inf):
            raise ValueError("rates must be finite and nonnegative, got "
                             f"R1={self.R1!r}, R2={self.R2!r}")


@dataclass(frozen=True)
class TwrcParams:
    """Two-way relay channel parameters (powers, noises, degradation).

    ``mode`` is one of "physical" (N1p, N2p given; N1 = NR + N1p and
    N2 = NR + N2p), "stochastic" (N1, N2 >= NR) or "none".
    """
    P1: float
    P2: float
    PR: float
    N1: float
    N2: float
    NR: float
    mode: str = "none"
    N1p: Optional[float] = None
    N2p: Optional[float] = None

    def __post_init__(self):
        P1, P2, PR, N1, N2, NR = values = (
            self.P1, self.P2, self.PR, self.N1, self.N2, self.NR)
        if not all(map(math.isfinite, values)):
            raise ValueError(
                "powers and noise variances must be finite, got "
                f"P1={P1!r}, P2={P2!r}, PR={PR!r}, "
                f"N1={N1!r}, N2={N2!r}, NR={NR!r}")
        if min(P1, P2, N1, N2, NR) <= 0 or PR < 0:
            raise ValueError("powers and noise variances must be positive")
        if P1 < P2:
            raise ValueError("convention requires P1 >= P2")
        mode = self.mode
        if mode == "physical":
            N1p, N2p = self.N1p, self.N2p
            if N1p is None or N2p is None:
                raise ValueError("physical degradation requires N1p and N2p")
            if N1p < 0 or N2p < 0:
                raise ValueError(
                    "physical degradation requires N1p, N2p >= 0, got "
                    f"N1p={N1p!r}, N2p={N2p!r}")
            if (abs(N1 - (NR + N1p)) > 1e-9 * N1
                    or abs(N2 - (NR + N2p)) > 1e-9 * N2):
                raise ValueError("physical degradation requires Ni = NR + Nip")
        elif mode == "stochastic":
            if N1 < NR or N2 < NR:
                raise ValueError("stochastic degradation requires N1, N2 >= NR")
        elif mode != "none":
            raise ValueError(f"unknown degradation mode {mode!r}")

    @classmethod
    def physically_degraded(cls, P1, P2, PR, NR, N1p, N2p) -> "TwrcParams":
        return cls(P1, P2, PR, NR + N1p, NR + N2p, NR, "physical", N1p, N2p)


@dataclass
class GapReport:
    """One parameter draw's rates and per-user gaps (a result record)."""
    achievable: RatePoint
    outer: RatePoint
    gap1: float
    gap2: float
    scenario: int
    params: TwrcParams


def two_way_no_relay(params: TwrcParams) -> RatePoint:
    """Capacity region corner of the AWGN two-way channel (relay ignored)."""
    return RatePoint(R1=capacity_c(params.P1 / params.N2),
                     R2=capacity_c(params.P2 / params.N1))


def twrc_region(params: TwrcParams) -> RatePoint:
    """Per-user maxima of the lattice list-decoding achievable region.

    R_i <= min([1/2 log2(Pi/(P1+P2) + Pi/NR)]+, C((Pi+PR)/N_other)).
    """
    p = params
    Psum = p.P1 + p.P2
    return RatePoint(_region_rate(p.P1, Psum, p.PR, p.NR, p.N2),
                     _region_rate(p.P2, Psum, p.PR, p.NR, p.N1))


def _region_rate(Pi: float, Psum: float, PR: float, NR: float,
                 Nother: float) -> float:
    """User i's bound in ``twrc_region``, with Psum = P1 + P2."""
    sum_term = positive_part(0.5 * math.log2(Pi / Psum + Pi / NR))
    return min(sum_term, capacity_c((Pi + PR) / Nother))


def _cut_crossing(a: float, Pi: float, PR: float, D: float) -> float:
    """Optimal SNR of max over x in [0, 1] of min(C(f(x)), C(g(x))) with
    f(x) = a (1 - x^2) falling and g(x) = (Pi + PR + 2 x sqrt(Pi PR)) / D
    rising; C is increasing, so the optimum is C of the returned value.

    If g(0) >= f(0) the optimum is x = 0 and the value is a. Otherwise it
    is the crossing f(x) = g(x), the positive root of a x^2 + b x + c
    with b = 2 sqrt(Pi PR) / D and c = (Pi + PR) / D - a < 0, taken in the
    cancellation-free form -2c / (b + sqrt(b^2 - 4ac)); the root is at
    most 1 because f(1) = 0 < g(1). At the root f and g are equal, so the
    value is g there: f's 1 - x^2 would cancel as x -> 1, g has no
    cancellation.
    """
    c = (Pi + PR) / D - a
    if c >= 0.0:
        return a
    b = 2.0 * math.sqrt(Pi * PR) / D
    x = -2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c))
    return (Pi + PR) / D + b * x


def best_power_split(Pi: float, PR: float, NR: float, D: float
                     ) -> tuple[float, float]:
    """max over alpha in [0, 1] of
    min(C(alpha Pi / NR), C((Pi + PR + 2 sqrt((1 - alpha) Pi PR)) / D)).

    The first term is the relay's decoding cut, the second the coherent
    cut to the destination with noise D. Substituting s = sqrt(1 - alpha)
    turns the first into C(Pi/NR (1 - s^2)) and the second into
    C((Pi + PR + 2 s sqrt(Pi PR)) / D), which ``_cut_crossing`` solves;
    alpha = 1 when C(Pi/NR) <= C((Pi + PR)/D). Returns (rate, alpha).
    """
    a = Pi / NR
    snr = _cut_crossing(a, Pi, PR, D)
    # the relay cut C(alpha a) equals C(snr) at the optimum
    return capacity_c(snr), snr / a


def cutset_degraded(params: TwrcParams) -> RatePoint:
    """Cut-set bound for the physically degraded case, optimized over the
    source/relay power split per user (``best_power_split`` with
    D = N_other' + NR)."""
    if params.mode != "physical":
        raise ScenarioViolation("cutset_degraded requires physical degradation")
    p = params
    return RatePoint(best_power_split(p.P1, p.PR, p.NR, p.N2p + p.NR)[0],
                     best_power_split(p.P2, p.PR, p.NR, p.N1p + p.NR)[0])


def cutset_general(params: TwrcParams) -> RatePoint:
    """Standard Gaussian full-duplex two-way-relay cut-set bound.

    Per user i, with input correlation rho between X_i and X_R:
      broadcast cut:  1/2 log2(1 + Pi (1 - rho^2) (1/NR + 1/N_other))
      MAC cut:        1/2 log2(1 + (Pi + PR + 2 rho sqrt(Pi PR)) / N_other)
    maximized over rho in [0, 1]: rho = 0 when MAC(0) >= BC(0), else the
    crossing, a quadratic root (``_cut_crossing``). Derivation documented
    in the README.
    """
    p = params
    return RatePoint(_general_rate(p.P1, p.PR, p.NR, p.N2),
                     _general_rate(p.P2, p.PR, p.NR, p.N1))


def _general_rate(Pi: float, PR: float, NR: float, Nother: float) -> float:
    """User i's bound in ``cutset_general``."""
    a = Pi * (1.0 / NR + 1.0 / Nother)
    return capacity_c(_cut_crossing(a, Pi, PR, Nother))


def sample_twrc_params(scenario: int, rng: np.random.Generator,
                       lo: float = 0.01, hi: float = 100.0) -> TwrcParams:
    """Random parameter draw for gap batches, log-uniform on [lo, hi].

    Scenario 1 draws physically degraded parameters (Ni = NR + Nip);
    scenario 2 draws stochastically degraded ones (Ni >= NR).
    """
    # one draw of six, in the order six scalar draws would take them
    Pa, Pb, PR, NR, x1, x2 = np.exp(
        rng.uniform(math.log(lo), math.log(hi), 6)).tolist()
    P1, P2 = max(Pa, Pb), min(Pa, Pb)
    if scenario == 1:
        return TwrcParams.physically_degraded(P1, P2, PR, NR, x1, x2)
    if scenario == 2:
        return TwrcParams(P1, P2, PR, NR + x1, NR + x2, NR, "stochastic")
    raise ScenarioViolation(f"unknown scenario {scenario}")


def gap_report(params: TwrcParams, scenario: int) -> GapReport:
    """Per-user gap between the achievable region and the cut-set bound.

    Scenario 1 (physical degradation): outer bound is the degraded cut-set
    form and the achievable broadcast terms use N_other = N_other' + NR.
    Scenario 2 (stochastic degradation): outer bound is cutset_general.
    Gaps are reported even if negative (that would flag a bug).
    """
    if scenario == 1:
        if params.mode != "physical":
            raise ScenarioViolation("scenario 1 requires physical degradation")
        ach = twrc_region(params)
        outer = cutset_degraded(params)
    elif scenario == 2:
        if not (params.N1 >= params.NR and params.N2 >= params.NR):
            raise ScenarioViolation("scenario 2 requires N1, N2 >= NR")
        ach = twrc_region(params)
        outer = cutset_general(params)
    else:
        raise ScenarioViolation(f"unknown scenario {scenario}")
    return GapReport(achievable=ach, outer=outer,
                     gap1=outer.R1 - ach.R1, gap2=outer.R2 - ach.R2,
                     scenario=scenario, params=params)
