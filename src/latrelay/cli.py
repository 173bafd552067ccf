"""Command line experiment runner.

Subcommands: chain-info, p2p-sim, relay-sim, twrc-sim, regions, gaps.
Configuration is an INI file (one section per subcommand, ``key = value``);
the flags --seed / --trials / --out override the file. All outputs are
CSV with '.' decimals and LF endings plus, for regions and gaps, an SVG
figure. A fixed config and seed produce byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 runtime infeasibility.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from .chain import build_chain
from .channel import AwgnParams, simulate_p2p, P2PStats, ci95
from .errors import (
    ConfigInvalid,
    EnumerationBudgetExceeded,
    Infeasible,
    InvalidRanks,
    LatrelayError,
    NotPrime,
    RejectionBudgetExceeded,
)
from .gf import check_prime
from .rates import (
    TwrcParams,
    cutset_degraded,
    cutset_general,
    gap_report,
    sample_twrc_params,
    two_way_no_relay,
    twrc_region,
)
from .relay import (
    BlockRecord,
    DegradedRelayParams,
    build_df_codebooks,
    df_round_trip,
)
from .svgplot import emit_plot, rectangle_region
from .twrc import (
    TwrcBlockRecord,
    TwrcSimParams,
    build_twrc_codebooks,
    twrc_round_trip,
)


class _Section:
    """Typed accessors over one config section, naming the failing field."""

    def __init__(self, cfg: configparser.ConfigParser, name: str):
        if not cfg.has_section(name) and name != cfg.default_section:
            raise ConfigInvalid(f"config is missing section [{name}]")
        self.raw = cfg[name]
        self.name = name

    def _get(self, key, default):
        if key in self.raw:
            return self.raw[key]
        if default is not None:
            return default
        raise ConfigInvalid(f"[{self.name}] is missing required key '{key}'")

    def get_int(self, key, default=None) -> int:
        v = self._get(key, default)
        try:
            return int(str(v))
        except ValueError:
            raise ConfigInvalid(f"[{self.name}] {key} = {v!r} is not an integer")

    def get_float(self, key, default=None) -> float:
        v = self._get(key, default)
        try:
            return float(str(v))
        except ValueError:
            raise ConfigInvalid(f"[{self.name}] {key} = {v!r} is not a number")

    def get_bool(self, key, default=None) -> bool:
        v = str(self._get(key, default)).strip().lower()
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off"):
            return False
        raise ConfigInvalid(f"[{self.name}] {key} = {v!r} is not a boolean")

    def get_str(self, key, default=None) -> str:
        return str(self._get(key, default))

    def get_ints(self, key, default=None) -> list:
        v = self._get(key, default)
        try:
            return [int(tok) for tok in str(v).replace(" ", "").split(",") if tok]
        except ValueError:
            raise ConfigInvalid(
                f"[{self.name}] {key} = {v!r} is not a comma-separated int list")


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(rows)
    _write_text(path, "\n".join(lines) + "\n")


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


def cmd_chain_info(sec: _Section, args) -> int:
    p = sec.get_int("p")
    n = sec.get_int("n")
    ranks = sec.get_ints("ranks")
    gamma = sec.get_float("gamma", "1.0")
    try:
        chain = build_chain(p, n, ranks, gamma=gamma, seed=args.seed)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    rows = []
    for i, lat in enumerate(chain.lattices):
        r_prev = chain.rate(i - 1, i) if i > 0 else 0.0
        r_total = chain.rate(0, i)
        rows.append(f"{i},{lat.k},{lat.volume!r},{r_prev!r},{r_total!r}")
        _say(args, f"lattice {i}: k={lat.k} volume={lat.volume:.6g} "
                   f"rate_from_prev={r_prev:.6g} rate_total={r_total:.6g}")
    _write_csv(args.out / "chain_info.csv",
               ("index", "k", "volume", "rate_from_prev", "rate_from_coarsest"),
               rows)
    _say(args, f"record: {chain.to_record()}")
    return 0


def cmd_p2p_sim(sec: _Section, args) -> int:
    p = sec.get_int("p")
    n = sec.get_int("n")
    ranks = sec.get_ints("ranks")
    P = sec.get_float("P")
    N = sec.get_float("N")
    if len(ranks) != 3:
        raise ConfigInvalid("[p2p-sim] ranks must list exactly 3 ranks")
    check_prime(p)
    try:
        awgn = AwgnParams(P=P, N=N)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    gamma = sec.get_float("gamma", repr(math.sqrt(12.0 * P) / p))
    trials = args.trials if args.trials else sec.get_int("trials", "1000")
    if trials < 1:
        raise ConfigInvalid(f"[p2p-sim] trials must be >= 1, got {trials}")
    try:
        chain = build_chain(p, n, ranks, gamma=gamma, seed=args.seed)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    stats = simulate_p2p(chain, awgn, trials=trials, seed=args.seed)
    _write_csv(args.out / "p2p.csv", P2PStats.CSV_COLUMNS, [stats.csv_row()])
    _say(args, f"pe_hat={stats.pe_hat:.6g} ci95={stats.pe_ci95:.3g} "
               f"list_size={stats.list_size} trials={stats.trials}")
    return 0


def _runs(sec: _Section, args) -> int:
    runs = args.trials if args.trials else sec.get_int("runs", "1")
    if runs < 1:
        raise ConfigInvalid(f"[{sec.name}] runs must be >= 1, got {runs}")
    return runs


def _run_round_trips(round_trip, cbs, params, seed: int, runs: int,
                     counts: tuple[str, ...]) -> tuple[list[int], list[str]]:
    """Run ``round_trip`` on seeds seed, seed + 1, ..., ``runs`` times.

    Returns the total of each result field named in ``counts`` and the
    first run's transcript rows.
    """
    totals = [0] * len(counts)
    transcript_rows = []
    for run in range(runs):
        res = round_trip(cbs, params, seed=seed + run,
                         keep_transcript=(run == 0))
        totals = [t + getattr(res, c) for t, c in zip(totals, counts)]
        if run == 0:
            transcript_rows = [rec.csv_row() for rec in res.transcript]
    return totals, transcript_rows


def cmd_relay_sim(sec: _Section, args) -> int:
    p = sec.get_int("p")
    n = sec.get_int("n")
    runs = _runs(sec, args)
    try:
        params = DegradedRelayParams(
            P=sec.get_float("P"), PR=sec.get_float("PR"),
            NR=sec.get_float("NR"), N=sec.get_float("N"),
            alpha=sec.get_float("alpha"), B=sec.get_int("B", "10"),
            R=sec.get_float("R"), RR=sec.get_float("RR"))
        cbs = build_df_codebooks(params, p, n, seed=args.seed)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    (msg, err, relay_err, bin_err), transcript_rows = _run_round_trips(
        df_round_trip, cbs, params, args.seed, runs,
        ("messages", "message_errors", "relay_errors", "bin_errors"))
    _write_csv(args.out / "relay_blocks.csv", BlockRecord.CSV_COLUMNS,
               transcript_rows)
    pe = err / msg
    ci = ci95(pe, msg)
    _write_csv(args.out / "relay_summary.csv",
               ("runs", "messages", "message_errors", "relay_errors",
                "bin_errors", "error_rate", "ci95", "rate_achieved",
                "bin_rate_achieved", "seed"),
               [f"{runs},{msg},{err},{relay_err},{bin_err},{pe!r},{ci!r},"
                f"{cbs.rate_achieved!r},{cbs.bin_rate_achieved!r},{args.seed}"])
    _say(args, f"messages={msg} errors={err} error_rate={pe:.6g} "
               f"rate={cbs.rate_achieved:.4g}")
    return 0


def cmd_twrc_sim(sec: _Section, args) -> int:
    p = sec.get_int("p")
    n = sec.get_int("n")
    runs = _runs(sec, args)
    enforce = sec.get_bool("enforce_broadcast_rate", "true")
    try:
        channel = TwrcParams(
            P1=sec.get_float("P1"), P2=sec.get_float("P2"),
            PR=sec.get_float("PR"), N1=sec.get_float("N1"),
            N2=sec.get_float("N2"), NR=sec.get_float("NR"))
        params = TwrcSimParams(channel=channel, R1=sec.get_float("R1"),
                               R2=sec.get_float("R2"), R=sec.get_float("R"),
                               B=sec.get_int("B", "10"))
        cbs = build_twrc_codebooks(params, p, n, seed=args.seed,
                                   enforce_broadcast_rate=enforce)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    (msg, e1, e2, se), transcript_rows = _run_round_trips(
        twrc_round_trip, cbs, params, args.seed, runs,
        ("messages", "errors_dir1", "errors_dir2", "sum_errors"))
    _write_csv(args.out / "twrc_blocks.csv", TwrcBlockRecord.CSV_COLUMNS,
               transcript_rows)
    _write_csv(args.out / "twrc_summary.csv",
               ("runs", "messages", "errors_dir1", "errors_dir2",
                "sum_errors", "rate1_achieved", "rate2_achieved", "seed"),
               [f"{runs},{msg},{e1},{e2},{se},{cbs.rate1_achieved!r},"
                f"{cbs.rate2_achieved!r},{args.seed}"])
    _say(args, f"messages={msg} errors_dir1={e1} errors_dir2={e2} "
               f"sum_errors={se}")
    return 0


def _channel_from_section(sec: _Section) -> TwrcParams:
    mode = sec.get_str("mode", "none")
    try:
        if mode == "physical":
            return TwrcParams.physically_degraded(
                P1=sec.get_float("P1"), P2=sec.get_float("P2"),
                PR=sec.get_float("PR"), NR=sec.get_float("NR"),
                N1p=sec.get_float("N1p"), N2p=sec.get_float("N2p"))
        return TwrcParams(
            P1=sec.get_float("P1"), P2=sec.get_float("P2"),
            PR=sec.get_float("PR"), N1=sec.get_float("N1"),
            N2=sec.get_float("N2"), NR=sec.get_float("NR"), mode=mode)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))


def cmd_regions(sec: _Section, args) -> int:
    params = _channel_from_section(sec)
    physical = params.mode == "physical"
    try:
        ach = twrc_region(params)
        norelay = two_way_no_relay(params)
        outer = (cutset_degraded if physical else cutset_general)(params)
    except ValueError as exc:
        raise ConfigInvalid(f"[regions] {exc}")
    outer_name = "cut-set (degraded)" if physical else "cut-set (general)"
    rows = [f"achievable,{ach.R1!r},{ach.R2!r}",
            f"no-relay,{norelay.R1!r},{norelay.R2!r}",
            f"cutset,{outer.R1!r},{outer.R2!r}"]
    _write_csv(args.out / "regions.csv", ("name", "R1", "R2"), rows)
    svg = emit_plot([rectangle_region(outer_name, outer.R1, outer.R2),
                     rectangle_region("achievable (list DF)", ach.R1, ach.R2),
                     rectangle_region("two-way, no relay",
                                      norelay.R1, norelay.R2)],
                    title="Rate regions")
    _write_text(args.out / "regions.svg", svg)
    _say(args, f"achievable=({ach.R1:.4g},{ach.R2:.4g}) "
               f"outer=({outer.R1:.4g},{outer.R2:.4g})")
    return 0


def cmd_gaps(sec: _Section, args) -> int:
    scenario = sec.get_int("scenario")
    if scenario not in (1, 2):
        raise ConfigInvalid("[gaps] scenario must be 1 or 2")
    draws = args.trials if args.trials else sec.get_int("draws", "1000")
    if draws < 1:
        raise ConfigInvalid(f"[gaps] draws must be >= 1, got {draws}")
    lo = sec.get_float("lo", "0.01")
    hi = sec.get_float("hi", "100.0")
    if not (math.isfinite(hi) and 0.0 < lo < hi):
        raise ConfigInvalid(
            f"[gaps] needs finite 0 < lo < hi, got lo = {lo!r}, hi = {hi!r}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed,
                                                       spawn_key=(0x6A9,)))
    rows = []
    worst = None
    for d in range(draws):
        params = sample_twrc_params(scenario, rng, lo=lo, hi=hi)
        try:
            rep = gap_report(params, scenario)
        except ValueError as exc:
            raise ConfigInvalid(f"[gaps] draw {d + 1}: {exc}")
        gmax = max(rep.gap1, rep.gap2)
        rows.append(f"{d + 1},{params.P1!r},{params.P2!r},{params.PR!r},"
                    f"{params.N1!r},{params.N2!r},{params.NR!r},"
                    f"{rep.achievable.R1!r},{rep.achievable.R2!r},"
                    f"{rep.outer.R1!r},{rep.outer.R2!r},"
                    f"{rep.gap1!r},{rep.gap2!r},{gmax!r}")
        if worst is None or gmax > worst[0]:
            worst = (gmax, rep)
    _write_csv(args.out / "gaps.csv",
               ("draw", "P1", "P2", "PR", "N1", "N2", "NR",
                "ach_R1", "ach_R2", "outer_R1", "outer_R2",
                "gap1", "gap2", "max_gap"),
               rows)
    rep = worst[1]
    svg = emit_plot(
        [rectangle_region("cut-set bound", rep.outer.R1, rep.outer.R2),
         rectangle_region("achievable (list DF)",
                          rep.achievable.R1, rep.achievable.R2)],
        title=f"Worst-gap draw, scenario {scenario}")
    _write_text(args.out / "gaps.svg", svg)
    _say(args, f"draws={draws} max_gap={worst[0]:.6g}")
    return 0


_COMMANDS = {
    "chain-info": cmd_chain_info,
    "p2p-sim": cmd_p2p_sim,
    "relay-sim": cmd_relay_sim,
    "twrc-sim": cmd_twrc_sim,
    "regions": cmd_regions,
    "gaps": cmd_gaps,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latrelay",
        description="Nested-lattice list decoding and relay simulations")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
    parser.add_argument("--trials", type=int, default=0,
                        help="override trial/run/draw count")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = configparser.ConfigParser()
        cfg.optionxform = str   # keys are case-sensitive (P vs p)
        try:
            read = cfg.read(args.config)
        except configparser.Error as exc:
            raise ConfigInvalid(str(exc))
        if not read:
            raise ConfigInvalid(f"cannot read config file {args.config}")
        sec = _Section(cfg, args.subcommand)
        if args.trials < 0:
            raise ConfigInvalid("--trials must be nonnegative")
        if args.seed < 0:
            raise ConfigInvalid("--seed must be nonnegative")
        return _COMMANDS[args.subcommand](sec, args)
    except (ConfigInvalid, InvalidRanks, NotPrime) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Infeasible, EnumerationBudgetExceeded,
            RejectionBudgetExceeded) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except LatrelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
