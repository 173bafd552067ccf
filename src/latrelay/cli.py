"""Command line experiment runner.

Subcommands: chain-info, p2p-sim, relay-sim, twrc-sim, regions, gaps.
Configuration is an INI file with one section per subcommand, read raw
and checked against SCHEMA: a key the subcommand does not read is a
config error. The flags --seed / --trials / --out override the file. All
outputs are CSV with '.' decimals and LF endings plus, for regions and
gaps, an SVG figure. A fixed config and seed give byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 runtime infeasibility.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import fields
from pathlib import Path

from .chain import build_chain
from .channel import (
    STREAM_KEYS,
    AwgnParams,
    P2PStats,
    ci95,
    simulate_p2p,
    trial_rng,
)
from .errors import (
    ConfigInvalid,
    EnumerationBudgetExceeded,
    Infeasible,
    InvalidRanks,
    LatrelayError,
    NotPrime,
)
from .gf import check_prime
from .lattice import cubic_gamma
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


def _bool(v: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[v.lower()]


def _ints(v: str) -> list:
    return [int(tok) for tok in v.replace(" ", "").split(",") if tok]


_NOUNS = {int: "an integer", float: "a number", _bool: "a boolean",
          _ints: "a comma-separated int list"}
REQUIRED = object()


def _floats(*keys) -> dict:
    return dict.fromkeys(keys, (float, REQUIRED))


_CODE = dict.fromkeys(("p", "n"), (int, REQUIRED))
_BLOCKS = {**_CODE, "B": (int, 10), "runs": (int, 1)}
_TWRC_POWERS = _floats("P1", "P2", "PR", "NR")
_REGIONS = {"mode": (str, "none"), **_TWRC_POWERS}

# section -> key -> (parser, default or REQUIRED).
SCHEMA = {
    "chain-info": {**_CODE, "ranks": (_ints, REQUIRED), "gamma": (float, 1.0)},
    "p2p-sim": {**_CODE, "ranks": (_ints, REQUIRED), **_floats("P", "N"),
                "trials": (int, 1000)},
    "relay-sim": {**_BLOCKS,
                  **_floats("P", "PR", "NR", "N", "alpha", "R", "RR")},
    "twrc-sim": {**_BLOCKS, **_TWRC_POWERS,
                 **_floats("N1", "N2", "R1", "R2", "R"),
                 "enforce_broadcast_rate": (_bool, True)},
    "regions": {**_REGIONS, **_floats("N1", "N2")},
    "gaps": {"scenario": (int, REQUIRED), "draws": (int, 1000),
             "lo": (float, 0.01), "hi": (float, 100.0)},
}
# [regions] with mode = physical reads N1p and N2p in place of N1 and N2.
_PHYSICAL_REGIONS = {**_REGIONS, **_floats("N1p", "N2p")}
# The key of each section that --trials overrides.
COUNT = {"p2p-sim": "trials", "relay-sim": "runs", "twrc-sim": "runs",
         "gaps": "draws"}


def section_keys(command: str, section) -> dict:
    """The schema of the keys ``command`` reads from ``section``."""
    if command == "regions" and section.get("mode") == "physical":
        return _PHYSICAL_REGIONS
    return SCHEMA[command]


def read_section(cfg: configparser.ConfigParser, command: str,
                 trials=None) -> dict:
    """Parse the keys of section ``command``, fill in the defaults and
    apply the --trials override. A missing section, a missing required
    key, a value its parser rejects, a count below 1, and a key the
    command does not read (including one from [DEFAULT]) are config
    errors."""
    if not cfg.has_section(command):
        raise ConfigInvalid(f"config is missing section [{command}]")
    raw = cfg[command]
    keys = section_keys(command, raw)
    lower = {k.lower(): k for k in keys}
    for key in raw:
        if key not in keys:
            import difflib   # only here: it costs every CLI start-up
            close = difflib.get_close_matches(key.lower(), lower, n=1)
            hint = f"; did you mean '{lower[close[0]]}'?" if close else ""
            raise ConfigInvalid(f"[{command}] unknown key '{key}'{hint}")
    values = {}
    for key, (parse, default) in keys.items():
        if key in raw:
            try:
                values[key] = parse(raw[key])
            except (KeyError, ValueError):
                raise ConfigInvalid(f"[{command}] {key} = {raw[key]!r} is "
                                    f"not {_NOUNS[parse]}")
        elif default is REQUIRED:
            raise ConfigInvalid(f"[{command}] is missing required key '{key}'")
        else:
            values[key] = default
    count = COUNT.get(command)
    if trials is not None:
        if count is None:
            raise ConfigInvalid(f"[{command}] has no count for --trials")
        values[count] = trials
    if count and values[count] < 1:
        raise ConfigInvalid(
            f"[{command}] {count} must be >= 1, got {values[count]}")
    return values


def _build(cls, values: dict):
    """``cls`` built from the entries of ``values`` named as its fields."""
    return cls(**{f.name: values[f.name] for f in fields(cls)
                  if f.name in values})


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


def cmd_chain_info(c: dict, args) -> int:
    try:
        chain = build_chain(c["p"], c["n"], c["ranks"], gamma=c["gamma"],
                            seed=args.seed)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    finest = chain.lattices[-1]   # of the smallest volume
    if finest.volume < sys.float_info.min:
        raise ConfigInvalid(
            f"[chain-info] the volume gamma^n p^(n-k) of lattice "
            f"{len(chain.lattices) - 1} underflows double precision "
            f"(gamma = {c['gamma']!r}, n = {c['n']}, k = {finest.k})")
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


def cmd_p2p_sim(c: dict, args) -> int:
    p = c["p"]
    if len(c["ranks"]) != 3:
        raise ConfigInvalid("[p2p-sim] ranks must list exactly 3 ranks")
    if c["ranks"][0] != 0:
        raise ConfigInvalid(
            f"[p2p-sim] the coarsest rank must be 0, got {c['ranks'][0]}: "
            "shaping uses the cubic cell of power P, which is the coarse "
            "lattice only at rank 0")
    check_prime(p)
    try:
        awgn = _build(AwgnParams, c)
        chain = build_chain(p, c["n"], c["ranks"],
                            gamma=cubic_gamma(p, awgn.P), seed=args.seed)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    stats = simulate_p2p(chain, awgn, trials=c["trials"], seed=args.seed)
    _write_csv(args.out / "p2p.csv", P2PStats.CSV_COLUMNS, [stats.csv_row()])
    _say(args, f"pe_hat={stats.pe_hat:.6g} ci95={stats.pe_ci95:.3g} "
               f"list_size={stats.list_size} trials={stats.trials}")
    return 0


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


def cmd_relay_sim(c: dict, args) -> int:
    try:
        params = _build(DegradedRelayParams, c)
        cbs = build_df_codebooks(params, c["p"], c["n"], seed=args.seed)
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    (msg, err, relay_err, bin_err), transcript_rows = _run_round_trips(
        df_round_trip, cbs, params, args.seed, c["runs"],
        ("messages", "message_errors", "relay_errors", "bin_errors"))
    _write_csv(args.out / "relay_blocks.csv", BlockRecord.CSV_COLUMNS,
               transcript_rows)
    pe = err / msg
    ci = ci95(pe, msg)
    _write_csv(args.out / "relay_summary.csv",
               ("runs", "messages", "message_errors", "relay_errors",
                "bin_errors", "error_rate", "ci95", "rate_achieved",
                "bin_rate_achieved", "seed"),
               [f"{c['runs']},{msg},{err},{relay_err},{bin_err},{pe!r},{ci!r},"
                f"{cbs.rate_achieved!r},{cbs.bin_rate_achieved!r},{args.seed}"])
    _say(args, f"messages={msg} errors={err} error_rate={pe:.6g} "
               f"rate={cbs.rate_achieved:.4g}")
    return 0


def cmd_twrc_sim(c: dict, args) -> int:
    try:
        params = _build(TwrcSimParams,
                        {**c, "channel": _build(TwrcParams, c)})
        cbs = build_twrc_codebooks(
            params, c["p"], c["n"], seed=args.seed,
            enforce_broadcast_rate=c["enforce_broadcast_rate"])
    except ValueError as exc:
        raise ConfigInvalid(str(exc))
    (msg, e1, e2, se), transcript_rows = _run_round_trips(
        twrc_round_trip, cbs, params, args.seed, c["runs"],
        ("messages", "errors_dir1", "errors_dir2", "sum_errors"))
    _write_csv(args.out / "twrc_blocks.csv", TwrcBlockRecord.CSV_COLUMNS,
               transcript_rows)
    _write_csv(args.out / "twrc_summary.csv",
               ("runs", "messages", "errors_dir1", "errors_dir2",
                "sum_errors", "rate1_achieved", "rate2_achieved", "seed"),
               [f"{c['runs']},{msg},{e1},{e2},{se},{cbs.rate1_achieved!r},"
                f"{cbs.rate2_achieved!r},{args.seed}"])
    _say(args, f"messages={msg} errors_dir1={e1} errors_dir2={e2} "
               f"sum_errors={se}")
    return 0


def cmd_regions(c: dict, args) -> int:
    physical = c["mode"] == "physical"
    try:
        params = (TwrcParams.physically_degraded(
            **{k: v for k, v in c.items() if k != "mode"}) if physical
            else _build(TwrcParams, c))
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


def cmd_gaps(c: dict, args) -> int:
    scenario, draws, lo, hi = c["scenario"], c["draws"], c["lo"], c["hi"]
    if scenario not in (1, 2):
        raise ConfigInvalid("[gaps] scenario must be 1 or 2")
    if not (math.isfinite(hi) and 0.0 < lo < hi):
        raise ConfigInvalid(
            f"[gaps] needs finite 0 < lo < hi, got lo = {lo!r}, hi = {hi!r}")
    rng = trial_rng(args.seed, STREAM_KEYS["gaps"])
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
    parser.add_argument("--trials", type=int, help="override the run count")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = configparser.ConfigParser(interpolation=None)
        cfg.optionxform = str   # keys are case-sensitive (P vs p)
        try:
            read = cfg.read(args.config)
        except configparser.Error as exc:
            raise ConfigInvalid(str(exc))
        if not read:
            raise ConfigInvalid(f"cannot read config file {args.config}")
        values = read_section(cfg, args.subcommand, args.trials)
        if args.seed < 0:
            raise ConfigInvalid("--seed must be nonnegative")
        return _COMMANDS[args.subcommand](values, args)
    except (ConfigInvalid, InvalidRanks, NotPrime) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Infeasible, EnumerationBudgetExceeded) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except LatrelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
