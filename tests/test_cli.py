import configparser
import csv
import math
import re
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from latrelay.cli import COUNT, REQUIRED, main, section_keys
from latrelay.errors import RejectionBudgetExceeded
from latrelay.lattice import Lattice


def _write_cfg(tmp_path, body):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(body)
    return str(cfg)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _config_error(tmp_path, capsys, command, output, body, *flags):
    """The command exits 2 with a one-line config error and writes no
    output file; returns the error."""
    cfg = _write_cfg(tmp_path, body)
    code = main([command, "--config", cfg, "--out", str(tmp_path),
                 "--quiet", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / output).exists()
    return err


def _infeasible(tmp_path, capsys, command, output, body):
    """The command exits 3 with a one-line error and no traceback, and
    writes no output file."""
    cfg = _write_cfg(tmp_path, body)
    code = main([command, "--config", cfg, "--out", str(tmp_path),
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("infeasible:") and "Traceback" not in err, err
    assert not (tmp_path / output).exists()
    return err


class TestChainInfo:
    CFG = "[chain-info]\np = 3\nn = 2\nranks = 0,1,2\n"

    def test_rates_reported(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, self.CFG)
        assert main(["chain-info", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 0
        rows = _rows(tmp_path / "chain_info.csv")
        assert len(rows) == 3
        want = 0.5 * math.log2(3)
        assert float(rows[1]["rate_from_prev"]) == pytest.approx(want,
                                                                 rel=1e-12)
        assert float(rows[2]["rate_from_prev"]) == pytest.approx(want,
                                                                 rel=1e-12)

    def test_bad_ranks_is_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[chain-info]\np = 3\nn = 2\nranks = 2,1\n")
        assert main(["chain-info", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 2

    def test_missing_key_is_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[chain-info]\np = 3\n")
        assert main(["chain-info", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["chain-info", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path), "--quiet"]) == 2

    def test_nan_gamma_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "chain-info", "chain_info.csv",
                      self.CFG + "gamma = nan\n")

    def test_trials_flag_without_count_is_config_error(self, tmp_path,
                                                       capsys):
        err = _config_error(tmp_path, capsys, "chain-info", "chain_info.csv",
                            self.CFG, "--trials", "5")
        assert "no count for --trials" in err

    @pytest.mark.parametrize("gamma", ["1e-300", "1e-80"])
    def test_volume_underflow_is_config_error(self, tmp_path, capsys, gamma):
        # gamma^4 is 0 at 1e-300 and subnormal at 1e-80: no volume to write.
        err = _config_error(tmp_path, capsys, "chain-info", "chain_info.csv",
                            "[chain-info]\np = 3\nn = 4\nranks = 0,2,4\n"
                            f"gamma = {gamma}\n")
        assert "volume" in err and "underflows double precision" in err

    def test_row_search_over_budget_exit_3(self, tmp_path, capsys):
        # 3^30 codewords at the last rank: the row search stops at once.
        err = _infeasible(tmp_path, capsys, "chain-info", "chain_info.csv",
                          "[chain-info]\np = 3\nn = 30\nranks = 0,15,30\n")
        assert "exceed budget" in err


class TestP2pSim:
    CFG = ("[p2p-sim]\np = 3\nn = 2\nranks = 0,1,2\n"
           "P = 1.0\nN = 1e-12\ntrials = 100\n")

    def test_noiseless_pe_zero(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG)
        assert main(["p2p-sim", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 0
        rows = _rows(tmp_path / "p2p.csv")
        assert float(rows[0]["pe_hat"]) == 0.0
        assert rows[0]["list_size"] == "3"

    def test_trials_flag_overrides(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG)
        main(["p2p-sim", "--config", cfg, "--out", str(tmp_path),
              "--trials", "37", "--quiet"])
        assert _rows(tmp_path / "p2p.csv")[0]["trials"] == "37"

    def _config_error(self, tmp_path, capsys, body, *flags):
        return _config_error(tmp_path, capsys, "p2p-sim", "p2p.csv", body,
                             *flags)

    def test_nan_noise_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, capsys,
                           self.CFG.replace("N = 1e-12", "N = nan"))

    def test_inf_noise_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, capsys,
                           self.CFG.replace("N = 1e-12", "N = inf"))

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, capsys, self.CFG, "--seed", "-1")

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_is_config_error(self, tmp_path, capsys,
                                                trials):
        # --trials 0 is an override like any other, not "use the file's".
        in_file = self._config_error(tmp_path, capsys, self.CFG.replace(
            "trials = 100", f"trials = {trials}"))
        by_flag = self._config_error(tmp_path, capsys, self.CFG,
                                     "--trials", trials)
        assert in_file == by_flag
        assert f"trials must be >= 1, got {trials}" in by_flag

    def test_p_zero_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, capsys, self.CFG.replace("p = 3", "p = 0"))

    def test_row_search_over_budget_exit_3(self, tmp_path, capsys):
        # 3^14 codewords at the last rank, though the codebook is 3^13.
        _infeasible(tmp_path, capsys, "p2p-sim", "p2p.csv", self.CFG.replace(
            "n = 2\nranks = 0,1,2", "n = 14\nranks = 0,1,14"))

    @pytest.mark.parametrize("P", ["-1", "-inf"])
    def test_negative_power_is_config_error(self, tmp_path, capsys, P):
        self._config_error(tmp_path, capsys,
                           self.CFG.replace("P = 1.0", f"P = {P}"))

    @pytest.mark.parametrize("gamma", ["inf", "5e-324", "1e-310", "1e-20"])
    def test_gamma_key_is_unknown(self, tmp_path, capsys, gamma):
        # gamma is cubic_gamma(p, P); the section has no gamma key. 1e-20
        # once reached the error-event identity's AssertionError.
        err = self._config_error(tmp_path, capsys,
                                 self.CFG + f"gamma = {gamma}\n")
        assert "[p2p-sim] unknown key 'gamma'" in err


class TestRelaySim:
    CFG = ("[relay-sim]\nP = 2.0\nPR = 50.0\nNR = 1e-12\nN = 1e-12\n"
           "alpha = 0.3\nB = 10\nR = 0.7\nRR = 0.7\np = 5\nn = 2\n")

    def test_noiseless_run(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG)
        assert main(["relay-sim", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 0
        summary = _rows(tmp_path / "relay_summary.csv")[0]
        assert summary["message_errors"] == "0"
        assert len(_rows(tmp_path / "relay_blocks.csv")) == 10

    def test_invalid_alpha_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG.replace("alpha = 0.3",
                                                    "alpha = 1.5"))
        assert main(["relay-sim", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 2

    def test_inf_power_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "relay-sim", "relay_summary.csv",
                      self.CFG.replace("P = 2.0", "P = inf"))

    def test_nan_relay_noise_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "relay-sim", "relay_summary.csv",
                      self.CFG.replace("NR = 1e-12", "NR = nan"))

    def test_zero_runs_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "relay-sim", "relay_summary.csv",
                      self.CFG + "runs = 0\n")

    def test_p_one_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "relay-sim", "relay_summary.csv",
                      self.CFG.replace("p = 5", "p = 1"))

    @pytest.mark.parametrize("old, new", [("\nR = 0.7", "\nR = -1.0"),
                                          ("RR = 0.7", "RR = -2.0")])
    def test_negative_rate_is_config_error(self, tmp_path, capsys, old, new):
        err = _config_error(tmp_path, capsys, "relay-sim",
                            "relay_summary.csv", self.CFG.replace(old, new))
        assert "rates must be nonnegative" in err


class TestTwrcSim:
    CFG = ("[twrc-sim]\nP1 = 4.0\nP2 = 4.0\nPR = 200.0\n"
           "N1 = 1e-12\nN2 = 1e-12\nNR = 1e-12\n"
           "R1 = 0.8\nR2 = 0.8\nR = 3.0\nB = 10\np = 3\nn = 2\n"
           "enforce_broadcast_rate = false\n")

    def test_noiseless_run(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG)
        assert main(["twrc-sim", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path), "--quiet"]) == 0
        summary = _rows(tmp_path / "twrc_summary.csv")[0]
        assert summary["errors_dir1"] == "0"
        assert summary["errors_dir2"] == "0"

    def test_infeasible_broadcast_rate_exit_3(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG
                         .replace("R = 3.0", "R = 0.05")
                         .replace("NR = 1e-12", "NR = 0.5")
                         .replace("N1 = 1e-12", "N1 = 0.5")
                         .replace("N2 = 1e-12", "N2 = 0.5")
                         .replace("enforce_broadcast_rate = false",
                                  "enforce_broadcast_rate = true"))
        assert main(["twrc-sim", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 3

    def test_rank_one_dither_never_rejects(self, tmp_path, monkeypatch):
        # The benchmark's point has a rank-1 Lambda_2; its dither is one cube
        # draw reduced mod Lambda_2, so the run never reaches the rejection
        # sampler and exits 0 with sample_voronoi made to raise.
        def rejecting(lat, rng):
            raise RejectionBudgetExceeded("sample_voronoi was called")
        monkeypatch.setattr(Lattice, "sample_voronoi", rejecting)
        cfg = _write_cfg(tmp_path, (
            "[twrc-sim]\nP1 = 4.0\nP2 = 1.0\nPR = 200.0\nN1 = 1.0\n"
            "N2 = 1.0\nNR = 0.01\nR1 = 1.58\nR2 = 0.8\nR = 4.0\nB = 20\n"
            "p = 3\nn = 2\nruns = 2\n"))
        assert main(["twrc-sim", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert len(_rows(tmp_path / "twrc_blocks.csv")) == 20

    def test_row_search_over_budget_exit_3(self, tmp_path, capsys):
        # Rank 20 at n = 40: 3^20 codewords, and 3^40 is past int64.
        err = _infeasible(tmp_path, capsys, "twrc-sim", "twrc_summary.csv",
                          self.CFG.replace("n = 2", "n = 40"))
        assert "exceed budget" in err

    @pytest.mark.parametrize("P2", ["1e-308", "5e-324"])
    def test_power_ratio_past_double_is_infeasible(self, tmp_path, capsys,
                                                   P2):
        # P1 / P2 overflows to inf: Lambda_2's rank comes from
        # log P1 - log P2, capped at n + 1.
        err = _infeasible(tmp_path, capsys, "twrc-sim", "twrc_summary.csv",
                          self.CFG.replace("P2 = 4.0", f"P2 = {P2}"))
        assert "> n = 2" in err

    def test_nan_rate_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "twrc-sim", "twrc_summary.csv",
                      self.CFG.replace("R1 = 0.8", "R1 = nan"))

    def test_p_zero_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "twrc-sim", "twrc_summary.csv",
                      self.CFG.replace("p = 3", "p = 0"))

    def test_n_zero_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "twrc-sim", "twrc_summary.csv",
                      self.CFG.replace("n = 2", "n = 0"))


# Powers at which gamma^n underflows to 0 (n = 4): the codebooks are
# counted as p^(rank difference) and the lists sized on V_s / V, both
# free of gamma, so each run completes.
TINY_POWERS = {
    "p2p-sim": ("p2p.csv", "[p2p-sim]\np = 3\nn = 4\nranks = 0,2,4\n"
                "P = 1e-200\nN = 0.1\ntrials = 50\n"),
    "relay-sim": ("relay_summary.csv",
                  "[relay-sim]\nP = 1e-200\nPR = 4.0\nNR = 0.02\nN = 0.02\n"
                  "alpha = 0.5\nB = 4\nR = 0.5\nRR = 0.5\np = 3\nn = 4\n"
                  "runs = 1\n"),
    "twrc-sim": ("twrc_summary.csv",
                 "[twrc-sim]\nP1 = 1e-200\nP2 = 1e-200\nPR = 200.0\n"
                 "N1 = 1.0\nN2 = 1.0\nNR = 0.01\nR1 = 0.8\nR2 = 0.8\n"
                 "R = 4.0\nB = 4\np = 3\nn = 4\nruns = 1\n"
                 "enforce_broadcast_rate = false\n"),
}


@pytest.mark.parametrize("command", sorted(TINY_POWERS))
def test_powers_too_small_for_gamma_n_run(tmp_path, capsys, command):
    output, body = TINY_POWERS[command]
    cfg = _write_cfg(tmp_path, body)
    code = main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / output).exists()


class TestRegions:
    CFG = ("[regions]\nmode = physical\nP1 = 4.0\nP2 = 2.0\nPR = 8.0\n"
           "NR = 1.0\nN1p = 1.0\nN2p = 0.5\n")

    def test_outputs_and_containment(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG)
        assert main(["regions", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 0
        rows = {r["name"]: r for r in _rows(tmp_path / "regions.csv")}
        assert float(rows["achievable"]["R1"]) <= \
            float(rows["cutset"]["R1"]) + 1e-9
        assert float(rows["achievable"]["R2"]) <= \
            float(rows["cutset"]["R2"]) + 1e-9
        root = ET.parse(tmp_path / "regions.svg").getroot()
        assert root.get("version") == "1.1"

    def test_inf_relay_power_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "regions", "regions.csv",
                      self.CFG.replace("PR = 8.0", "PR = inf"))

    def test_nan_noise_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "regions", "regions.csv",
                      "[regions]\nP1 = 4.0\nP2 = 2.0\nPR = 8.0\n"
                      "N1 = nan\nN2 = 1.5\nNR = 1.0\n")

    def test_negative_physical_noise_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "regions", "regions.csv",
                      self.CFG.replace("N1p = 1.0", "N1p = -0.5"))

    def test_misspelt_mode_is_config_error(self, tmp_path, capsys):
        # N1 = N2 < NR: with mode = stochastic this is a config error too,
        # so a misspelt mode must not skip the stochastic check.
        err = _config_error(tmp_path, capsys, "regions", "regions.csv",
                            "[regions]\nmode = stochastc\nP1 = 4.0\n"
                            "P2 = 2.0\nPR = 8.0\nN1 = 0.5\nN2 = 0.5\n"
                            "NR = 1.0\n")
        assert "'stochastc'" in err


class TestGaps:
    CFG = "[gaps]\nscenario = 1\ndraws = 150\n"

    def test_gap_bound_and_svg(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG)
        assert main(["gaps", "--config", cfg, "--seed", "5",
                     "--out", str(tmp_path), "--quiet"]) == 0
        rows = _rows(tmp_path / "gaps.csv")
        assert len(rows) == 150
        assert max(float(r["max_gap"]) for r in rows) <= 0.5 + 1e-9
        ET.parse(tmp_path / "gaps.svg")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_cfg(tmp_path, self.CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["gaps", "--config", cfg, "--seed", "5",
                         "--out", str(out), "--quiet"]) == 0
        assert (out1 / "gaps.csv").read_bytes() == \
            (out2 / "gaps.csv").read_bytes()
        assert (out1 / "gaps.svg").read_bytes() == \
            (out2 / "gaps.svg").read_bytes()

    def test_inverted_range_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "gaps", "gaps.csv",
                      self.CFG + "lo = 10\nhi = 1\n")

    def test_zero_lower_end_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "gaps", "gaps.csv",
                      self.CFG + "lo = 0\n")

    def test_overflowing_upper_end_is_config_error(self, tmp_path, capsys):
        # Draws near 1e308 overflow the rate formulas into nan.
        _config_error(tmp_path, capsys, "gaps", "gaps.csv",
                      self.CFG + "hi = 1e308\n")

    @pytest.mark.parametrize("lo", ["1%", "%(hi)s"])
    def test_percent_is_a_plain_character(self, tmp_path, capsys, lo):
        err = _config_error(tmp_path, capsys, "gaps", "gaps.csv",
                            self.CFG + f"lo = {lo}\n")
        assert f"lo = {lo!r} is not a number" in err

    def test_zero_draws_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, "gaps", "gaps.csv",
                      self.CFG.replace("draws = 150", "draws = 0"))

    def test_bad_scenario_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[gaps]\nscenario = 7\ndraws = 5\n")
        assert main(["gaps", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 2


EXAMPLE_INI = Path(__file__).resolve().parents[1] / "scripts/configs/example.ini"
OUTPUT = {"chain-info": "chain_info.csv", "p2p-sim": "p2p.csv",
          "relay-sim": "relay_summary.csv", "twrc-sim": "twrc_summary.csv",
          "regions": "regions.csv", "gaps": "gaps.csv"}


def _example_config() -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    cfg.read(EXAMPLE_INI)
    return cfg


@pytest.mark.parametrize("command", _example_config().sections())
def test_bad_numbers_in_example_config_exit_cleanly(tmp_path, capsys,
                                                    command):
    """Every numeric key the schema declares for the example section, set
    to each of nan, inf, -inf, 0, -1, 1e308 and 1%, gives exit 0, 2 with a
    config error or 3 with an infeasibility, never an exception or a
    RuntimeWarning (numpy's overflow and invalid-value warnings) out of
    main; a run that exits 0 writes no nan or inf into its CSV files."""
    cfg = _example_config()
    section = cfg[command]
    keys = section_keys(command, section)
    numeric = [k for k, (parse, _) in keys.items() if parse in (int, float)]
    faults = []
    for key in numeric:
        value = section.get(key)
        for bad in ("nan", "inf", "-inf", "0", "-1", "1e308", "1%"):
            section[key] = bad
            path = tmp_path / "cfg.ini"
            with open(path, "w") as fh:
                cfg.write(fh)
            if value is None:
                del section[key]
            else:
                section[key] = value
            count = COUNT.get(command)
            flags = ["--trials", "1"] if count not in (None, key) else []
            out = tmp_path / f"out_{key}_{bad}"
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main([command, "--config", str(path), "--quiet",
                                 "--out", str(out), *flags])
            except Exception as exc:    # escaped main: always a fault
                code = repr(exc)
            err = capsys.readouterr().err
            want = {0: "", 2: "config error:", 3: "infeasible:"}.get(code)
            if want is None or not err.startswith(want):
                faults.append(f"{key} = {bad}: exit {code}, stderr {err!r}")
            written = sorted(out.glob("*.csv")) if code == 0 else []
            for table in written:
                if re.search(r"\b(nan|inf)\b", table.read_text(), re.I):
                    faults.append(f"{key} = {bad}: nan or inf in {table.name}")
    assert not faults


@pytest.mark.parametrize("command", _example_config().sections())
def test_missing_required_keys_are_config_errors(tmp_path, capsys, command):
    cfg = _example_config()
    section = cfg[command]
    required = [k for k, (_, default) in section_keys(command,
                                                      section).items()
                if default is REQUIRED]
    assert required or command == "gaps"
    for key in required:
        body = "".join(f"{k} = {v}\n" for k, v in section.items() if k != key)
        err = _config_error(tmp_path, capsys, command, OUTPUT[command],
                            f"[{command}]\n{body}")
        assert f"missing required key '{key}'" in err


@pytest.mark.parametrize("command, line, suggestion", [
    ("chain-info", "gama = 1.0", "gamma"),
    ("p2p-sim", "trails = 10", "trials"),
    ("relay-sim", "b = 40", "B"),
    ("relay-sim", "rnus = 5", "runs"),
    ("twrc-sim", "enforce_broadcast = false", "enforce_broadcast_rate"),
    ("regions", "N1 = 1.5", "N1p"),     # N1 is read only without physical
    ("gaps", "draw = 5", "draws"),
    ("p2p-sim", "gamma = 1.0", None),   # no key is close: no suggestion
])
def test_unknown_key_is_config_error(tmp_path, capsys, command, line,
                                     suggestion):
    body = EXAMPLE_INI.read_text().replace(f"[{command}]\n",
                                           f"[{command}]\n{line}\n")
    err = _config_error(tmp_path, capsys, command, OUTPUT[command], body)
    key = line.split(" = ")[0]
    assert f"[{command}] unknown key '{key}'" in err
    if suggestion is None:
        assert "did you mean" not in err
    else:
        assert f"did you mean '{suggestion}'?" in err


def test_default_section_keys_are_checked(tmp_path, capsys):
    """configparser merges [DEFAULT] into every section: its keys are read
    like the section's own, and an unknown one is rejected."""
    body = "[DEFAULT]\np = 3\nn = 2\n\n" + TestChainInfo.CFG.replace(
        "p = 3\nn = 2\n", "")
    cfg = _write_cfg(tmp_path, body)
    assert main(["chain-info", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert len(_rows(tmp_path / "chain_info.csv")) == 3
    (tmp_path / "chain_info.csv").unlink()
    err = _config_error(tmp_path, capsys, "chain-info", "chain_info.csv",
                        "[DEFAULT]\nrnus = 5\n\n" + TestChainInfo.CFG)
    assert "unknown key 'rnus'" in err


def test_csv_lf_endings_and_dot_decimals(tmp_path):
    cfg = _write_cfg(tmp_path, TestGaps.CFG)
    main(["gaps", "--config", cfg, "--seed", "1", "--trials", "20",
          "--out", str(tmp_path), "--quiet"])
    raw = (tmp_path / "gaps.csv").read_bytes()
    assert b"\r" not in raw
    assert b"," in raw and b";" not in raw
