import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from latrelay.cli import main


def _write_cfg(tmp_path, body):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(body)
    return str(cfg)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _config_error(tmp_path, capsys, command, output, body, *flags):
    """The command exits 2 with a one-line config error and writes no
    output file."""
    cfg = _write_cfg(tmp_path, body)
    code = main([command, "--config", cfg, "--out", str(tmp_path),
                 "--quiet", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / output).exists()


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
        _config_error(tmp_path, capsys, "p2p-sim", "p2p.csv", body, *flags)

    def test_nan_noise_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, capsys,
                           self.CFG.replace("N = 1e-12", "N = nan"))

    def test_inf_noise_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, capsys,
                           self.CFG.replace("N = 1e-12", "N = inf"))

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, capsys, self.CFG, "--seed", "-1")


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

    def test_bad_scenario_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[gaps]\nscenario = 7\ndraws = 5\n")
        assert main(["gaps", "--config", cfg,
                     "--out", str(tmp_path), "--quiet"]) == 2


def test_csv_lf_endings_and_dot_decimals(tmp_path):
    cfg = _write_cfg(tmp_path, TestGaps.CFG)
    main(["gaps", "--config", cfg, "--seed", "1", "--trials", "20",
          "--out", str(tmp_path), "--quiet"])
    raw = (tmp_path / "gaps.csv").read_bytes()
    assert b"\r" not in raw
    assert b"," in raw and b";" not in raw
