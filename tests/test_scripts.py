"""Smoke tests of the example scripts: each runs in a fresh process on a
small input and prints the lines it documents. The region figure is a
config section, run through the CLI."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import latrelay
from latrelay.cli import main
from latrelay.rates import (
    TwrcParams,
    cutset_degraded,
    two_way_no_relay,
    twrc_region,
)

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, returncode=0):
    src = str(Path(latrelay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == returncode, proc.stderr
    assert not proc.stderr
    return proc.stdout.splitlines()


def test_p2p_error_sweep_prints_csv():
    lines = _run_script("p2p_error_sweep.py", "--trials", "50")
    assert lines[0] == "N,pe_hat,pe_ci95,list_size"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
    for r in rows:
        assert 0.0 <= float(r[1]) <= 1.0
        assert r[3] == "3"                   # ranks 0,1,2 at p = 3


def test_relay_df_demo_prints_one_line_per_noise_level():
    lines = _run_script("relay_df_demo.py", "--runs", "1", "--B", "2")
    assert len(lines) == 3
    for line, level in zip(lines, ("0.02", "0.05", "0.1")):
        assert line.startswith(f"NR=N={level}: error rate ")
        assert "over 2 messages" in line


def test_example_config_draws_the_region_figure(tmp_path):
    # [regions] of the example config: the physically degraded TWRC with
    # P1 = 4, P2 = 2, PR = 8, NR = 1, N1' = 1, N2' = 0.5.
    cfg = ROOT / "scripts" / "configs" / "example.ini"
    assert main(["regions", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    svg = (tmp_path / "regions.svg").read_text()
    for label in ("cut-set (degraded)", "achievable (list DF)",
                  "two-way, no relay"):
        assert label in svg
    params = TwrcParams.physically_degraded(P1=4.0, P2=2.0, PR=8.0, NR=1.0,
                                            N1p=1.0, N2p=0.5)
    want = {"achievable": twrc_region(params),
            "no-relay": two_way_no_relay(params),
            "cutset": cutset_degraded(params)}
    lines = (tmp_path / "regions.csv").read_text().splitlines()
    assert lines[0] == "name,R1,R2"
    assert lines[1:] == [f"{name},{r.R1!r},{r.R2!r}"
                         for name, r in want.items()]


def test_ab_inprocess_runs_one_checkout_against_itself():
    lines = _run_script("ab_inprocess.py", str(ROOT), str(ROOT),
                        "--workload", "p2p_n2", "--blocks", "2",
                        "--rounds", "1")
    assert lines[0] == "workload p2p_n2, seed 9701, 2 blocks of 1 rounds " \
                       "per side"
    assert lines[1].startswith(f"A {ROOT}: median ")
    assert lines[2].startswith(f"B {ROOT}: median ")
    assert lines[1].endswith(" ms/op") and lines[2].endswith(" ms/op")
    assert lines[3].startswith("paired median B/A ")
    assert " of 2 blocks, A in " in lines[3]
    # one round of p2p_n2 is its four noise levels
    assert lines[4] == "outputs equal in 8 of 8 operations"


def test_ab_inprocess_exits_1_when_outputs_differ(tmp_path):
    # Side B is a copy of this checkout's package whose DF and TWRC
    # message streams have another key, so its block_markov outputs
    # differ from side A's.
    shutil.copytree(ROOT / "src" / "latrelay", tmp_path / "src" / "latrelay",
                    ignore=shutil.ignore_patterns("__pycache__"))
    channel = tmp_path / "src" / "latrelay" / "channel.py"
    text = channel.read_text()
    key = '"messages": (0xB10C1, 0xB10C2)'
    assert text.count(key) == 1
    channel.write_text(text.replace(key, '"messages": (0xB10C8, 0xB10C2)'))
    lines = _run_script("ab_inprocess.py", str(ROOT), str(tmp_path),
                        "--workload", "block_markov", "--blocks", "2",
                        "--rounds", "1", returncode=1)
    assert lines[-1] == "outputs equal in 0 of 2 operations"


@pytest.mark.parametrize("workload,ops", [("p2p_n8", 8), ("block_markov", 2),
                                          ("gap_batch", 100)])
def test_ab_inprocess_compares_outputs_of_every_workload(workload, ops):
    lines = _run_script("ab_inprocess.py", str(ROOT), str(ROOT),
                        "--workload", workload, "--blocks", "2",
                        "--rounds", "1")
    assert lines[-1] == f"outputs equal in {ops} of {ops} operations"
