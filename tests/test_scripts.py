"""Smoke tests of the example scripts: each runs in a fresh process on a
small input and prints the lines it documents."""

import os
import subprocess
import sys
from pathlib import Path

import latrelay

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    src = str(Path(latrelay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
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
