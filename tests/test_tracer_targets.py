"""The benchmark's tracer binds latrelay names by their dotted path; a
name it traces must stay where it looks for it, or the traced pass fails
before it measures anything."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span, owner, attr",
                         [t[:3] for t in tracer.TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in tracer.TARGETS])
def test_target_is_bound_on_its_owner(span, owner, attr):
    # The tracer wraps owner.__dict__[attr]: an inherited method or a
    # missing name would break its install, so the attribute must be the
    # owner's own.
    obj = tracer._resolve(owner)
    assert attr in vars(obj), f"{span}: {owner} has no own attribute {attr}"


def test_block_markov_round_keeps_the_benchmark_seams(monkeypatch):
    # One round of the benchmark's block_markov workload under the tracer,
    # checked as the benchmark checks it. Its brute-force list check
    # records NestedListDecoder.decode, and it counts one such call per
    # DF block. Its TWRC Lambda_2 is not cubic, yet every dither is a cube
    # draw reduced mod its lattice: no operation calls sample_voronoi, so
    # the accept ratio reads 0.
    monkeypatch.syspath_prepend(str(TRACER.parent))
    import workloads
    from worker import Loop
    wl = workloads.make("block_markov")
    state = wl.setup(5)
    tr = tracer.Tracer()
    tr.install()
    try:
        loop = Loop(wl, state, tr).run(rounds=1)
    finally:
        tr.uninstall()
    failed, correct, messages = loop.check()
    assert correct and failed == 0, messages
    assert tr.child_calls("channel.decode", "relay.df_round_trip") == \
        wl.df.B + 1
    assert state["tw"].lam2.k >= 1
    assert "lattice.sample_voronoi" not in tr.summary()["ops"]
    assert tr.accept_ratio() == 0
