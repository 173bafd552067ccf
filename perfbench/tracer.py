"""Span tracer for the traced pass, installed from outside the program.

Each layer is a latrelay module. ``Tracer.install`` replaces the public
functions and methods listed in ``TARGETS`` with timing wrappers: class
attributes for methods, and for module functions every binding of the
same object in every loaded ``latrelay`` module, so a function imported
by name elsewhere (``from .channel import trial_rng``) is traced at each
call site too. ``uninstall`` puts the originals back.

A span is [name, start, end, parent index, operation id, child time,
quantity]. Spans stay in memory until ``write``; self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np

# Operation ids for spans outside the operation phase.
SETUP = -1
CLI = -2


def _rows_arg(args, kwargs, out):
    return np.atleast_2d(np.asarray(args[1])).shape[0]


def _rows_out(args, kwargs, out):
    return out.shape[0]


def _count_evals(args, kwargs, rec):
    """Wrap the objective so every point it is evaluated at is counted."""
    f = args[0]

    def counted(x):
        rec[6] += np.size(x)
        return f(x)
    return (counted,) + tuple(args[1:]), kwargs


# (span name, owner path, attribute, pre hook, quantity hook). The owner
# is a module or a class inside one.
TARGETS = (
    ("lattice.nearest", "latrelay.lattice.Lattice", "nearest", None, None),
    ("lattice.nearest", "latrelay.lattice.ConstructionALattice", "nearest",
     None, None),
    ("lattice.nearest_many", "latrelay.lattice.Lattice", "nearest_many",
     None, _rows_arg),
    ("lattice.nearest_many", "latrelay.lattice.ConstructionALattice",
     "nearest_many", None, _rows_arg),
    ("lattice.mod", "latrelay.lattice.Lattice", "mod", None, None),
    ("lattice.mod", "latrelay.lattice.Lattice", "mod_many", None, None),
    ("lattice.sample_voronoi", "latrelay.lattice.Lattice", "sample_voronoi",
     None, None),
    ("lattice.construct", "latrelay.lattice.ConstructionALattice", "__init__",
     None, None),
    ("lattice.enumerate_codebook", "latrelay.lattice", "enumerate_codebook",
     None, None),
    ("lattice.second_moment", "latrelay.lattice", "second_moment", None, None),
    ("gf.rref", "latrelay.gf", "rref", None, None),
    ("gf.all_codewords", "latrelay.gf", "all_codewords", None, _rows_out),
    ("chain.build_chain", "latrelay.chain", "build_chain", None, None),
    ("chain.pick_generator_rows", "latrelay.chain", "pick_generator_rows",
     None, None),
    ("chain.shortest_vector_norm", "latrelay.chain", "shortest_vector_norm",
     None, None),
    ("channel.simulate_p2p", "latrelay.channel", "simulate_p2p", None, None),
    ("channel.trial_rng", "latrelay.channel", "trial_rng", None, None),
    ("channel.decoder_init", "latrelay.channel.NestedListDecoder", "__init__",
     None, None),
    ("channel.decode", "latrelay.channel.NestedListDecoder", "decode",
     None, None),
    ("channel.unique_decode", "latrelay.channel", "unique_decode", None, None),
    ("relay.df_round_trip", "latrelay.relay", "df_round_trip", None, None),
    ("twrc.twrc_round_trip", "latrelay.twrc", "twrc_round_trip", None, None),
    ("twrc.sum_codeword", "latrelay.twrc", "sum_codeword", None, None),
    ("twrc.bin_of_sum", "latrelay.twrc.TwrcCodebooks", "bin_of_sum",
     None, None),
    ("twrc.relay_decode_sum", "latrelay.twrc", "relay_decode_sum", None, None),
    ("rates.gap_report", "latrelay.rates", "gap_report", None, None),
    ("rates.maximize_unimodal", "latrelay.rates", "maximize_unimodal",
     _count_evals, None),
    ("rates.cutset", "latrelay.rates", "cutset_degraded", None, None),
    ("rates.cutset", "latrelay.rates", "cutset_general", None, None),
    ("rates.sample_twrc_params", "latrelay.rates", "sample_twrc_params",
     None, None),
    ("cli.write", "latrelay.cli", "_write_text", None, None),
    ("svgplot.emit_plot", "latrelay.svgplot", "emit_plot", None, None),
)


def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise LookupError(f"cannot import {path}")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op_id = SETUP
        self.origin = perf_counter()
        self._saved: list = []

    def _wrap(self, name, fn, pre, qty):
        spans, stack = self.spans, self.stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op_id, 0.0, 0]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            if pre is not None:
                args, kwargs = pre(args, kwargs, rec)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
            if qty is not None:
                rec[6] += qty(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        owners = [_resolve(target[1]) for target in TARGETS]
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "latrelay" or k.startswith("latrelay."))
                   and m is not None]
        for (name, _, attr, pre, qty), owner in zip(TARGETS, owners):
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, pre, qty)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [m for m in modules if vars(m).get(attr) is original]
            for site in sites:
                self._saved.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original in reversed(self._saved):
            setattr(site, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """phase -> span name -> [calls, total s, self s, quantity], with
        phase "setup", "cli" or "ops"."""
        out = {"setup": {}, "cli": {}, "ops": {}}
        for name, t0, t1, _, op, child, qty in self.spans:
            phase = "ops" if op >= 0 else ("setup" if op == SETUP else "cli")
            acc = out[phase].setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - child
            acc[3] += qty
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Calls of ``child`` made directly by ``parent`` in the operation
        phase."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == child and s[4] >= 0
                   and s[3] >= 0 and spans[s[3]][0] == parent)

    def accept_ratio(self) -> float:
        """Samples returned by sample_voronoi over the nearest-point calls
        it made, in the operation phase (0 when it never ran)."""
        samples = sum(1 for s in self.spans
                      if s[0] == "lattice.sample_voronoi" and s[4] >= 0)
        tries = self.child_calls("lattice.nearest", "lattice.sample_voronoi")
        return samples / tries if tries else 0.0

    def write(self, path):
        """Spans as CSV: name, start and end in microseconds since the
        tracer was made, parent span index (-1 for none), operation id."""
        with open(path, "w", newline="\n") as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            o = self.origin
            for name, t0, t1, parent, op, _, _ in self.spans:
                fh.write(f"{name},{(t0 - o) * 1e6:.1f},{(t1 - o) * 1e6:.1f},"
                         f"{parent},{op}\n")
