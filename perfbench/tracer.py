"""Spans and counters around the calls fuzzcluster makes between its modules.

The tracer replaces each listed module-level function with a wrapper, in every
fuzzcluster module that holds a reference to it, because the package imports
functions by name (``from .fis2 import eval_t2fis``). Spans go to flat arrays
in memory and are written out once the traced repetition ends. Nothing inside
the package is changed; ``uninstall`` puts every original back.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

# (module, function, span name). A span name may cover several functions.
SPANS = (
    ("fuzzcluster.config", "parse_config", "config.parse"),
    ("fuzzcluster.cli", "main", "cli.main"),
    ("fuzzcluster.csvio", "cluster_rows", "cli.cluster_rows"),
    ("fuzzcluster.csvio", "write_metrics_csv", "csvio.write"),
    ("fuzzcluster.csvio", "write_summary_csv", "csvio.write"),
    ("fuzzcluster.csvio", "write_positions_csv", "csvio.write"),
    ("fuzzcluster.csvio", "write_clusters_csv", "csvio.write"),
    ("fuzzcluster.csvio", "write_fis1_surface", "csvio.surface"),
    ("fuzzcluster.csvio", "write_fis2_surface", "csvio.surface"),
    ("fuzzcluster.simulator", "run_simulation", "simulator.run"),
    ("fuzzcluster.simulator", "apply_round_energy", "simulator.apply_energy"),
    ("fuzzcluster.network", "deploy_from_rng", "network.build"),
    ("fuzzcluster.network", "network_from_positions", "network.build"),
    ("fuzzcluster.network", "normalize_inputs", "network.inputs"),
    ("fuzzcluster.protocols", "run_protocol_round", "protocols.round"),
    ("fuzzcluster.protocols", "select_provisional", "protocols.select"),
    ("fuzzcluster.protocols", "compute_radius_chance", "protocols.radius_chance"),
    ("fuzzcluster.protocols", "compete_final_chs", "protocols.compete"),
    ("fuzzcluster.protocols", "assign_members", "protocols.join"),
    ("fuzzcluster.protocols", "build_routes", "protocols.route"),
    ("fuzzcluster.fis1", "eval_fis1", "fis1.eval"),
    ("fuzzcluster.fis1", "infer_mamdani", "fis1.infer"),
    ("fuzzcluster.fis1", "defuzz_coa", "fis1.defuzz"),
    ("fuzzcluster.fis2", "eval_t2fis", "fis2.eval"),
    ("fuzzcluster.fis2", "km_type_reduce", "fis2.km"),
)
# Called too often for a span each: counted only.
COUNTS = (
    ("fuzzcluster.energy", "tx_energy", "energy.tx_calls"),
    ("fuzzcluster.energy", "rx_energy", "energy.rx_calls"),
)
WRITERS = ("csvio.write", "csvio.surface")


class Tracer:
    def __init__(self) -> None:
        self.table: list[str] = []
        self.span_name = array("b")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name, span in SPANS:
            orig = getattr(importlib.import_module(mod_name), fn_name)
            self._replace(orig, self._span_wrapper(orig, span, self._post_hook(orig, span)))
        for mod_name, fn_name, counter in COUNTS:
            orig = getattr(importlib.import_module(mod_name), fn_name)
            self._replace(orig, self._count_wrapper(orig, counter))
        rng_cls = importlib.import_module("fuzzcluster.rng").Xorshift64Star
        self._restore.append((rng_cls, "random", rng_cls.random))
        rng_cls.random = self._count_wrapper(rng_cls.random, "rng.draws")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _replace(self, orig, wrapper) -> None:
        """Rebind every fuzzcluster module-level name that refers to orig."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fuzzcluster" or mod_name.startswith("fuzzcluster.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _post_hook(self, fn, span):
        counts = self.counts
        if span == "protocols.compete":
            def post(args, kwargs, result):
                counts["protocols.candidates"] = counts.get("protocols.candidates", 0) + len(args[0])
                counts["protocols.heads"] = counts.get("protocols.heads", 0) + len(result)
            return post
        if span == "protocols.join":
            def post(args, kwargs, result):
                counts["protocols.orphans"] = counts.get("protocols.orphans", 0) + result[1]
            return post
        if span in WRITERS:
            pos = list(inspect.signature(fn).parameters).index("path")

            def post(args, kwargs, result):
                path = kwargs["path"] if "path" in kwargs else args[pos]
                counts["csvio.bytes"] = counts.get("csvio.bytes", 0) + os.path.getsize(path)
            return post
        return None

    def _span_wrapper(self, fn, span, post):
        if span not in self.table:
            self.table.append(span)
        nid = self.table.index(span)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, errors, clock = self.stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[span] = errors.get(span, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn, counter):
        counts = self.counts
        counts.setdefault(counter, 0)

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # --- reading -----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int8).astype(np.int64),
            np.frombuffer(self.span_parent, dtype=np.int32).astype(np.int64),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
        )

    def write_spans(self, path: str) -> None:
        names, parents, starts, ends = self.arrays()
        np.savez(path, table=np.array(self.table), name=names, parent=parents, start=starts, end=ends)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals. Self time is a span's duration minus the time its
        direct child spans cover (children of one span never overlap)."""
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child

        def select(span):
            return names == self.table.index(span) if span in self.table else np.zeros(len(names), bool)

        def total(span):
            return float(dur[select(span)].sum())

        def self_total(span):
            return float(own[select(span)].sum())

        def calls(span):
            return int(select(span).sum())

        count = self.counts.get
        err = self.errors.get
        candidates = count("protocols.candidates", 0)
        out = {
            "fis2.eval_s": total("fis2.eval"),
            "fis2.km_s": total("fis2.km"),
            "fis2.evals": calls("fis2.eval"),
            "fis2.fallbacks": err("fis2.eval", 0),
            "fis1.eval_s": total("fis1.eval"),
            "fis1.infer_s": total("fis1.infer"),
            "fis1.defuzz_s": total("fis1.defuzz"),
            "fis1.evals": calls("fis1.eval"),
            "fis1.fallbacks": err("fis1.eval", 0),
            "protocols.round_s": total("protocols.round"),
            "protocols.round_self_s": self_total("protocols.round"),
            "protocols.select_s": total("protocols.select"),
            "protocols.radius_chance_s": total("protocols.radius_chance"),
            "protocols.compete_s": total("protocols.compete"),
            "protocols.join_s": total("protocols.join"),
            "protocols.route_s": total("protocols.route"),
            "protocols.candidates": candidates,
            "protocols.heads": count("protocols.heads", 0),
            "protocols.orphans": count("protocols.orphans", 0),
            "protocols.finals_per_candidate": (
                count("protocols.heads", 0) / candidates if candidates else 0.0
            ),
            "network.build_s": total("network.build"),
            "network.builds": calls("network.build"),
            "network.inputs_s": total("network.inputs"),
            "network.inputs_calls": calls("network.inputs"),
            "energy.tx_calls": count("energy.tx_calls", 0),
            "energy.rx_calls": count("energy.rx_calls", 0),
            "simulator.apply_energy_s": total("simulator.apply_energy"),
            "simulator.loop_self_s": self_total("simulator.run"),
            "simulator.rounds": calls("protocols.round"),
            "csvio.write_s": total("csvio.write"),
            "csvio.bytes": count("csvio.bytes", 0),
            "csvio.surface_s": total("csvio.surface"),
            "cli.cluster_rows_s": total("cli.cluster_rows"),
            "cli.total_s": total("cli.main"),
            "config.parse_s": total("config.parse"),
            "rng.draws": count("rng.draws", 0),
        }
        round_ms = self._round_ms(names, parents, starts, ends, select("protocols.round"))
        p50, p99 = np.percentile(round_ms, [50, 99]) if len(round_ms) else (0.0, 0.0)
        out["simulator.round_ms_p50"] = float(p50)
        out["simulator.round_ms_p99"] = float(p99)
        return out

    @staticmethod
    def _round_ms(names, parents, starts, ends, is_round) -> np.ndarray:
        """One loop iteration of run_simulation: from a round's start to the
        next round's start, or to the end of the run for the last round."""
        idx = np.flatnonzero(is_round)
        if not len(idx):
            return np.zeros(0)
        idx = idx[np.lexsort((starts[idx], parents[idx]))]
        nxt = np.empty(len(idx))
        same_run = parents[idx[1:]] == parents[idx[:-1]]
        nxt[:-1] = np.where(same_run, starts[idx[1:]], ends[parents[idx[:-1]]])
        nxt[-1] = ends[parents[idx[-1]]]
        return (nxt - starts[idx]) * 1e3
