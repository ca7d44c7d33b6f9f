"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import itertools
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import deploy, mf_at
from fuzzcluster.cli import main as cli_main
from fuzzcluster.config import parse_config
from fuzzcluster.energy import RadioParams, threshold_distance, tx_energy
from fuzzcluster.fis1 import RULES_27, default_rulebase1, defuzz_coa
from fuzzcluster.fis2 import RULES_9, default_rulebase2, eval_t2fis, km_type_reduce
from fuzzcluster.protocols import ch_threshold, run_protocol_round
from fuzzcluster.simulator import run_simulation
from fuzzcluster.rng import Xorshift64Star


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL {label}")
        raise
    print(f"[criterion {num:2d}] PASS {label}")


def scenario1(kind, **kw):
    cfg = parse_config("ch2-scenario1")
    return replace(cfg, protocol=replace(cfg.protocol, kind=kind), **kw)


def test_criterion_01_coa_matches_closed_form_oracle():
    def closed_form(verts):
        num = den = 0.0
        for (x0, h0), (x1, h1) in zip(verts, verts[1:]):
            if x1 == x0:
                continue
            m = (h1 - h0) / (x1 - x0)
            b = h0 - m * x0
            den += m * (x1**2 - x0**2) / 2 + b * (x1 - x0)
            num += m * (x1**3 - x0**3) / 3 + b * (x1**2 - x0**2) / 2
        return num / den

    with criterion(1, "COA equals the piecewise-linear centroid oracle to 1e-4 (<1 s)"):
        rng = np.random.default_rng(424242)
        start = time.perf_counter()
        for _ in range(100):
            n_verts = int(rng.integers(3, 12))
            xs = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, n_verts)), [1.0]))
            hs = rng.uniform(0, 1, len(xs))
            hs[int(rng.integers(0, len(hs)))] = max(float(hs.max()), 0.2)
            grid = (np.arange(1001) + 0.5) / 1001
            mu = np.interp(grid, xs, hs)
            got = defuzz_coa(mu[None], grid)[0]
            want = closed_form(list(zip(xs, hs)))
            assert abs(got - want) <= 1e-4, (got, want)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_km_matches_exhaustive_enumeration():
    with criterion(2, "KM equals 2^K endpoint enumeration to 1e-9, K<=9, 200 instances (<5 s)"):
        rng = np.random.default_rng(7070707)
        start = time.perf_counter()
        for _ in range(200):
            k = int(rng.integers(1, 10))
            fu = rng.uniform(0, 1, k)
            fu[int(rng.integers(0, k))] = max(float(fu.max()), 0.05)
            fl = rng.uniform(0, 1, k) * fu
            w = rng.uniform(0, 1, k)
            firings = np.array([fl, fu])[:, :, None]
            lo_bf, hi_bf = float("inf"), float("-inf")
            for combo in itertools.product(*zip(fl.tolist(), fu.tolist())):
                den = sum(combo)
                if den <= 0.0:
                    continue
                y = sum(f * wi for f, wi in zip(combo, w)) / den
                lo_bf, hi_bf = min(lo_bf, y), max(hi_bf, y)
            lo, hi = km_type_reduce(firings, [list(w)])[:, 0, 0]
            assert lo <= hi
            assert abs(lo - lo_bf) <= 1e-9
            assert abs(hi - hi_bf) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_03_type2_collapses_to_type1_at_blur_zero():
    with criterion(3, "blur=0 type-2 equals the type-1 weighted centroid to 1e-9 on a 21x21 grid"):
        rb = default_rulebase2(blur=0.0)
        for db in np.linspace(0, 1, 21):
            for re in np.linspace(0, 1, 21):
                radius, chance = eval_t2fis(rb, float(db), float(re))
                num_r = num_c = den = 0.0
                for rule in rb.rules:
                    f = mf_at(rb.distance_mfs[rule.distance].lower, db) * mf_at(
                        rb.energy_mfs[rule.energy].lower, re
                    )
                    num_r += f * rule.w_radius
                    num_c += f * rule.w_chance
                    den += f
                assert abs(radius - num_r / den) <= 1e-9
                assert abs(chance - num_c / den) <= 1e-9


def test_criterion_04_energy_model_point_checks():
    with criterion(4, "d0 = 87.7058 m / 100 m, tx(4000, 50 m) = 3.0e-4 J, tx continuous at d0"):
        ch2 = RadioParams(50e-9, 10e-12, 0.0013e-12, 5e-9, 4000, 200)
        ch3 = RadioParams(50e-9, 10e-12, 0.0010e-12, 5e-9, 4000, 200)
        assert abs(threshold_distance(ch2) - 87.7058) <= 1e-3
        assert abs(threshold_distance(ch3) - 100.0) <= 1e-3
        assert tx_energy(ch2, 4000, 50.0) == pytest.approx(3.0e-4, rel=1e-12)
        d0 = threshold_distance(ch2)
        below = tx_energy(ch2, 4000, d0)
        above = 4000 * ch2.e_elec + 4000 * ch2.eps_mp * d0**4
        assert below == pytest.approx(above, rel=1e-12)


def test_criterion_05_per_round_energy_conservation():
    with criterion(5, "per-node spend sums to the residual delta (1e-12 rel), 3 protocols x 5 seeds"):
        for kind in ("leach", "fuzzy_unequal", "type2fl"):
            for seed in range(1, 6):
                cfg = scenario1(kind, seed=seed, max_rounds=1500)
                result = run_simulation(cfg)
                prev_total = cfg.n * cfg.initial_energy
                for m in result.rounds:
                    delta = prev_total - m.total_j
                    assert abs(m.spent_j - delta) <= 1e-12 * max(abs(delta), abs(m.spent_j))
                    prev_total = m.total_j
                assert result.rounds  # at least one round priced


def test_criterion_06_threshold_formula_exact():
    with criterion(6, "rotating threshold hits 0.05, 0.05/0.65 and 1.0 exactly"):
        assert ch_threshold(0.05, 0) == 0.05
        assert ch_threshold(0.05, 7) == 0.05 / 0.65
        assert ch_threshold(0.05, 19) == 1.0


def test_criterion_07_lifetime_ordering_fuzzy_vs_leach():
    with criterion(7, "median FND and HND: fuzzy unequal clustering beats the rotating baseline (<2 min)"):
        start = time.perf_counter()
        censored = 2001
        medians = {}
        for kind in ("leach", "fuzzy_unequal"):
            fnds, hnds = [], []
            for seed in range(1, 11):
                res = run_simulation(scenario1(kind, seed=seed, max_rounds=2000))
                fnds.append(res.fnd if res.fnd is not None else censored)
                hnds.append(res.hnd if res.hnd is not None else censored)
            medians[kind] = (statistics.median(fnds), statistics.median(hnds))
        assert medians["fuzzy_unequal"][0] > medians["leach"][0], medians
        assert medians["fuzzy_unequal"][1] > medians["leach"][1], medians
        assert time.perf_counter() - start < 120.0


def test_criterion_08_competition_radius_grows_with_sink_distance():
    with criterion(8, "mean CH radius: near-sink third < far third over 30 seeded rounds"):
        cfg = scenario1("fuzzy_unequal")
        net = deploy(cfg.n, cfg.area_side, cfg.bs_pos, seed=404, initial_energy=cfg.initial_energy)
        rng = Xorshift64Star(404)
        lo = net.bs_dist.min()
        span = net.bs_dist.max() - lo
        near, far = [], []
        for r in range(1, 31):
            plan = run_protocol_round(net, cfg, rng, r)
            for c in plan.clusters:
                if c.radius <= 0.0:
                    continue
                d = net.bs_dist[c.head]
                if d <= lo + span / 3:
                    near.append(c.radius)
                elif d >= lo + 2 * span / 3:
                    far.append(c.radius)
        assert near and far
        assert float(np.mean(near)) < float(np.mean(far)), (np.mean(near), np.mean(far))


def test_criterion_09_metrics_csv_byte_identical(tmp_path):
    with criterion(9, "identical config+seed writes byte-identical metrics CSV"):
        args = ["--preset", "ch2-scenario1", "--protocol", "fuzzy-unequal", "--seed", "11",
                "--rounds", "120"]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b and len(a) > 0


# independently transcribed rule tables; any edit to the shipped ones fails here
TABLE_27 = (
    ("close", "less", "high", "very_small", "very_poor"),
    ("close", "less", "med", "small", "poor"),
    ("close", "less", "low", "rather_small", "below_avg"),
    ("close", "avg", "high", "small", "avg"),
    ("close", "avg", "med", "rather_small", "below_avg"),
    ("close", "avg", "low", "medium_small", "poor"),
    ("close", "high", "high", "rather_small", "very_strong"),
    ("close", "high", "med", "small", "strong"),
    ("close", "high", "low", "medium_small", "above_avg"),
    ("far", "less", "high", "medium_small", "avg"),
    ("far", "less", "med", "rather_small", "below_avg"),
    ("far", "less", "low", "small", "poor"),
    ("far", "avg", "high", "medium_large", "below_avg"),
    ("far", "avg", "med", "medium", "avg"),
    ("far", "avg", "low", "medium_small", "below_avg"),
    ("far", "high", "high", "medium_large", "strong"),
    ("far", "high", "med", "medium", "above_avg"),
    ("far", "high", "low", "medium_small", "avg"),
    ("farthest", "less", "high", "large", "poor"),
    ("farthest", "less", "med", "medium_large", "very_poor"),
    ("farthest", "less", "low", "medium", "below_avg"),
    ("farthest", "avg", "high", "rather_large", "avg"),
    ("farthest", "avg", "med", "large", "below_avg"),
    ("farthest", "avg", "low", "medium_large", "above_avg"),
    ("farthest", "high", "high", "large", "very_strong"),
    ("farthest", "high", "med", "rather_large", "strong"),
    ("farthest", "high", "low", "very_large", "above_avg"),
)

TABLE_9 = (
    ("proximate", "low", "very_small", "very_weak"),
    ("proximate", "med", "small", "weak"),
    ("proximate", "adv", "medium", "medium"),
    ("moderate", "low", "small", "weak"),
    ("moderate", "med", "medium_small", "medium"),
    ("moderate", "adv", "medium", "higher_medium"),
    ("far", "low", "medium_small", "strong"),
    ("far", "med", "large", "higher_medium"),
    ("far", "adv", "very_large", "strong"),
)


def test_criterion_10_rule_table_fidelity():
    with criterion(10, "27- and 9-rule tables match the transcription tuple for tuple"):
        assert RULES_27 == TABLE_27
        assert RULES_9 == TABLE_9
        rb1 = default_rulebase1()
        got_27 = tuple(r.antecedents + r.consequents for r in rb1.rules)
        assert got_27 == TABLE_27
        rb2 = default_rulebase2()
        got_9 = tuple((r.distance, r.energy, r.radius, r.chance) for r in rb2.rules)
        assert got_9 == TABLE_9


def test_criterion_11_routes_reach_sink_with_strict_progress():
    with criterion(11, "every route reaches the sink within |finals| hops, strictly sink-ward"):
        for kind, seed in (("fuzzy_unequal", 51), ("type2fl", 52), ("leach", 53)):
            cfg = scenario1(kind, seed=seed, max_rounds=60)
            net = deploy(cfg.n, cfg.area_side, cfg.bs_pos, seed=seed, initial_energy=cfg.initial_energy)
            rng = Xorshift64Star(seed)
            for r in range(1, 61):
                plan = run_protocol_round(net, cfg, rng, r)
                heads = set(plan.routes)
                for start_head in heads:
                    cur, hops = start_head, 0
                    while plan.routes[cur] is not None:
                        nxt = plan.routes[cur]
                        assert net.bs_dist[nxt] < net.bs_dist[cur]
                        cur = nxt
                        hops += 1
                        assert hops <= len(heads)
