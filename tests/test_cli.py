import csv
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_metrics_csv, traced_peak
from fuzzcluster import simulator
from fuzzcluster.cli import main
from fuzzcluster.config import PRESETS, _parse_lines
from fuzzcluster.csvio import read_positions_csv, write_metrics_csv, write_summary_csv
from fuzzcluster.fis1 import RULES_27
from fuzzcluster.fis2 import RULES_9
from fuzzcluster.simulator import RoundMetrics, SimResult


def run_cli(args):
    return main(args)


# --- csv round trips -------------------------------------------------------------


def _result(rounds, fnd=None, hnd=None, lnd=None, seed=1):
    return SimResult(rounds, fnd, hnd, lnd, None, None, seed, "leach", np.zeros((0, 2)))


def test_metrics_roundtrip(tmp_path):
    rounds = [
        RoundMetrics(1, 100, 0, 50.0, 0.5, 6),
        RoundMetrics(2, 99, 1, 49.1234567890123456, 0.496, 5),
        RoundMetrics(3, 98, 2, 48.0000000001, 0.49, 7),
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(_result(rounds), path)
    back = read_metrics_csv(path)
    assert len(back) == 3
    for orig, rt in zip(rounds, back):
        assert (rt.round, rt.alive, rt.dead, rt.ch_count) == (
            orig.round,
            orig.alive,
            orig.dead,
            orig.ch_count,
        )
        assert rt.total_j == orig.total_j  # full-precision scientific notation
        assert rt.avg_j == orig.avg_j


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("round,alive,dead,total_j\n", 1),
        ("round,alive,dead,total_j,avg_j,ch_count\n1,100,0,5.0e+01,5.0e-01,6\n2,99,1\n", 3),
        ("round,alive,dead,total_j,avg_j,ch_count\n1,100,0,fifty,5.0e-01,6\n", 2),
    ],
    ids=["empty", "bad-header", "short-row", "bad-number"],
)
def test_read_metrics_malformed_file_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}:")):
        read_metrics_csv(path)


def test_summary_absent_events_empty_fields(tmp_path):
    path = tmp_path / "s.csv"
    write_summary_csv([_result([RoundMetrics(1, 100, 0, 50.0, 0.5, 6)])], path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["fnd", "hnd", "lnd", "seed"]
    assert rows[1] == ["", "", "", "1"]


# --- cli ---------------------------------------------------------------------------


def test_cli_happy_path(tmp_path, capsys):
    out = tmp_path / "r"
    code = run_cli(
        ["--preset", "ch2-scenario1", "--protocol", "leach", "--seed", "1", "--rounds", "40",
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "positions.csv").exists()
    assert "seed=1" in capsys.readouterr().out


def test_cli_unknown_protocol_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--preset", "ch2-scenario1", "--protocol", "bogus"])
    assert exc.value.code != 0


def test_cli_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--preset", "ch2-scenario1", "--frobnicate"])
    assert exc.value.code != 0


def test_cli_bad_config_returns_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nodes = 10\n", encoding="utf-8")
    code = run_cli(["--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_runs_footprints_narrower_than_an_ulp(tmp_path, capsys):
    # at blur = 2e-17 some widened upper sets round below their lower sets
    cfg = tmp_path / "tiny_blur.cfg"
    cfg.write_text(PRESETS["ch3"] + "blur = 2e-17\n", encoding="utf-8")
    code = run_cli(
        ["--config", str(cfg), "--seeds", "3", "--rounds", "3", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_cli_missing_config_file(tmp_path, capsys):
    code = run_cli(["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 1


def rule_lines(family, table, row, replace):
    """The config lines of a whole rule table, with the 1-based row's
    fields replaced by position."""
    lines = []
    for i, rule in enumerate(table, start=1):
        fields = [replace.get(k, f) for k, f in enumerate(rule)] if i == row else rule
        lines.append(f"{family}.{i} = {','.join(fields)}\n")
    return "".join(lines)


@pytest.mark.parametrize(
    "family,table,row,replace,message",
    [
        ("rule1", RULES_27, 1, {0: "nowhere"}, "rule1.1: distance has no term 'nowhere'"),
        ("rule1", RULES_27, 5, {4: "huge"}, "rule1.5: chance has no term 'huge'"),
        ("rule1", RULES_27, 2, {2: "high"}, "rule1: rule table must cover all 27"),
        ("rule2", RULES_9, 4, {0: "nowhere"}, "rule2.4: distance has no term 'nowhere'"),
        ("rule2", RULES_9, 9, {2: "huge"}, "rule2.9: radius has no term 'huge'"),
        ("rule2", RULES_9, 3, {1: "low"}, "rule2: rule table must cover all 9"),
    ],
    ids=["rule1-antecedent", "rule1-consequent", "rule1-table", "rule2-antecedent",
         "rule2-consequent", "rule2-table"],
)
def test_cli_bad_rule_line_names_its_key(tmp_path, capsys, family, table, row, replace, message):
    cfg = tmp_path / "rules.cfg"
    cfg.write_text(PRESETS["ch3"] + rule_lines(family, table, row, replace), encoding="utf-8")
    code = run_cli(["--config", str(cfg), "--rounds", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--rounds", "0", "max_rounds: must be at least 1, got 0"),
        ("--seed", "-1", "seed: must lie in [0, 2**64), got -1"),
        ("--seeds", "0", "seeds: must be at least 1"),
    ],
    ids=["--rounds-0-max_rounds", "--seed--1-seed", "--seeds-0-seeds"],
)
def test_cli_out_of_range_override_names_the_field(tmp_path, capsys, flag, value, message):
    out = tmp_path / "o"
    code = run_cli(["--preset", "ch3", flag, value, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,field",
    [
        ("--seeds", "0", "seeds"),
        ("--rounds", "0", "max_rounds"),
        ("--seed0", "-1", "seed"),
        ("--seed0", str(2**64 - 1), "seed"),  # the last of the 10 default seeds is out of range
    ],
)
def test_compare_protocols_rejects_bad_options(tmp_path, flag, value, field):
    script = Path(__file__).resolve().parent.parent / "scripts" / "compare_protocols.py"
    proc = subprocess.run(
        [sys.executable, str(script), flag, value, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {field}: ")
    assert "Traceback" not in proc.stderr


def test_cli_batch_seeds(tmp_path):
    out = tmp_path / "batch"
    code = run_cli(
        ["--preset", "ch2-scenario1", "--protocol", "leach", "--seed", "5", "--seeds", "10",
         "--rounds", "5", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))
    assert len(rows) == 11  # header + one summary per seed
    assert [r[3] for r in rows[1:]] == [str(s) for s in range(5, 15)]
    for s in range(5, 15):
        assert (out / f"metrics_seed{s}.csv").exists()


@pytest.mark.parametrize("seed,seeds", [(2**64 - 2, 3), (2**64, 1), (-1, 3)])
def test_cli_batch_seed_out_of_range_writes_nothing(tmp_path, capsys, seed, seeds):
    out = tmp_path / "batch"
    code = run_cli(
        ["--preset", "ch3", "--seed", str(seed), "--seeds", str(seeds), "--rounds", "1",
         "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: seed: must lie in [0, 2**64), got ")
    assert not out.exists()


def test_cli_dump_fis_surface_type2(tmp_path):
    out = tmp_path / "surf"
    code = run_cli(
        ["--preset", "ch3", "--rounds", "1", "--seed", "1", "--out", str(out),
         "--dump-fis-surface"]
    )
    assert code == 0
    rows = list(csv.reader((out / "fis_surface.csv").read_text().splitlines()))
    assert rows[0] == ["db", "re", "radius_norm", "chance"]
    assert len(rows) == 1 + 101 * 101
    for row in rows[1:]:
        assert 0.0 <= float(row[2]) <= 1.0
        assert 0.0 <= float(row[3]) <= 1.0


def test_cli_dump_fis_surface_type1(tmp_path):
    out = tmp_path / "surf1"
    code = run_cli(
        ["--preset", "ch2-scenario1", "--rounds", "1", "--seed", "1", "--out", str(out),
         "--dump-fis-surface"]
    )
    assert code == 0
    rows = list(csv.reader((out / "fis_surface.csv").read_text().splitlines()))
    assert rows[0] == ["db", "re", "conc", "radius_norm", "chance"]
    assert len(rows) == 1 + 21 * 21 * 21
    assert sorted(p.name for p in out.iterdir()) == ["fis_surface.csv"]  # no simulation ran


def test_cli_dump_fis_surface_rejected_for_leach(tmp_path, capsys):
    out = tmp_path / "D"
    code = run_cli(
        ["--preset", "ch2-scenario1", "--protocol", "leach", "--out", str(out),
         "--dump-fis-surface"]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: --dump-fis-surface requires a fuzzy protocol (fuzzy-unequal or type2fl)\n"
    )
    assert not out.exists()  # decided before the output directory is made


def test_cli_dump_clusters(tmp_path):
    out = tmp_path / "cl"
    code = run_cli(
        ["--preset", "ch2-scenario1", "--protocol", "leach", "--seed", "2", "--rounds", "3",
         "--out", str(out), "--dump-clusters"]
    )
    assert code == 0
    rows = list(csv.reader((out / "clusters.csv").read_text().splitlines()))
    assert rows[0] == ["round", "ch_id", "member_id", "radius", "next_hop"]
    assert {r[0] for r in rows[1:]} == {"1", "2", "3"}
    assert all(r[4] == "BS" for r in rows[1:])  # leach heads go direct


def _dump_heap_peak(out, rounds):
    """The tracemalloc peak of one ch2-scenario1 run with --dump-clusters."""
    argv = ["--preset", "ch2-scenario1", "--rounds", str(rounds), "--dump-clusters"]
    peak, code = traced_peak(run_cli, [*argv, "--out", str(out)])
    assert code == 0
    return peak


def test_cli_dump_heap_peak_does_not_grow_with_the_run(tmp_path):
    # clusters.csv is written round by round: 700 more rounds add about 1 MB
    # to the file, and only their RoundMetrics to the heap
    assert run_cli(["--preset", "ch2-scenario1", "--rounds", "3", "--out", str(tmp_path)]) == 0
    short, long = _dump_heap_peak(tmp_path, 100), _dump_heap_peak(tmp_path, 800)
    assert (tmp_path / "clusters.csv").stat().st_size > 1_000_000
    assert long - short < 300_000, (short, long)


def test_cli_batch_dump_matches_each_solo_run(tmp_path):
    argv = ["--preset", "ch2-scenario1", "--rounds", "20", "--dump-clusters"]
    assert run_cli([*argv, "--seed", "4", "--seeds", "2", "--out", str(tmp_path / "batch")]) == 0
    for seed in (4, 5):
        solo = tmp_path / f"solo{seed}"
        assert run_cli([*argv, "--seed", str(seed), "--out", str(solo)]) == 0
        batch = tmp_path / "batch" / f"clusters_seed{seed}.csv"
        assert batch.read_bytes() == (solo / "clusters.csv").read_bytes()


def test_cli_run_that_fails_mid_way_keeps_its_earlier_rounds(tmp_path, monkeypatch, capsys):
    argv = ["--preset", "ch2-scenario1", "--seed", "3", "--dump-clusters"]
    assert run_cli([*argv, "--rounds", "2", "--out", str(tmp_path / "two")]) == 0
    real_round = simulator.run_protocol_round

    def fail_at_round_3(net, cfg, rng, r):
        if r == 3:
            raise ValueError("round 3 failed")
        return real_round(net, cfg, rng, r)

    monkeypatch.setattr(simulator, "run_protocol_round", fail_at_round_3)
    capsys.readouterr()
    out = tmp_path / "failed"
    assert run_cli([*argv, "--rounds", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: round 3 failed\n"
    # the header and rounds 1-2, flushed and closed; nothing after the dump
    assert [p.name for p in out.iterdir()] == ["clusters.csv"]
    assert (out / "clusters.csv").read_bytes() == (tmp_path / "two" / "clusters.csv").read_bytes()


def test_cli_positions_replay(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(
        ["--preset", "ch2-scenario1", "--protocol", "leach", "--seed", "3", "--rounds", "10",
         "--out", str(out1)]
    ) == 0
    assert run_cli(
        ["--preset", "ch2-scenario1", "--protocol", "leach", "--seed", "3", "--rounds", "10",
         "--out", str(out2), "--positions", str(out1 / "positions.csv")]
    ) == 0
    # replay reproduces the deployment byte for byte
    assert (out1 / "positions.csv").read_bytes() == (out2 / "positions.csv").read_bytes()
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    pos = read_positions_csv(out1 / "positions.csv")
    assert len(pos) == 100


def test_cli_positions_with_nan_rejected(tmp_path, capsys):
    pos = tmp_path / "pos.csv"
    rows = [f"{i},{i * 0.5:.1f},{i * 0.5:.1f}" for i in range(100)]
    rows[37] = "37,nan,18.5"
    pos.write_text("id,x,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code = run_cli(
        ["--preset", "ch2-scenario1", "--protocol", "leach", "--rounds", "1",
         "--out", str(tmp_path / "o"), "--positions", str(pos)]
    )
    assert code == 1
    assert "node 37" in capsys.readouterr().err


def test_cli_positions_with_a_gap_names_the_file_and_the_id(tmp_path, capsys):
    pos = tmp_path / "pos.csv"
    pos.write_text("id,x,y\n0,1.0,2.0\n2,3.0,4.0\n", encoding="utf-8")
    code = run_cli(
        ["--preset", "ch2-scenario1", "--rounds", "1", "--out", str(tmp_path / "o"),
         "--positions", str(pos)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {pos}: node ids must run 0..n-1, but id 1 is missing\n"


def test_cli_positions_outside_the_field_fail_before_any_file(tmp_path, capsys):
    first = tmp_path / "a"
    assert run_cli(["--preset", "ch3", "--rounds", "1", "--out", str(first)]) == 0
    rows = (first / "positions.csv").read_text(encoding="utf-8").splitlines()
    y = read_positions_csv(first / "positions.csv")[3][1]
    rows[4] = f"3,150.0,{y!r}"
    pos = tmp_path / "moved.csv"
    pos.write_text("\n".join(rows) + "\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "o"
    code = run_cli(
        ["--preset", "ch3", "--rounds", "1", "--out", str(out), "--dump-clusters", "--positions", str(pos)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {pos}: node 3 at (150.0, {y!r}) outside [0, 100.0]^2\n"
    assert not out.exists()  # no clusters.csv holding only its header


def test_cli_positions_of_too_few_nodes_name_the_file(tmp_path, capsys):
    # a header-only file lists 0 nodes, as a 2-row file lists 2
    for rows in (2, 0):
        pos = tmp_path / f"pos{rows}.csv"
        text = "".join(f"{i},{2 * i + 1.0},{2 * i + 2.0}\n" for i in range(rows))
        pos.write_text("id,x,y\n" + text, encoding="utf-8")
        code = run_cli(
            ["--preset", "ch3", "--rounds", "1", "--out", str(tmp_path / "o"), "--positions", str(pos)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {pos}: {rows} nodes listed, n is 100\n"


def test_cli_p_whose_reciprocal_overflows_fails_before_any_file(tmp_path, capsys):
    cfg = tmp_path / "tiny_p.cfg"
    cfg.write_text(PRESETS["ch2-scenario1"].replace("p = 0.05", "p = 1e-310"), encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli(["--config", str(cfg), "--protocol", "leach", "--rounds", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: p: must lie in (0, 1) with a finite 1/p, got 1e-310\n"
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "line 1: expected header id,x,y, got ''"),
        ("id,x,y\n0,1.0,2.0\n1,3.0\n", "line 3: expected id,x,y, got '1,3.0'"),
        ("id,x,y\n0,1.0,2.0\n1,3.0,4.0\n1,5.0,6.0\n", "line 4: duplicate node id 1"),
    ],
    ids=["empty", "short-row", "duplicate-id"],
)
def test_cli_malformed_positions_file(tmp_path, capsys, text, message):
    pos = tmp_path / "pos.csv"
    pos.write_text(text, encoding="utf-8")
    code = run_cli(
        ["--preset", "ch2-scenario1", "--rounds", "1", "--out", str(tmp_path / "o"),
         "--positions", str(pos)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {pos}: {message}\n"


@pytest.mark.parametrize(
    "edits,key",
    [
        ({"bs_x": "1e160"}, "bs_x"),
        ({"bs_y": "-1e200"}, "bs_y"),
        ({"nbr_radius_m": "1e-320"}, "nbr_radius_m"),
        ({"eps_fs_pj": "1e-300", "eps_mp_pj": "1e30"}, "eps_mp_pj"),
        ({"eps_mp_pj": "1e-310"}, "eps_mp_pj"),
    ],
    ids=["far-sink-x", "far-sink-y", "tiny-nbr-radius", "d0-0", "d0-inf"],
)
def test_cli_config_that_would_fail_mid_run_fails_before_any_file(tmp_path, capsys, edits, key):
    # each config's first fuzzy-unequal round would fail, so it is refused before --out is made
    pairs = {**_parse_lines(PRESETS["ch2-scenario1"], "ch2-scenario1"), **edits}
    cfg = tmp_path / "edited.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()), encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli(["--config", str(cfg), "--rounds", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "Traceback" not in err
    assert not out.exists()
