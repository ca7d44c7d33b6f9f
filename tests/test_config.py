import ast
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzcluster import config
from fuzzcluster.config import PRESETS, ConfigError, parse_config
from fuzzcluster.fis1 import DEFAULT_SAMPLES, RULES_27, default_rulebase1
from fuzzcluster.fis2 import RULES_9, default_rulebase2
from fuzzcluster.simulator import run_simulation


def write_cfg(tmp_path, text, name="sim.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = """
nodes = 10
area_m = 100
bs_x = 50
bs_y = 175
initial_energy_j = 0.5
e_elec_nj = 50
eps_fs_pj = 10
eps_mp_pj = 0.0013
e_da_nj = 5
packet_bits = 4000
ctrl_bits = 200
protocol = leach
"""


# --- presets -----------------------------------------------------------------


def test_preset_ch2_scenario1_values():
    cfg = parse_config("ch2-scenario1")
    assert cfg.n == 100
    assert cfg.area_side == 100.0
    assert cfg.radio.e_elec == pytest.approx(50e-9, rel=1e-15)
    assert cfg.radio.eps_fs == pytest.approx(10e-12, rel=1e-15)
    assert cfg.radio.eps_mp == pytest.approx(0.0013e-12, rel=1e-15)
    assert cfg.radio.packet_bits == 4000
    assert cfg.radio.ctrl_bits == 200
    assert cfg.initial_energy == 0.5
    assert cfg.bs_pos == (50.0, 175.0)
    assert cfg.protocol.kind == "fuzzy_unequal"
    assert cfg.protocol.p == 0.05


def test_preset_ch2_scenario2_values():
    cfg = parse_config("ch2-scenario2")
    assert cfg.n == 1000
    assert cfg.area_side == 1000.0
    assert cfg.initial_energy == 0.5
    assert cfg.radio.e_da == pytest.approx(5e-9, rel=1e-15)
    assert cfg.bs_pos == (500.0, 1750.0)


def test_preset_ch3_values():
    cfg = parse_config("ch3")
    assert cfg.n == 100
    assert cfg.area_side == 100.0
    assert cfg.initial_energy == 1.0
    assert cfg.radio.eps_mp == pytest.approx(0.0010e-12, rel=1e-15)
    assert cfg.radio.e_da == pytest.approx(5e-9, rel=1e-15)
    assert cfg.bs_pos == (50.0, 50.0)  # sink at the center of the area
    assert cfg.protocol.kind == "type2fl"
    assert cfg.protocol.p == 0.05


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config("ch9-bogus")
    assert set(PRESETS) == {"ch2-scenario1", "ch2-scenario2", "ch3"}


# --- file parsing -------------------------------------------------------------


def test_file_roundtrip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE + "seed = 17\nmax_rounds = 99\n"))
    assert cfg.n == 10
    assert cfg.seed == 17
    assert cfg.max_rounds == 99
    assert cfg.protocol.r_min == pytest.approx(10.0)  # 0.1 * area default
    assert cfg.protocol.r_max == pytest.approx(40.0)


def test_comments_and_blank_lines(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "# header\n\n" + BASE + "seed = 3  # inline\n"))
    assert cfg.seed == 3


def test_missing_required_key(tmp_path):
    text = BASE.replace("packet_bits = 4000\n", "")
    with pytest.raises(ConfigError, match="packet_bits"):
        parse_config(write_cfg(tmp_path, text))


def test_out_of_range_p_names_field(tmp_path):
    with pytest.raises(ConfigError, match="p"):
        parse_config(write_cfg(tmp_path, BASE + "p = 1.5\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(write_cfg(tmp_path, BASE + "frobnicate = 1\n"))
    # the election rule follows the protocol kind, whatever value is given
    with pytest.raises(ConfigError, match="^unknown key 'threshold_direction'$"):
        parse_config(write_cfg(tmp_path, BASE + "threshold_direction = below\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write_cfg(tmp_path, BASE + "seed = 1\nseed = 2\n"))


@pytest.mark.parametrize(
    "text,message",
    [("nodes = 10\narea_m\n", "2: expected 'key = value', got 'area_m'"), ("nodes =\n", "1: empty key or value")],
    ids=["no-equals", "empty-value"],
)
def test_malformed_line_names_the_file_and_the_line(tmp_path, text, message):
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}:{message}')}$"):
        parse_config(path)


def test_bad_number_rejected(tmp_path):
    with pytest.raises(ConfigError, match="nodes"):
        parse_config(write_cfg(tmp_path, BASE.replace("nodes = 10", "nodes = ten")))


def test_bad_protocol_rejected(tmp_path):
    with pytest.raises(ConfigError, match="protocol"):
        parse_config(write_cfg(tmp_path, BASE.replace("protocol = leach", "protocol = flood")))


def test_radius_ordering_rejected(tmp_path):
    # the bound is named by the file's key too, not by the ProtocolParams field
    message = "r_min_m: must lie in (0, r_max_m = 2.0), got 5.0"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(write_cfg(tmp_path, BASE + "r_min_m = 5\nr_max_m = 2\n"))


def test_r_max_below_the_default_r_min_names_r_max():
    # the file gives no r_min_m, so r_max_m is the key to mend
    pairs = {**config._parse_lines(PRESETS["ch3"], "ch3"), "r_max_m": "5"}
    message = "r_max_m: must exceed the default r_min_m = 0.1 * area_m = 10.0, got 5.0"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config.config_from_pairs(pairs)


def test_energy_overrides_parsed(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE + "energy_overrides = 0:1e-6, 3:0.25\n"))
    assert cfg.energy_overrides == {0: 1e-6, 3: 0.25}


@pytest.mark.parametrize(
    "text,value", [("true", True), ("1", True), ("yes", True), ("false", False), ("0", False), ("no", False)]
)
def test_control_traffic_spellings_parse(tmp_path, text, value):
    cfg = parse_config(write_cfg(tmp_path, BASE + f"control_traffic = {text}\n"))
    assert cfg.protocol.control_traffic is value


def test_energy_override_unknown_node(tmp_path):
    with pytest.raises(ConfigError, match="node 99"):
        parse_config(write_cfg(tmp_path, BASE + "energy_overrides = 99:0.1\n"))


@pytest.mark.parametrize(
    "line,field",
    [
        ("initial_energy_j = nan", "initial_energy_j"),
        ("area_m = nan", "area_m"),
        ("bs_x = nan", "bs_x"),
        # a sink so far that a squared distance overflows
        ("bs_x = 1e160", "bs_x"),
        ("bs_y = -1e200", "bs_y"),
        ("e_elec_nj = inf", "e_elec_nj"),
        ("r_max_m = inf", "r_max_m"),
        ("nbr_radius_m = inf", "nbr_radius_m"),
        ("p = nan", "p"),
        ("blur = nan", "blur"),
        ("energy_overrides = 3:nan", "energy_overrides"),
        ("energy_overrides = 3:0.1, 3:0.2", "energy_overrides: node 3"),
        ("mf1.distance.close = tri:0,inf,1", "mf1.distance.close"),
        ("mf1.distanc.close = tri:0,0.5,1", "mf1.distanc"),
        ("mf2.distance.nearby = tri:0,0.5,1", "mf2.distance.nearby"),
        ("w.radius = 0.1,0.2,nan,0.6,0.8,0.9", "w.radius"),
        ("w.chance = 0.1,0.2,0.4,0.6,0.8,1.5", "w.chance"),
        ("blur.energy = -inf", "blur.energy"),
        ("nodes = 0", "nodes"),
        ("area_m = 0", "area_m"),
        ("area_m = 1e-170", "area_m"),
        ("area_m = 1e200", "area_m"),
        ("initial_energy_j = 0", "initial_energy_j"),
        ("e_elec_nj = 0", "e_elec_nj"),
        ("packet_bits = 0", "packet_bits"),
        ("packet_bits = 1" + "0" * 400, "packet_bits"),
        ("p = 1.5", "p"),
        ("r_min_m = 50\nr_max_m = 40", "r_min_m"),
        ("nbr_radius_m = 0", "nbr_radius_m"),
        # an expected neighbor count that underflows to 0, a default radius d0 of inf
        ("nbr_radius_m = 1e-320", "nbr_radius_m"),
        ("eps_mp_pj = 1e-310", "eps_mp_pj"),
        ("max_rounds = 0", "max_rounds"),
        ("seed = -1", "seed"),
        ("coa_samples = 2", "coa_samples"),
        ("blur = 1", "blur"),
        ("blur.energy = 1", "blur.energy"),
        ("blur.foo = 0.1", "blur.foo"),
        ("energy_overrides = 99:0.1", "energy_overrides"),
        ("energy_overrides = 3:0", "energy_overrides"),
        # the election rule follows the protocol kind; no key overrides it
        ("threshold_direction = sideways", "unknown key"),
    ],
)
def test_non_finite_and_repeated_values_name_their_key(tmp_path, line, field):
    key = line.split(" = ")[0]
    text = "".join(row for row in BASE.splitlines(keepends=True) if not row.startswith(key + " "))
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}[: ]"):
        parse_config(write_cfg(tmp_path, text + line + "\n"))


# --- engine overrides -----------------------------------------------------------


def test_membership_override_applied(tmp_path):
    cfg = parse_config(
        write_cfg(
            tmp_path,
            BASE.replace("protocol = leach", "protocol = fuzzy-unequal")
            + "mf1.distance.close = trap:0,0,0.3,0.5\n",
        )
    )
    assert cfg.rules1 is not None
    assert cfg.rules1.inputs[0].term("close").points == (0.0, 0.0, 0.3, 0.5)


def test_membership_override_unknown_term(tmp_path):
    with pytest.raises(ConfigError, match="nearby"):
        parse_config(write_cfg(tmp_path, BASE + "mf1.distance.nearby = tri:0,0.5,1\n"))


def test_membership_override_coverage_checked(tmp_path):
    text = BASE + "mf1.distance.close = tri:0.45,0.5,0.55\nmf1.distance.far = tri:0.45,0.5,0.55\nmf1.distance.farthest = tri:0.45,0.5,0.55\n"
    with pytest.raises(ConfigError, match="covers"):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("mf1.energy.less", "tri:0.1,0.2,0.4", "mf1.energy: no term covers x=0"),
        ("mf2.energy.low", "tri:0.1,0.2,0.4", "mf2.energy: no term covers x=0"),
        ("mf1.chance.poor", "tri:0.9,0.95,1", "mf1.chance: no term covers x=0.166667"),
        ("mf1.radius.small", "tri:0.5,0.6,1.2", "mf1.radius: term 'small' support (0.5, 1.2) leaves [0, 1]"),
    ],
    ids=["mf1.energy-hole", "mf2.energy-hole", "mf1.chance-hole", "mf1.radius-support"],
)
def test_override_that_breaks_its_variable_names_its_key(key, value, message):
    pairs = {**config._parse_lines(PRESETS["ch3"], "ch3"), key: value}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config.config_from_pairs(pairs)


def test_rule1_override_all_or_none(tmp_path):
    with pytest.raises(ConfigError, match="rule1"):
        parse_config(write_cfg(tmp_path, BASE + "rule1.1 = close,less,high,very_small,very_poor\n"))


def test_rule1_override_complete(tmp_path):
    lines = "".join(
        f"rule1.{i} = {d},{e},{c},{rad},{ch}\n"
        for i, (d, e, c, rad, ch) in enumerate(RULES_27, start=1)
    )
    cfg = parse_config(write_cfg(tmp_path, BASE + lines))
    assert cfg.rules1 is not None
    assert len(cfg.rules1.rules) == 27


@pytest.mark.parametrize("family,rows", [("rule1", RULES_27), ("rule2", RULES_9)])
@pytest.mark.parametrize("number", ["01", "001", "0", "+1", " 1", "1_0", "\u0661"])
def test_rule_numbers_are_canonical(tmp_path, family, rows, number):
    # a second spelling of a number must not replace that rule without a word
    lines = "".join(f"{family}.{i} = {','.join(row)}\n" for i, row in enumerate(rows, start=1))
    key = f"{family}.{number}"
    with pytest.raises(ConfigError, match=rf"^unknown key {re.escape(repr(key))}$"):
        parse_config(write_cfg(tmp_path, BASE + lines + f"{key} = {','.join(rows[0])}\n"))


def test_rule2_override_complete_and_weights(tmp_path):
    lines = "".join(
        f"rule2.{i} = {d},{e},{rad},{ch}\n" for i, (d, e, rad, ch) in enumerate(RULES_9, start=1)
    )
    cfg = parse_config(
        write_cfg(
            tmp_path,
            BASE + lines + "w.radius = 0.1,0.2,0.4,0.6,0.8,0.9\nblur = 0.3\nblur.energy = 0.1\n",
        )
    )
    assert cfg.rules2 is not None
    assert cfg.rules2.rules[0].w_radius == 0.1
    # blur = 0.3 scales the lower footprints to 0.7, blur.energy = 0.1 to 0.9
    assert {imf.lower_scale for imf in cfg.rules2.distance_mfs.values()} == {0.7}
    assert {imf.lower_scale for imf in cfg.rules2.energy_mfs.values()} == {0.9}


def test_weight_list_length_checked(tmp_path):
    with pytest.raises(ConfigError, match="w.radius"):
        parse_config(write_cfg(tmp_path, BASE + "w.radius = 0.1,0.2\n"))


def test_blur_range_checked(tmp_path):
    with pytest.raises(ConfigError, match="blur"):
        parse_config(write_cfg(tmp_path, BASE + "blur = 1.0\n"))


def test_replaced_rules2_is_the_engine_a_run_uses(tmp_path):
    # a file's blur lives in cfg.rules2 alone, so replacing rules2 replaces it
    text = BASE.replace("protocol = leach", "protocol = type2fl") + "max_rounds = 30\n"
    blurred = parse_config(write_cfg(tmp_path, text + "blur = 0.3\n", "blurred.cfg"))
    crisp = parse_config(write_cfg(tmp_path, text + "blur = 0\n", "crisp.cfg"))
    unblurred = replace(blurred, rules2=default_rulebase2(blur=0.0))
    unblurred_rounds, crisp_rounds, blurred_rounds = (
        run_simulation(cfg).rounds for cfg in (unblurred, crisp, blurred)
    )
    assert unblurred_rounds == crisp_rounds != blurred_rounds


@pytest.mark.parametrize(
    "line,message",
    [
        ("mf2.distance.moderate = bell:0.2,0.5,0.8", "unknown membership kind 'bell'"),
        ("mf1.energy.avg = tri:0.2,0.5", "tri takes 3 breakpoints, got 2"),
        ("mf2.energy.med = trap:0.2,0.5,0.8", "trap takes 4 breakpoints, got 3"),
        ("mf1.distance.far = tri:0.5,0.2,0.8", "breakpoints must be nondecreasing: (0.5, 0.2, 0.8)"),
        ("mf1.distance.far = tri:0.2,x,0.8", "not a number: 'x'"),
    ],
)
def test_membership_errors_name_their_key(tmp_path, line, message):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{key}: {message}')}$"):
        parse_config(write_cfg(tmp_path, BASE + line + "\n"))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_two_parses_of_a_preset_compare_equal(tmp_path, preset):
    cfg = parse_config(preset)
    assert cfg == parse_config(preset)
    assert cfg == parse_config(write_cfg(tmp_path, PRESETS[preset]))
    assert replace(cfg, seed=cfg.seed + 1) != cfg
    moved = PRESETS[preset] + "mf1.distance.close = trap:0,0,0.3,0.5\n"
    assert parse_config(write_cfg(tmp_path, moved, "moved.cfg")) != cfg


def test_a_parsed_config_is_frozen_and_each_replace_is_checked(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE + "energy_overrides = 3:0.25\n"))
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 2
    # nor can an override or a replayed position change after its check
    with pytest.raises(TypeError):
        cfg.energy_overrides[99] = 0.1
    with pytest.raises(AttributeError):
        replace(cfg, positions=[(1.0, 2.0)] * cfg.n).positions.append((3.0, 4.0))
    message = "seed: must lie in [0, 2**64), got 18446744073709551616"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(cfg, seed=2**64)


# --- who owns what: the parser splits, the builders and fields decide ---------------


def rule_table(family, rows):
    return "".join(f"{family}.{i} = {','.join(row)}\n" for i, row in enumerate(rows, start=1))


@pytest.mark.parametrize(
    "lines,message",
    [
        (rule_table("rule2", RULES_9).replace("rule2.4 =", "# rule2.4 ="), "rule2.4: missing"),
        (rule_table("rule1", RULES_27).replace("rule1.1 =", "rule1.28 ="), "rule1.1: missing"),
        ("rule2.2 = proximate,med,small,weak\n", "rule2.1: missing"),
    ],
    ids=["rule2-gap", "rule1-from-2", "rule2-only-2"],
)
def test_rule_numbers_run_from_1_without_gaps(tmp_path, lines, message):
    expected = f"{message}; rules are numbered from 1 without gaps"
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        parse_config(write_cfg(tmp_path, BASE + lines))


@pytest.mark.parametrize(
    "family,rows,row,message",
    [
        ("rule1", RULES_27, 5, "rule1.5: expected 5 terms, got 4"),
        ("rule2", RULES_9, 3, "rule2.3: expected 4 terms, got 3"),
    ],
)
@pytest.mark.parametrize("count", ["whole", "short"])
def test_short_rule_row_is_named_before_coverage(tmp_path, family, rows, row, message, count):
    # a short table would fail the coverage check too; the short row is named first
    rows = [r[:-1] if i == row else r for i, r in enumerate(rows, start=1)]
    lines = rule_table(family, rows if count == "whole" else rows[:row])
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(write_cfg(tmp_path, BASE + lines))
    builder = default_rulebase1 if family == "rule1" else default_rulebase2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        builder(rules=rows if count == "whole" else rows[:row])


@pytest.mark.parametrize(
    "key,weights,message",
    [
        ("w.radius", (0.1, 0.2), "w.radius: expected 6 weights, got 2"),
        ("w.chance", (0.1,) * 7, "w.chance: expected 6 weights, got 7"),
        ("w.radius", (0.1, 0.2, 0.4, 0.6, 0.8, 1.9), "w.radius: weight 1.9 of 'very_large' outside"),
        ("w.chance", (-0.5, 0.2, 0.4, 0.6, 0.8, 1.0), "w.chance: weight -0.5 of 'very_weak' outside"),
    ],
)
def test_weights_are_checked_by_the_builder(tmp_path, key, weights, message):
    line = f"{key} = {','.join(map(str, weights))}\n"
    if "outside" in message:
        message += " [0, 1]"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(write_cfg(tmp_path, BASE + line))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        default_rulebase2(**{key.replace(".", "_"): weights})


def test_weights_parse_in_term_order(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE + "w.chance = 0,0.1,0.2,0.3,0.4,1\n"))
    assert cfg.rules2 == default_rulebase2(w_chance=(0.0, 0.1, 0.2, 0.3, 0.4, 1.0))
    assert {r.chance: r.w_chance for r in cfg.rules2.rules}["strong"] == 0.4


def test_required_keys_alone_give_the_declared_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE))
    assert cfg.rules1 == default_rulebase1()
    assert cfg.rules2 == default_rulebase2()
    assert cfg.energy_overrides == {}
    assert cfg.protocol.control_traffic is True
    assert cfg.protocol.nbr_radius is None
    assert (cfg.max_rounds, cfg.seed, cfg.coa_samples) == (5000, 1, DEFAULT_SAMPLES)
    # the defaults that no field declares: p and the radii, scaled by the area
    assert (cfg.protocol.p, cfg.protocol.r_min, cfg.protocol.r_max) == (0.05, 10.0, 40.0)


MF_FORM = "expected tri:a,b,c or trap:a,b,c,d, got"


@pytest.mark.parametrize(
    "line,message",
    [
        ("mf1.distance.close = tri 0,0.5,1", f"{MF_FORM} 'tri 0,0.5,1'"),
        ("mf1.distance.close = 0,0.5,1", f"{MF_FORM} '0,0.5,1'"),
        ("mf2.energy.low = tri:", f"{MF_FORM} 'tri:'"),
        ("energy_overrides = 3", "expected id:J entries, got '3'"),
        ("energy_overrides = 3:", "expected id:J entries, got '3:'"),
        ("energy_overrides = 0:0.1, x:0.2", "expected id:J entries, got 'x:0.2'"),
        ("energy_overrides = 0:0.1, 3", "expected id:J entries, got '3'"),
        ("seed = 18446744073709551616", "must lie in [0, 2**64), got 18446744073709551616"),
        ("control_traffic = maybe", "expected true/false, got 'maybe'"),
    ],
)
def test_value_syntax_errors_name_the_form_and_the_value(tmp_path, line, message):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{key}: {message}')}$"):
        parse_config(write_cfg(tmp_path, BASE + line + "\n"))


def test_config_takes_only_the_builders_from_the_engines():
    tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("fis1", "fis2") and node.level == 1
        for alias in node.names
    }
    assert imported == {"MembershipFunction", "default_rulebase1", "default_rulebase2"}


# --- one bad edit of a valid file names its key ------------------------------------

NOT_INT = ("abc", "1.5", "nan")
NOT_FINITE = ("abc", "1,2", "nan", "inf", "-inf")
NOT_POSITIVE = ("0", "-1")
BAD_MF = (
    "bell:0,0.5,1",
    "tri:0,0.5",
    "trap:0,0.2,0.4",
    "tri 0,0.5,1",
    "tri:",
    "tri:0,abc,1",
    "tri:0,nan,1",
    "tri:0.5,0.2,0.9",
    "tri:-0.5,0,0.5",
    "trap:0.5,0.6,0.7,1.2",
)


def mf_edits(family, variables):
    """Bad values of every term key of a family, from its stock ``{variable:
    {term: set}}``; the last moves the term to the far end of [0, 1], which
    leaves a hole where it alone covers."""
    return {
        f"{family}.{var}.{term}": (*BAD_MF, "tri:0,0.05,0.1" if mf.support[1] == 1.0 else "tri:0.9,0.95,1")
        for var, terms in variables.items()
        for term, mf in terms.items()
    }


def rule_edits(family, rows):
    """Bad rows for every rule key of a family: a term short or over, an
    unknown term in each place, and another row's antecedents."""
    edits = {}
    for i, row in enumerate(rows, start=1):
        unknown = [(*row[:k], "nowhere", *row[k + 1 :]) for k in range(len(row))]
        twice = (*rows[i % len(rows)][:-2], *row[-2:])
        edits[f"{family}.{i}"] = tuple(",".join(r) for r in (row[:-1], (*row, row[-1]), *unknown, twice))
    return edits


STOCK1, STOCK2 = default_rulebase1(), default_rulebase2()
BAD_EDITS = {
    **dict.fromkeys(("nodes", "packet_bits", "ctrl_bits", "max_rounds"), NOT_INT + NOT_POSITIVE),
    "coa_samples": NOT_INT + ("2",),
    "seed": NOT_INT + ("-1", str(2**64)),
    **dict.fromkeys(
        ("area_m", "initial_energy_j", "e_elec_nj", "eps_fs_pj", "eps_mp_pj", "e_da_nj", "nbr_radius_m"),
        NOT_FINITE + NOT_POSITIVE,
    ),
    **dict.fromkeys(("bs_x", "bs_y"), NOT_FINITE + ("1e160", "-1e200")),
    "p": NOT_FINITE + ("0", "1", "1.5", "1e-310"),
    "r_min_m": NOT_FINITE + NOT_POSITIVE + ("1e6",),
    "r_max_m": NOT_FINITE + NOT_POSITIVE + ("5",),
    "blur": NOT_FINITE + ("-0.1", "1"),
    "protocol": ("flood", "fuzzy_unequal"),
    "control_traffic": ("maybe", "2"),
    "energy_overrides": ("3", "x:1", "1:abc", "1:nan", "1:0", "-1:0.1", "100000:0.1", "1:0.1,1:0.2"),
    **dict.fromkeys(
        ("w.radius", "w.chance"), ("abc", "0.1,0.2", "0,0,0,0,0,0,0", "nan,0,0,0,0,0", "1.9,0,0,0,0,0")
    ),
    **mf_edits("mf1", {var.name: dict(var.terms) for var in (*STOCK1.inputs, *STOCK1.outputs)}),
    **mf_edits(
        "mf2",
        {
            "distance": {t: f.lower for t, f in STOCK2.distance_mfs.items()},
            "energy": {t: f.lower for t, f in STOCK2.energy_mfs.items()},
        },
    ),
    **dict.fromkeys(
        ("mf1.speed.fast", "mf1.distance.nearby", "mf2.concentration.low", "mf2.distance.close"),
        ("tri:0,0.5,1",),
    ),
    **rule_edits("rule1", RULES_27),
    **rule_edits("rule2", RULES_9),
    **dict.fromkeys(("blur.distance", "blur.energy"), NOT_FINITE + ("-0.1", "1")),
    **dict.fromkeys(("blur.concentration", "blur.speed"), ("0.1",)),
}
BAD_EDITS["area_m"] += ("1e-170", "1e200")  # a square that underflows, one that overflows
BAD_EDITS["packet_bits"] += ("1" + "0" * 400,)  # too large to price as a float
BAD_EDITS["nbr_radius_m"] += ("1e-320",)  # no expected neighbor
BAD_EDITS["eps_mp_pj"] += ("1e-310",)  # a default neighbor radius d0 of inf
PRESET_PAIRS = {name: config._parse_lines(text, name) for name, text in PRESETS.items()}


def test_bad_edits_cover_every_plain_key():
    families = ("mf1.", "mf2.", "rule1.", "rule2.", "blur.")
    assert {key for key in BAD_EDITS if not key.startswith(families)} == set(config._PARSERS)


@settings(max_examples=200, deadline=None)
@given(
    preset=st.sampled_from(sorted(PRESET_PAIRS)),
    edit=st.sampled_from(sorted(BAD_EDITS)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(BAD_EDITS[key]))
    ),
)
@example(preset="ch3", edit=("r_max_m", "5"))
@example(preset="ch2-scenario2", edit=("area_m", "1e-170"))
@example(preset="ch3", edit=("packet_bits", "1" + "0" * 400))
@example(preset="ch2-scenario1", edit=("bs_x", "1e160"))
@example(preset="ch2-scenario1", edit=("bs_y", "-1e200"))
@example(preset="ch2-scenario1", edit=("nbr_radius_m", "1e-320"))
@example(preset="ch2-scenario1", edit=("eps_mp_pj", "1e-310"))
def test_one_bad_edit_names_its_key(preset, edit):
    key, value = edit
    family = key.split(".")[0]
    # a rule edit replaces one row of a whole table, so that only the edit is wrong
    table = {"rule1": RULES_27, "rule2": RULES_9}.get(family, ())
    pairs = {**PRESET_PAIRS[preset], **{f"{family}.{i}": ",".join(row) for i, row in enumerate(table, 1)}}
    with pytest.raises(ConfigError) as err:
        config.config_from_pairs({**pairs, key: value})
    # the message starts with the key or a dotted prefix of it (mf1.energy, rule1)
    named = re.match(r"([\w.]+): ", str(err.value))
    assert named and f"{key}.".startswith(f"{named[1]}."), (key, value, str(err.value))
