"""Flat key=value configuration files and scenario presets.

Radio constants are written in the units the scenario tables use (nJ and pJ)
and normalized to joules here. Unknown keys are rejected so typos surface
immediately; every error names the offending key. This module only parses:
range rules, defaults and rule tables belong to SimConfig, ProtocolParams,
RadioParams and the rule-base builders, which see only the keys a file gives;
their errors are re-raised here under the config key.
"""
from __future__ import annotations

import math
import os
import re
from typing import Any

from .energy import RadioParams
from .fis1 import MembershipFunction, default_rulebase1
from .fis2 import default_rulebase2
from .network import check_deployment
from .protocols import ProtocolParams
from .simulator import SimConfig


class ConfigError(ValueError):
    """Invalid or missing configuration input."""


PROTOCOL_NAMES = {"leach": "leach", "fuzzy-unequal": "fuzzy_unequal", "type2fl": "type2fl"}

# Fields and builder parameters that the file calls by other keys; the
# dataclasses name their fields in their messages.
_KEY_OF = {
    "n": "nodes",
    "area_side": "area_m",
    "initial_energy": "initial_energy_j",
    "e_elec": "e_elec_nj",
    "eps_fs": "eps_fs_pj",
    "eps_mp": "eps_mp_pj",
    "e_da": "e_da_nj",
    "r_min": "r_min_m",
    "r_max": "r_max_m",
    "nbr_radius": "nbr_radius_m",
    "w_radius": "w.radius",
    "w_chance": "w.chance",
}

PRESETS: dict[str, str] = {
    "ch2-scenario1": """
        nodes = 100
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
        protocol = fuzzy-unequal
        p = 0.05
    """,
    "ch2-scenario2": """
        nodes = 1000
        area_m = 1000
        bs_x = 500
        bs_y = 1750
        initial_energy_j = 0.5
        e_elec_nj = 50
        eps_fs_pj = 10
        eps_mp_pj = 0.0013
        e_da_nj = 5
        packet_bits = 4000
        ctrl_bits = 200
        protocol = fuzzy-unequal
        p = 0.05
    """,
    "ch3": """
        nodes = 100
        area_m = 100
        bs_x = 50
        bs_y = 50
        initial_energy_j = 1
        e_elec_nj = 50
        eps_fs_pj = 10
        eps_mp_pj = 0.0010
        e_da_nj = 5
        packet_bits = 4000
        ctrl_bits = 200
        protocol = type2fl
        p = 0.05
    """,
}


def _parse_lines(text: str, origin: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{origin}:{lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _finite(key: str, text: str) -> float:
    """``text`` as a finite float; a ConfigError naming ``key`` otherwise."""
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text.strip()!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: not a finite number: {text.strip()!r}")
    return v


def _as_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {text!r}") from None


def _as_floats(key: str, text: str) -> tuple[float, ...]:
    return tuple(_finite(key, x) for x in text.split(","))


def _as_bool(key: str, text: str) -> bool:
    v = text.lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {text!r}")


def _parse_mf(key: str, value: str) -> MembershipFunction:
    shape, colon, rest = value.partition(":")
    if not colon or not rest.strip():
        raise ConfigError(f"{key}: expected tri:a,b,c or trap:a,b,c,d, got {value!r}")
    points = _as_floats(key, rest)
    try:
        return MembershipFunction(shape, points)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None


def _parse_energy_overrides(key: str, value: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for item in value.split(","):
        nid_s, _, e_s = item.partition(":")
        if not re.fullmatch(r"\s*[+-]?\d+\s*", nid_s) or not e_s.strip():
            raise ConfigError(f"{key}: expected id:J entries, got {item.strip()!r}")
        nid = int(nid_s)
        if nid in out:
            raise ConfigError(f"{key}: node {nid} listed twice")
        out[nid] = _finite(key, e_s)
    return out


# How each plain key's text becomes a value; a key missing here is unknown.
_PARSERS = {
    **dict.fromkeys(
        ("nodes", "packet_bits", "ctrl_bits", "max_rounds", "seed", "coa_samples"), _as_int
    ),
    **dict.fromkeys(
        ("area_m", "bs_x", "bs_y", "initial_energy_j", "e_elec_nj", "eps_fs_pj", "eps_mp_pj",
         "e_da_nj", "p", "r_min_m", "r_max_m", "nbr_radius_m", "blur"),
        _finite,
    ),
    "protocol": lambda key, text: text,
    "control_traffic": _as_bool,
    "energy_overrides": _parse_energy_overrides,
    **dict.fromkeys(("w.radius", "w.chance"), _as_floats),
}


class _Parsed(dict):
    def __missing__(self, key: str):
        raise ConfigError(f"missing required key {key!r}")


def _given(v: _Parsed, *names: str) -> dict[str, Any]:
    """``name=value`` for each field or parameter whose key the file gives."""
    return {name: v[_KEY_OF.get(name, name)] for name in names if _KEY_OF.get(name, name) in v}


def _split_dynamic(pairs: dict[str, str]):
    """Parse the plain keys; pull out the mf1./mf2./rule1./rule2./blur. families,
    each into its own dict under its family name; reject other keys."""
    plain = _Parsed()
    families: dict[str, dict] = {"mf1": {}, "mf2": {}, "rule1": {}, "rule2": {}, "blur": {}}
    for key, value in pairs.items():
        if key in _PARSERS:
            plain[key] = _PARSERS[key](key, value)
            continue
        parts = key.split(".")
        if parts[0] in ("mf1", "mf2") and len(parts) == 3:
            families[parts[0]].setdefault(parts[1], {})[parts[2]] = _parse_mf(key, value)
        # one spelling per rule number: no sign, no leading zero, ASCII digits
        elif rule := re.fullmatch(r"(rule[12])\.([1-9][0-9]*)", key):
            families[rule[1]][int(rule[2])] = value
        elif parts[0] == "blur" and len(parts) == 2:
            families["blur"][parts[1]] = _finite(key, value)
        else:
            raise ConfigError(f"unknown key {key!r}")
    return plain, families


def _collect_rules(numbered: dict[int, str], family: str):
    """The rows in number order, each split at its commas; None when the
    file gives none. The builders check the rows themselves."""
    for i in range(1, len(numbered) + 1):
        if i not in numbered:
            raise ConfigError(f"{family}.{i}: missing; rules are numbered from 1 without gaps")
    return [tuple(t.strip() for t in numbered[i].split(",")) for i in sorted(numbered)] or None


def parse_config(source: str) -> SimConfig:
    """Build a checked SimConfig from a preset name or a config-file path."""
    if source in PRESETS:
        pairs = _parse_lines(PRESETS[source], source)
    elif os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            pairs = _parse_lines(fh.read(), source)
    else:
        raise ConfigError(
            f"unknown preset or missing config file: {source!r} "
            f"(presets: {', '.join(sorted(PRESETS))})"
        )
    return config_from_pairs(pairs)


def config_from_pairs(pairs: dict[str, str]) -> SimConfig:
    v, families = _split_dynamic(pairs)
    if v["protocol"] not in PROTOCOL_NAMES:
        raise ConfigError(
            f"protocol: unknown value {v['protocol']!r} (choices: {', '.join(PROTOCOL_NAMES)})"
        )
    rules1, rules2 = (_collect_rules(families[f], f) for f in ("rule1", "rule2"))

    try:
        # the deployment first: the default radii scale with its area
        check_deployment(v["nodes"], v["area_m"], (v["bs_x"], v["bs_y"]), v["initial_energy_j"])
        r_min = v.get("r_min_m", 0.1 * v["area_m"])
        r_max = v.get("r_max_m", 0.4 * v["area_m"])
        if "r_min_m" not in v and 0.0 < r_max <= r_min:
            # the file gave r_max_m alone, so the fault is in that key
            raise ValueError(
                f"r_max_m: must exceed the default r_min_m = 0.1 * area_m = {r_min}, got {r_max}"
            )
        return SimConfig(
            n=v["nodes"],
            area_side=v["area_m"],
            bs_pos=(v["bs_x"], v["bs_y"]),
            initial_energy=v["initial_energy_j"],
            radio=RadioParams(
                e_elec=v["e_elec_nj"] * 1e-9,
                eps_fs=v["eps_fs_pj"] * 1e-12,
                eps_mp=v["eps_mp_pj"] * 1e-12,
                e_da=v["e_da_nj"] * 1e-9,
                packet_bits=v["packet_bits"],
                ctrl_bits=v["ctrl_bits"],
            ),
            protocol=ProtocolParams(
                kind=PROTOCOL_NAMES[v["protocol"]],
                p=v.get("p", 0.05),
                r_min=r_min,
                r_max=r_max,
                **_given(v, "nbr_radius", "control_traffic"),
            ),
            rules1=default_rulebase1(families["mf1"], rules1),
            rules2=default_rulebase2(
                blur_overrides=families["blur"],
                mf_overrides=families["mf2"],
                rules=rules2,
                **_given(v, "blur", "w_radius", "w_chance"),
            ),
            **_given(v, "max_rounds", "seed", "coa_samples", "energy_overrides"),
        )
    except ValueError as e:
        # the field a message starts with, and any field it gives the value of;
        # a sink coordinate's message names its axis, and so its key
        text = re.sub(r"^bs_pos: ([xy]) ", r"bs_\1: ", str(e))
        raise ConfigError(re.sub(r"^\w+|\w+(?= = )", lambda m: _KEY_OF.get(m[0], m[0]), text)) from None
