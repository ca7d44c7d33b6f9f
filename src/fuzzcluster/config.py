"""Flat key=value configuration files, scenario presets and validation.

Radio constants are written in the units the scenario tables use (nJ and pJ)
and normalized to joules here. Unknown keys are rejected so typos surface
immediately; every error names the offending field.
"""
from __future__ import annotations

import os
from typing import Mapping

from .energy import RadioParams
from .fis1 import (
    CHANCE_TERMS,
    CONCENTRATION_TERMS,
    DEFAULT_SAMPLES,
    DISTANCE_TERMS,
    ENERGY_TERMS,
    RADIUS_TERMS,
    MembershipFunction,
    default_rulebase1,
    triangular,
    trapezoidal,
)
from .fis2 import (
    DEFAULT_BLUR,
    T2_CHANCE_TERMS,
    T2_DISTANCE_TERMS,
    T2_ENERGY_TERMS,
    T2_RADIUS_TERMS,
    default_rulebase2,
)
from .protocols import DIRECTION_ABOVE, DIRECTION_BELOW, ProtocolParams
from .simulator import SimConfig


class ConfigError(ValueError):
    """Invalid or missing configuration input."""


PROTOCOL_NAMES = {"leach": "leach", "fuzzy-unequal": "fuzzy_unequal", "type2fl": "type2fl"}

_REQUIRED = (
    "nodes",
    "area_m",
    "bs_x",
    "bs_y",
    "initial_energy_j",
    "e_elec_nj",
    "eps_fs_pj",
    "eps_mp_pj",
    "e_da_nj",
    "packet_bits",
    "ctrl_bits",
    "protocol",
)

_OPTIONAL = (
    "p",
    "threshold_direction",
    "r_min_m",
    "r_max_m",
    "nbr_radius_m",
    "control_traffic",
    "max_rounds",
    "seed",
    "coa_samples",
    "blur",
    "energy_overrides",
    "w.radius",
    "w.chance",
)

_T1_VARS = {
    "distance": DISTANCE_TERMS,
    "energy": ENERGY_TERMS,
    "concentration": CONCENTRATION_TERMS,
    "radius": RADIUS_TERMS,
    "chance": CHANCE_TERMS,
}
_T2_VARS = {"distance": T2_DISTANCE_TERMS, "energy": T2_ENERGY_TERMS}

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


def _as_float(pairs: Mapping[str, str], key: str) -> float:
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: not a number: {pairs[key]!r}") from None


def _as_int(pairs: Mapping[str, str], key: str) -> int:
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {pairs[key]!r}") from None


def _as_bool(pairs: Mapping[str, str], key: str) -> bool:
    v = pairs[key].lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {pairs[key]!r}")


def _parse_mf(key: str, value: str) -> MembershipFunction:
    shape, _, rest = value.partition(":")
    try:
        pts = [float(x) for x in rest.split(",")]
    except ValueError:
        raise ConfigError(f"{key}: bad breakpoint list {rest!r}") from None
    try:
        if shape == "tri" and len(pts) == 3:
            return triangular(*pts)
        if shape == "trap" and len(pts) == 4:
            return trapezoidal(*pts)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None
    raise ConfigError(f"{key}: expected tri:a,b,c or trap:a,b,c,d, got {value!r}")


def _parse_energy_overrides(value: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for item in value.split(","):
        nid_s, _, e_s = item.partition(":")
        try:
            nid, e = int(nid_s), float(e_s)
        except ValueError:
            raise ConfigError(f"energy_overrides: bad entry {item.strip()!r}") from None
        out[nid] = e
    return out


def _parse_weights(key: str, value: str, terms: tuple[str, ...]) -> dict[str, float]:
    try:
        ws = [float(x) for x in value.split(",")]
    except ValueError:
        raise ConfigError(f"{key}: bad weight list {value!r}") from None
    if len(ws) != len(terms):
        raise ConfigError(f"{key}: expected {len(terms)} weights, got {len(ws)}")
    for w in ws:
        if not 0.0 <= w <= 1.0:
            raise ConfigError(f"{key}: weight {w} outside [0, 1]")
    return dict(zip(terms, ws))


def _split_dynamic(pairs: dict[str, str]):
    """Pull out the mf1./mf2./rule1./rule2./blur. families; reject other keys."""
    plain: dict[str, str] = {}
    mf1: dict[str, dict[str, MembershipFunction]] = {}
    mf2: dict[str, dict[str, MembershipFunction]] = {}
    rules1: dict[int, str] = {}
    rules2: dict[int, str] = {}
    blurs: dict[str, float] = {}
    for key, value in pairs.items():
        if key in _REQUIRED or key in _OPTIONAL:
            plain[key] = value
            continue
        parts = key.split(".")
        if parts[0] in ("mf1", "mf2") and len(parts) == 3:
            varmap = _T1_VARS if parts[0] == "mf1" else _T2_VARS
            if parts[1] not in varmap:
                raise ConfigError(f"{key}: unknown variable {parts[1]!r}")
            if parts[2] not in varmap[parts[1]]:
                raise ConfigError(f"{key}: unknown term {parts[2]!r} of {parts[1]!r}")
            target = mf1 if parts[0] == "mf1" else mf2
            target.setdefault(parts[1], {})[parts[2]] = _parse_mf(key, value)
        elif parts[0] in ("rule1", "rule2") and len(parts) == 2 and parts[1].isdigit():
            (rules1 if parts[0] == "rule1" else rules2)[int(parts[1])] = value
        elif parts[0] == "blur" and len(parts) == 2:
            if parts[1] not in _T2_VARS:
                raise ConfigError(f"{key}: unknown variable {parts[1]!r}")
            try:
                blurs[parts[1]] = float(value)
            except ValueError:
                raise ConfigError(f"{key}: not a number: {value!r}") from None
        else:
            raise ConfigError(f"unknown key {key!r}")
    return plain, mf1, mf2, rules1, rules2, blurs


def _collect_rules(numbered: dict[int, str], count: int, arity: int, family: str):
    if not numbered:
        return None
    expected = set(range(1, count + 1))
    if set(numbered) != expected:
        raise ConfigError(f"{family}: need entries {family}.1 .. {family}.{count}")
    table = []
    for i in range(1, count + 1):
        fields = tuple(part.strip() for part in numbered[i].split(","))
        if len(fields) != arity:
            raise ConfigError(f"{family}.{i}: expected {arity} comma-separated terms")
        table.append(fields)
    return table


def parse_config(source: str) -> SimConfig:
    """Build a validated SimConfig from a preset name or a config-file path."""
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
    plain, mf1, mf2, rules1_raw, rules2_raw, blurs = _split_dynamic(pairs)
    for key in _REQUIRED:
        if key not in plain:
            raise ConfigError(f"missing required key {key!r}")

    n = _as_int(plain, "nodes")
    if n < 1:
        raise ConfigError("nodes: must be at least 1")
    area = _as_float(plain, "area_m")
    if area <= 0.0:
        raise ConfigError("area_m: must be positive")
    init_e = _as_float(plain, "initial_energy_j")
    if init_e <= 0.0:
        raise ConfigError("initial_energy_j: must be positive")

    def positive(key: str) -> float:
        v = _as_float(plain, key)
        if v <= 0.0:
            raise ConfigError(f"{key}: must be positive")
        return v

    radio = RadioParams(
        e_elec=positive("e_elec_nj") * 1e-9,
        eps_fs=positive("eps_fs_pj") * 1e-12,
        eps_mp=positive("eps_mp_pj") * 1e-12,
        e_da=positive("e_da_nj") * 1e-9,
        packet_bits=_as_int(plain, "packet_bits"),
        ctrl_bits=_as_int(plain, "ctrl_bits"),
    )
    if radio.packet_bits < 1:
        raise ConfigError("packet_bits: must be at least 1")
    if radio.ctrl_bits < 1:
        raise ConfigError("ctrl_bits: must be at least 1")

    proto_name = plain["protocol"]
    if proto_name not in PROTOCOL_NAMES:
        raise ConfigError(
            f"protocol: unknown value {proto_name!r} (choices: {', '.join(PROTOCOL_NAMES)})"
        )
    p = _as_float(plain, "p") if "p" in plain else 0.05
    if not 0.0 < p < 1.0:
        raise ConfigError("p: must lie strictly between 0 and 1")
    direction = plain.get("threshold_direction")
    if direction is not None and direction not in (DIRECTION_BELOW, DIRECTION_ABOVE):
        raise ConfigError("threshold_direction: must be 'below' or 'above'")
    r_min = _as_float(plain, "r_min_m") if "r_min_m" in plain else 0.1 * area
    r_max = _as_float(plain, "r_max_m") if "r_max_m" in plain else 0.4 * area
    if not 0.0 < r_min < r_max:
        raise ConfigError("r_min_m/r_max_m: need 0 < r_min_m < r_max_m")
    nbr_radius = _as_float(plain, "nbr_radius_m") if "nbr_radius_m" in plain else None
    if nbr_radius is not None and nbr_radius <= 0.0:
        raise ConfigError("nbr_radius_m: must be positive")
    protocol = ProtocolParams(
        kind=PROTOCOL_NAMES[proto_name],
        p=p,
        r_min=r_min,
        r_max=r_max,
        nbr_radius=nbr_radius,
        threshold_direction=direction,
        control_traffic=_as_bool(plain, "control_traffic") if "control_traffic" in plain else True,
    )

    max_rounds = _as_int(plain, "max_rounds") if "max_rounds" in plain else 5000
    if max_rounds < 1:
        raise ConfigError("max_rounds: must be at least 1")
    seed = _as_int(plain, "seed") if "seed" in plain else 1
    if seed < 0:
        raise ConfigError("seed: must be nonnegative")
    coa_samples = _as_int(plain, "coa_samples") if "coa_samples" in plain else DEFAULT_SAMPLES
    if coa_samples < 3:
        raise ConfigError("coa_samples: must be at least 3")
    blur = _as_float(plain, "blur") if "blur" in plain else DEFAULT_BLUR
    if not 0.0 <= blur < 1.0:
        raise ConfigError("blur: must lie in [0, 1)")
    for var, b in blurs.items():
        if not 0.0 <= b < 1.0:
            raise ConfigError(f"blur.{var}: must lie in [0, 1)")

    overrides = (
        _parse_energy_overrides(plain["energy_overrides"]) if "energy_overrides" in plain else {}
    )
    for nid, e in overrides.items():
        if not 0 <= nid < n:
            raise ConfigError(f"energy_overrides: node {nid} outside 0..{n - 1}")
        if e <= 0.0:
            raise ConfigError(f"energy_overrides: node {nid} energy must be positive")

    w_radius = (
        _parse_weights("w.radius", plain["w.radius"], T2_RADIUS_TERMS)
        if "w.radius" in plain
        else None
    )
    w_chance = (
        _parse_weights("w.chance", plain["w.chance"], T2_CHANCE_TERMS)
        if "w.chance" in plain
        else None
    )

    rules1_table = _collect_rules(rules1_raw, 27, 5, "rule1")
    rules2_table = _collect_rules(rules2_raw, 9, 4, "rule2")

    custom1 = bool(mf1 or rules1_table)
    custom2 = bool(mf2 or rules2_table or w_radius or w_chance or blurs or blur != DEFAULT_BLUR)
    try:
        rules1 = default_rulebase1(mf1 or None, rules1_table) if custom1 else None
        rules2 = (
            default_rulebase2(blur, blurs, mf2 or None, w_radius, w_chance, rules2_table)
            if custom2
            else None
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None

    cfg = SimConfig(
        n=n,
        area_side=area,
        bs_pos=(_as_float(plain, "bs_x"), _as_float(plain, "bs_y")),
        initial_energy=init_e,
        radio=radio,
        protocol=protocol,
        max_rounds=max_rounds,
        seed=seed,
        coa_samples=coa_samples,
        blur=blur,
        blur_overrides=blurs,
        rules1=rules1,
        rules2=rules2,
        energy_overrides=overrides,
    )
    cfg.validate()
    return cfg
