"""World description: entities, geometry, limits, and channel parameters.

Scenario files are JSON with a ``schema_version`` field. Units in files:
meters, Hz, dBm, bit/s, and degrees for angles; internally angles are
radians. A Scenario is immutable after load and safe to share across
concurrent evaluations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .antenna import ISOTROPIC, THREEGPP_8DBI
from .channel import ChannelParams, PathlossCoeffs, los_probability
from .exposure import FrequencyMap, PhantomProfile

SCHEMA_VERSION = 1

INF_DH = "InF-DH"
UMI_SC = "UMI-SC"

MAX_PLACEMENT_ATTEMPTS = 1000   # uniform draws per user before giving up


class ScenarioError(Exception):
    """Base class for scenario problems."""


class ParseError(ScenarioError):
    """Malformed scenario file."""


class ValidationError(ScenarioError):
    """A scenario invariant is violated; names the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class PlacementError(ScenarioError):
    """Randomized placement could not satisfy the constraints."""


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float

    def as_tuple(self):
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class PoA:
    id: str
    position: Position3D
    frequency: float
    bandwidth: float
    max_tx_power_dbm: float
    min_beam_width: float
    panel_rows: int
    panel_cols: int
    mech_azimuth: float
    beams: tuple = ()
    element_pattern: str = THREEGPP_8DBI


@dataclass(frozen=True)
class EndUser:
    id: str
    position: Position3D
    required_rate: float


@dataclass(frozen=True)
class Human:
    id: str
    position: Position3D
    phantom_id: str
    linked_user: str | None = None


@dataclass(frozen=True)
class Scenario:
    kind: str
    bounds: tuple              # (length, width, height) meters
    poas: tuple
    users: tuple
    humans: tuple
    phantoms: dict             # name -> PhantomProfile
    sar_limit: float
    channel_params: ChannelParams
    frequency_map: FrequencyMap
    min_poa_user_distance: float = 0.0
    name: str = "custom"

    def poa_by_id(self, poa_id):
        for p in self.poas:
            if p.id == poa_id:
                return p
        raise KeyError(poa_id)

    def user_by_id(self, user_id):
        for u in self.users:
            if u.id == user_id:
                return u
        raise KeyError(user_id)

    def beam_owner(self, beam_id):
        for p in self.poas:
            if beam_id in p.beams:
                return p
        raise KeyError(beam_id)

    @property
    def all_beams(self):
        return [b for p in self.poas for b in p.beams]


@dataclass(frozen=True)
class ScenarioTemplate:
    """A world without people, plus the recipe that places them per seed."""

    world: Scenario            # users=() and humans=()
    n_users: int
    n_humans: int
    user_heights: tuple
    required_rate: float
    phantom_cycle: tuple
    min_user_spacing: float = 0.0


# Placeholder phantom constants. The BMI and SAR_ref numbers below are
# synthetic stand-ins with plausible magnitudes, NOT published dosimetry
# values; swap in measured constants via the scenario file for real studies.
_DEFAULT_SAR_REF = {2.45e9: 1.0e-4, 3.5e9: 9.0e-5, 5.2e9: 8.0e-5}

DEFAULT_PHANTOMS = {
    "ella": PhantomProfile("ella", bmi=21.9, sar_ref=dict(_DEFAULT_SAR_REF)),
    "duke": PhantomProfile("duke", bmi=23.1, sar_ref=dict(_DEFAULT_SAR_REF)),
    "thelonious": PhantomProfile("thelonious", bmi=15.4, sar_ref=dict(_DEFAULT_SAR_REF)),
    "billie": PhantomProfile("billie", bmi=16.4, sar_ref=dict(_DEFAULT_SAR_REF)),
}


def _inf_dh_channel():
    return ChannelParams(
        pathloss_los=PathlossCoeffs(31.84, 21.5, 19.0),
        pathloss_nlos=PathlossCoeffs(33.63, 21.9, 20.0),
        shadow_sigma_los_db=3.0,
        shadow_sigma_nlos_db=3.0,
        rician_k_mean_db=13.0,
        rician_k_sigma_db=3.0,
        delay_spread=30e-9,
        azimuth_spread_dep=math.radians(2.0),
        zenith_spread_dep=math.radians(1.0),
        los_model={"kind": "inf-dh", "clutter_density": 0.4,
                   "clutter_height": 2.0, "clutter_size_m": 2.0},
    )


def _umi_channel():
    return ChannelParams(
        pathloss_los=PathlossCoeffs(32.4, 21.0, 20.0),
        pathloss_nlos=PathlossCoeffs(22.4, 35.3, 21.3),
        shadow_sigma_los_db=3.0,
        shadow_sigma_nlos_db=3.0,
        rician_k_mean_db=14.0,
        rician_k_sigma_db=2.5,
        delay_spread=100e-9,
        azimuth_spread_dep=math.radians(1.5),
        zenith_spread_dep=math.radians(0.75),
        los_model={"kind": "umi"},
    )


def _poa(pid, x, y, z, freq, mech_az, max_dbm=30.0, n_beams=5, rows=16,
         cols=32, min_width_deg=2.0, pattern=ISOTROPIC):
    return PoA(
        id=pid, position=Position3D(x, y, z), frequency=freq, bandwidth=20e6,
        max_tx_power_dbm=max_dbm, min_beam_width=math.radians(min_width_deg),
        panel_rows=rows, panel_cols=cols, mech_azimuth=mech_az,
        element_pattern=pattern,
        beams=tuple(f"{pid}-b{j}" for j in range(n_beams)),
    )


def _inf_dh_poas():
    # Pole-mounted panels in the hall interior. Serving links are short and
    # steep (zenith well below the horizon) while co-channel interference
    # arrives near-horizontal, so the row dimension of the array separates
    # them; isotropic elements let one panel cover users on every side.
    poas = [
        _poa("poa1", 20.0, 10.0, 7.0, 3e9, 0.0),
        _poa("poa2", 60.0, 10.0, 7.0, 3e9, math.pi),
    ]
    grid = [(13.33, 5.0), (13.33, 15.0), (40.0, 5.0),
            (40.0, 15.0), (66.67, 5.0), (66.67, 15.0)]
    for i, (x, y) in enumerate(grid, start=3):
        poas.append(_poa(f"poa{i}", x, y, 6.0, 5e9, 0.0))
    return tuple(poas)


def _umi_sc_poas():
    # Back-to-back directive panel pairs down the canyon. A half-wavelength
    # row of columns cannot tell an azimuth from its mirror image, so in a
    # long street each co-channel beam would also illuminate users in the
    # opposite direction; the directive element pattern breaks that symmetry
    # and each pair covers both directions. Pair positions alternate across
    # the canyon so distant beams acquire lateral parallax against users
    # near the other curb.
    east, west = 0.0, math.pi
    pat = THREEGPP_8DBI
    poas = [
        _poa("poa1", 2.0, 20.0, 10.0, 3.5e9, east, cols=64,
             min_width_deg=1.5, pattern=pat),
        _poa("poa2", 798.0, 20.0, 10.0, 3.5e9, west, cols=64,
             min_width_deg=1.5, pattern=pat),
    ]
    pairs = [(201.0, 5.0, east), (199.0, 5.0, west),
             (401.0, 35.0, east), (399.0, 35.0, west),
             (601.0, 5.0, east), (599.0, 5.0, west)]
    for i, (x, y, az) in enumerate(pairs, start=3):
        poas.append(_poa(f"poa{i}", x, y, 10.0, 5.2e9, az, cols=64,
                         min_width_deg=1.5, pattern=pat))
    return tuple(poas)


_INF_FREQ_MAP = FrequencyMap({3e9: 2.45e9, 5e9: 5.2e9})
_UMI_FREQ_MAP = FrequencyMap({3.5e9: 3.5e9, 5.2e9: 5.2e9})


def _inf_template(name, n_users, n_humans):
    world = Scenario(
        kind=INF_DH, bounds=(80.0, 20.0, 8.0), poas=_inf_dh_poas(),
        users=(), humans=(), phantoms=DEFAULT_PHANTOMS, sar_limit=0.08,
        channel_params=_inf_dh_channel(), frequency_map=_INF_FREQ_MAP,
        name=name,
    )
    return ScenarioTemplate(
        world=world, n_users=n_users, n_humans=n_humans, user_heights=(1.5,),
        required_rate=100e6, phantom_cycle=("ella", "duke"),
        min_user_spacing=3.0,
    )


def _umi_template(name, n_users, n_humans):
    world = Scenario(
        kind=UMI_SC, bounds=(800.0, 40.0, 0.0), poas=_umi_sc_poas(),
        users=(), humans=(), phantoms=DEFAULT_PHANTOMS, sar_limit=0.08,
        channel_params=_umi_channel(), frequency_map=_UMI_FREQ_MAP,
        min_poa_user_distance=10.0, name=name,
    )
    return ScenarioTemplate(
        world=world, n_users=n_users, n_humans=n_humans,
        user_heights=(0.9, 1.5), required_rate=100e6,
        phantom_cycle=("ella", "duke", "thelonious", "billie"),
        min_user_spacing=3.0,
    )


BUILTIN_TEMPLATES = {
    "inf-dh-default": _inf_template("inf-dh-default", 100, 200),
    "umi-sc-default": _umi_template("umi-sc-default", 100, 200),
    "inf-dh-desk": _inf_template("inf-dh-desk", 20, 40),
    "umi-sc-desk": _umi_template("umi-sc-desk", 20, 40),
}


def builtin_template(name: str) -> ScenarioTemplate:
    try:
        return BUILTIN_TEMPLATES[name]
    except KeyError:
        raise ScenarioError(f"unknown built-in scenario {name!r}") from None


def generate_placements(template: ScenarioTemplate, seed: int) -> Scenario:
    """Instantiate a template: draw user/human positions from the seed.

    Users are uniform within bounds at the configured heights, rejected
    while closer than ``min_poa_user_distance`` (2-D) to any PoA or
    within ``min_user_spacing`` (2-D) of an already-placed user. Humans
    are linked one-to-one to users (co-located) while both lists last;
    surplus humans are placed uniformly anywhere.
    """
    world = template.world
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9E3779B9]))
    length, width = world.bounds[0], world.bounds[1]

    users = []
    placed = []
    for i in range(template.n_users):
        h = template.user_heights[int(rng.integers(len(template.user_heights)))]
        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            x = float(rng.uniform(0.0, length))
            y = float(rng.uniform(0.0, width))
            if (world.min_poa_user_distance <= 0.0 or all(
                math.hypot(x - p.position.x, y - p.position.y) >= world.min_poa_user_distance
                for p in world.poas
            )) and (template.min_user_spacing <= 0.0 or all(
                math.hypot(x - a, y - b) >= template.min_user_spacing
                for a, b in placed
            )):
                placed.append((x, y))
                break
        else:
            raise PlacementError(
                f"could not place user {i} after {MAX_PLACEMENT_ATTEMPTS} attempts")
        users.append(EndUser(f"user{i}", Position3D(x, y, h), template.required_rate))

    humans = []
    cycle = template.phantom_cycle
    for i in range(template.n_humans):
        phantom = cycle[i % len(cycle)]
        if i < len(users):
            pos = users[i].position
            humans.append(Human(f"human{i}", pos, phantom, linked_user=users[i].id))
        else:
            x = float(rng.uniform(0.0, length))
            y = float(rng.uniform(0.0, width))
            h = template.user_heights[int(rng.integers(len(template.user_heights)))]
            humans.append(Human(f"human{i}", Position3D(x, y, h), phantom))

    scenario = replace(world, users=tuple(users), humans=tuple(humans))
    _validate(scenario)
    return scenario


def builtin_scenario(name: str, seed: int = 0) -> Scenario:
    """A fully placed built-in scenario (template + seeded placements)."""
    return generate_placements(builtin_template(name), seed)


def _validate(s: Scenario):
    lm = s.channel_params.los_model
    try:
        los_probability(lm.get("kind", "inf"), 0.0, 1.0, 1.0)
    except (ValueError, AttributeError):
        raise ValidationError("channel_params.los_model.kind",
                              f"unknown LoS model {lm.get('kind')!r}") from None
    density = lm.get("clutter_density", 0.0)
    if not (isinstance(density, (int, float)) and 0.0 <= density < 1.0):
        raise ValidationError("channel_params.los_model.clutter_density",
                              f"must be in [0, 1), got {density!r}")
    if s.sar_limit <= 0:
        raise ValidationError("limits.sar_wkg", "must be positive")
    if len(s.bounds) < 2 or s.bounds[0] <= 0 or s.bounds[1] <= 0:
        raise ValidationError("bounds_m", "length and width must be positive")
    ids = set()
    for i, p in enumerate(s.poas):
        path = f"poas[{i}]"
        if p.id in ids:
            raise ValidationError(f"{path}.id", f"duplicate id {p.id!r}")
        ids.add(p.id)
        if p.frequency <= 0:
            raise ValidationError(f"{path}.frequency_hz", "must be positive")
        if not (math.isfinite(p.bandwidth) and p.bandwidth > 0):
            raise ValidationError(f"{path}.bandwidth_hz", "must be positive and finite")
        if not math.isfinite(p.max_tx_power_dbm):
            raise ValidationError(f"{path}.max_tx_power_dbm", "must be finite")
        if not (0.0 < p.min_beam_width <= math.pi):
            raise ValidationError(f"{path}.min_beam_width_deg", "must be in (0, 180]")
        if p.panel_rows < 1 or p.panel_cols < 1:
            raise ValidationError(f"{path}.panel", "panel dimensions must be >= 1")
        _check_position(p.position, s, f"{path}.position_m")
        try:
            s.frequency_map.reference(p.frequency)
        except KeyError:
            raise ValidationError(
                f"{path}.frequency_hz",
                f"{p.frequency} Hz missing from frequency_map") from None
    user_ids = set()
    for i, u in enumerate(s.users):
        path = f"users[{i}]"
        if u.id in ids or u.id in user_ids:
            raise ValidationError(f"{path}.id", f"duplicate id {u.id!r}")
        user_ids.add(u.id)
        if u.required_rate <= 0:
            raise ValidationError(f"{path}.required_rate_bps", "must be positive")
        _check_position(u.position, s, f"{path}.position_m")
    for i, h in enumerate(s.humans):
        path = f"humans[{i}]"
        if h.phantom_id not in s.phantoms:
            raise ValidationError(f"{path}.phantom_id", f"unknown phantom {h.phantom_id!r}")
        if h.linked_user is not None:
            try:
                u = s.user_by_id(h.linked_user)
            except KeyError:
                raise ValidationError(
                    f"{path}.linked_user", f"unknown user {h.linked_user!r}") from None
            if u.position != h.position:
                raise ValidationError(
                    f"{path}.position_m", "linked human must share the user position")
        _check_position(h.position, s, f"{path}.position_m")
    ref_freqs = {s.frequency_map.reference(p.frequency) for p in s.poas}
    worn = {h.phantom_id for h in s.humans}
    for i, (name, ph) in enumerate(s.phantoms.items()):
        missing = ref_freqs - ph.sar_ref.keys()
        if name in worn and missing:
            raise ValidationError(
                f"phantoms[{i}].sar_ref", f"phantom {name!r} has no SAR_ref at {min(missing)} Hz")


def _check_position(pos: Position3D, s: Scenario, path: str):
    if pos.z < 0:
        raise ValidationError(f"{path}.z", "height must be non-negative")
    if not (0.0 <= pos.x <= s.bounds[0]) or not (0.0 <= pos.y <= s.bounds[1]):
        raise ValidationError(path, "(x, y) outside the scenario bounding box")


# ---------------------------------------------------------------------------
# Serialization (JSON, degrees/Hz/dBm in files)

def _position_to_json(p):
    return {"x": p.x, "y": p.y, "z": p.z}


def _position_from_json(d, path):
    try:
        return Position3D(float(d["x"]), float(d["y"]), float(d["z"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: bad position ({e})") from None


def scenario_to_dict(s: Scenario) -> dict:
    cp = s.channel_params
    return {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "kind": s.kind,
        "bounds_m": list(s.bounds),
        "limits": {"sar_wkg": s.sar_limit,
                   "min_poa_user_distance_m": s.min_poa_user_distance},
        "poas": [
            {
                "id": p.id,
                "position_m": _position_to_json(p.position),
                "frequency_hz": p.frequency,
                "bandwidth_hz": p.bandwidth,
                "max_tx_power_dbm": p.max_tx_power_dbm,
                "min_beam_width_deg": math.degrees(p.min_beam_width),
                "panel_rows": p.panel_rows,
                "panel_cols": p.panel_cols,
                "mech_azimuth_deg": math.degrees(p.mech_azimuth),
                "beams": list(p.beams),
                "element_pattern": p.element_pattern,
            }
            for p in s.poas
        ],
        "users": [
            {"id": u.id, "position_m": _position_to_json(u.position),
             "required_rate_bps": u.required_rate}
            for u in s.users
        ],
        "humans": [
            {"id": h.id, "position_m": _position_to_json(h.position),
             "phantom_id": h.phantom_id, "linked_user": h.linked_user}
            for h in s.humans
        ],
        "phantoms": [
            {"name": ph.name, "bmi": ph.bmi, "bmi_ref": ph.bmi_ref,
             "e_ref_vpm": ph.e_ref,
             "sar_ref": {str(f): v for f, v in sorted(ph.sar_ref.items())}}
            for ph in s.phantoms.values()
        ],
        "frequency_map": {str(k): v for k, v in sorted(s.frequency_map.pairs.items())},
        "channel_params": {key: dump(getattr(cp, name))
                           for key, (name, _, dump) in _CHANNEL_FIELDS.items()},
    }


def _pathloss(coeffs):
    return PathlossCoeffs(*[float(v) for v in coeffs])


def _radians(deg):
    return math.radians(float(deg))


# channel_params file key -> (ChannelParams field, parse, dump). Keys
# missing from a file take ChannelParams' own defaults; any other key is
# rejected, except the retired arrival-spread keys, which are ignored.
_CHANNEL_FIELDS = {
    "n_clusters": ("n_clusters", int, int),
    "n_rays": ("n_rays", int, int),
    "delay_spread_s": ("delay_spread", float, float),
    "azimuth_spread_dep_deg": ("azimuth_spread_dep", _radians, math.degrees),
    "zenith_spread_dep_deg": ("zenith_spread_dep", _radians, math.degrees),
    "shadow_sigma_los_db": ("shadow_sigma_los_db", float, float),
    "shadow_sigma_nlos_db": ("shadow_sigma_nlos_db", float, float),
    "rician_k_mean_db": ("rician_k_mean_db", float, float),
    "rician_k_sigma_db": ("rician_k_sigma_db", float, float),
    "pathloss_los": ("pathloss_los", _pathloss, lambda c: [c.a, c.b, c.c]),
    "pathloss_nlos": ("pathloss_nlos", _pathloss, lambda c: [c.a, c.b, c.c]),
    "los_model": ("los_model", dict, dict),
}
_RETIRED_CHANNEL_KEYS = {"azimuth_spread_arr_deg", "zenith_spread_arr_deg"}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    try:
        cp_d = data.get("channel_params", {})
        if not isinstance(cp_d, dict):
            raise ValidationError("channel_params", "must be an object")
        for key in cp_d:
            if key not in _CHANNEL_FIELDS and key not in _RETIRED_CHANNEL_KEYS:
                raise ValidationError(f"channel_params.{key}", "unknown key")
        cp = ChannelParams(**{name: parse(cp_d[key])
                              for key, (name, parse, _) in _CHANNEL_FIELDS.items()
                              if key in cp_d})
        phantoms = {}
        for i, ph in enumerate(data.get("phantoms", [])):
            phantoms[ph["name"]] = PhantomProfile(
                name=ph["name"], bmi=float(ph["bmi"]),
                bmi_ref=float(ph.get("bmi_ref", 22.0)),
                e_ref=float(ph.get("e_ref_vpm", 2.45)),
                sar_ref={float(f): float(v) for f, v in ph["sar_ref"].items()},
            )
        freq_map = FrequencyMap(
            {float(k): float(v) for k, v in data.get("frequency_map", {}).items()})
        poas = []
        for i, p in enumerate(data.get("poas", [])):
            poas.append(PoA(
                id=str(p["id"]),
                position=_position_from_json(p["position_m"], f"poas[{i}].position_m"),
                frequency=float(p["frequency_hz"]),
                bandwidth=float(p["bandwidth_hz"]),
                max_tx_power_dbm=float(p["max_tx_power_dbm"]),
                min_beam_width=math.radians(float(p["min_beam_width_deg"])),
                panel_rows=int(p["panel_rows"]),
                panel_cols=int(p["panel_cols"]),
                mech_azimuth=math.radians(float(p.get("mech_azimuth_deg", 0.0))),
                beams=tuple(p.get("beams", (f"{p['id']}-b0",))),
                element_pattern=str(p.get("element_pattern", THREEGPP_8DBI)),
            ))
        users = [
            EndUser(str(u["id"]),
                    _position_from_json(u["position_m"], f"users[{i}].position_m"),
                    float(u["required_rate_bps"]))
            for i, u in enumerate(data.get("users", []))
        ]
        humans = [
            Human(str(h["id"]),
                  _position_from_json(h["position_m"], f"humans[{i}].position_m"),
                  str(h["phantom_id"]), h.get("linked_user"))
            for i, h in enumerate(data.get("humans", []))
        ]
        limits = data.get("limits", {})
        scenario = Scenario(
            kind=str(data["kind"]),
            bounds=tuple(float(v) for v in data["bounds_m"]),
            poas=tuple(poas), users=tuple(users), humans=tuple(humans),
            phantoms=phantoms,
            sar_limit=float(limits.get("sar_wkg", 0.08)),
            channel_params=cp,
            frequency_map=freq_map,
            min_poa_user_distance=float(limits.get("min_poa_user_distance_m", 0.0)),
            name=str(data.get("name", "custom")),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed scenario: {e}") from None
    _validate(scenario)
    # Older files repeat the LoS clutter in a top-level block; it must agree
    # with the LoS model, the only copy the physics reads.
    clutter = data.get("clutter", {})
    if not isinstance(clutter, dict):
        raise ValidationError("clutter", "must be an object")
    lm = scenario.channel_params.los_model
    for key, field in (("density", "clutter_density"), ("height_m", "clutter_height")):
        if key in clutter and clutter[key] != lm.get(field, 0.0):
            raise ValidationError(
                f"clutter.{key}", f"{clutter[key]!r} disagrees with "
                f"channel_params.los_model.{field} = {lm.get(field, 0.0)!r}")
    return scenario


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a JSON file, or a built-in by name (seed 0)."""
    if path_or_name in BUILTIN_TEMPLATES:
        return builtin_scenario(path_or_name)
    try:
        with open(path_or_name) as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ScenarioError(f"no such scenario file or built-in: {path_or_name!r}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path: str):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(s), f, indent=2, sort_keys=True)
        f.write("\n")
