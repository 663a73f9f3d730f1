"""World description: entities, geometry, limits, and channel parameters.

Scenario files are JSON with a ``schema_version`` field. Units in files:
meters, Hz, dBm, bit/s, and degrees for angles; internally angles are
radians. Saving and loading share one key table per kind of record. Load
rejects an unknown key, or a missing or unreadable value, naming its path
(``poas[3].frequency_hz``); every number must be a finite JSON number, and
a missing optional key takes the dataclass default. A Scenario is immutable
after load and safe to share across concurrent evaluations.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .antenna import ELEMENT_PATTERNS, ISOTROPIC, THREEGPP_8DBI
from .channel import LOS_KINDS, ChannelParams, LosModel, PathlossCoeffs
from .exposure import ICNIRP_WHOLE_BODY_LIMIT, FrequencyMap, PhantomProfile

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
        self.path, self.message = path, message
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
    mech_azimuth: float = 0.0
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
    poas: tuple = ()
    users: tuple = ()
    humans: tuple = ()
    phantoms: dict = field(default_factory=dict)   # name -> PhantomProfile
    sar_limit: float = ICNIRP_WHOLE_BODY_LIMIT
    channel_params: ChannelParams = field(default_factory=ChannelParams)
    frequency_map: FrequencyMap = field(default_factory=FrequencyMap)
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
        los_model=LosModel("inf-dh", clutter_density=0.4, clutter_height=2.0,
                           clutter_size_m=2.0),
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
        los_model=LosModel("umi"),
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
        phantoms=DEFAULT_PHANTOMS, sar_limit=ICNIRP_WHOLE_BODY_LIMIT,
        channel_params=_inf_dh_channel(), frequency_map=_INF_FREQ_MAP, name=name,
    )
    return ScenarioTemplate(
        world=world, n_users=n_users, n_humans=n_humans, user_heights=(1.5,),
        required_rate=100e6, phantom_cycle=("ella", "duke"),
        min_user_spacing=3.0,
    )


def _umi_template(name, n_users, n_humans):
    world = Scenario(
        kind=UMI_SC, bounds=(800.0, 40.0, 0.0), poas=_umi_sc_poas(),
        phantoms=DEFAULT_PHANTOMS, sar_limit=ICNIRP_WHOLE_BODY_LIMIT,
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
    if lm.kind not in LOS_KINDS:
        raise ValidationError("channel_params.los_model.kind",
                              f"unknown LoS model {lm.kind!r}, expected one of {LOS_KINDS}")
    if not 0.0 <= lm.clutter_density < 1.0:
        raise ValidationError("channel_params.los_model.clutter_density",
                              f"must be in [0, 1), got {lm.clutter_density!r}")
    if not 0.0 < lm.clutter_size_m < math.inf:
        raise ValidationError("channel_params.los_model.clutter_size_m",
                              f"must be positive and finite, got {lm.clutter_size_m!r}")
    if s.sar_limit <= 0:
        raise ValidationError("limits.sar_wkg", "must be positive")
    if len(s.bounds) < 2:
        raise ValidationError("bounds_m", "needs a length and a width")
    for i in (0, 1):
        if not 0.0 < s.bounds[i] < math.inf:
            raise ValidationError(f"bounds_m[{i}]", "must be positive and finite")
    ids, beam_ids = set(), set()
    for i, p in enumerate(s.poas):
        path = f"poas[{i}]"
        if p.id in ids:
            raise ValidationError(f"{path}.id", f"duplicate id {p.id!r}")
        ids.add(p.id)
        for j, beam_id in enumerate(p.beams):
            if not isinstance(beam_id, str):
                raise ValidationError(f"{path}.beams[{j}]", "must be a string")
            if beam_id in beam_ids:
                raise ValidationError(f"{path}.beams[{j}]", f"duplicate beam id {beam_id!r}")
            beam_ids.add(beam_id)
        if p.frequency <= 0:
            raise ValidationError(f"{path}.frequency_hz", "must be positive")
        if not (math.isfinite(p.bandwidth) and p.bandwidth > 0):
            raise ValidationError(f"{path}.bandwidth_hz", "must be positive and finite")
        if not math.isfinite(p.max_tx_power_dbm):
            raise ValidationError(f"{path}.max_tx_power_dbm", "must be finite")
        if not (0.0 < p.min_beam_width <= math.pi):
            raise ValidationError(f"{path}.min_beam_width_deg", "must be in (0, 180]")
        for key in ("panel_rows", "panel_cols"):
            if getattr(p, key) < 1:
                raise ValidationError(f"{path}.{key}", "must be >= 1")
        if p.element_pattern not in ELEMENT_PATTERNS:
            raise ValidationError(f"{path}.element_pattern", f"unknown {p.element_pattern!r}")
        _check_position(p.position, s, f"{path}.position_m")
        if p.frequency not in s.frequency_map.pairs:
            raise ValidationError(f"{path}.frequency_hz",
                                  f"{p.frequency} Hz missing from frequency_map")
    if not beam_ids:
        raise ValidationError("poas", "no PoA has a beam")
    user_ids = set()
    for i, u in enumerate(s.users):
        path = f"users[{i}]"
        if u.id in ids or u.id in user_ids:
            raise ValidationError(f"{path}.id", f"duplicate id {u.id!r}")
        user_ids.add(u.id)
        if u.required_rate <= 0:
            raise ValidationError(f"{path}.required_rate_bps", "must be positive")
        _check_position(u.position, s, f"{path}.position_m")
    human_ids = set()
    for i, h in enumerate(s.humans):
        path = f"humans[{i}]"
        if h.id in ids or h.id in user_ids or h.id in human_ids:
            raise ValidationError(f"{path}.id", f"duplicate id {h.id!r}")
        human_ids.add(h.id)
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
    """Finite coordinates inside the bounding box; with finite bounds the
    (x, y) range test also refuses NaN and infinite x and y."""
    if not 0.0 <= pos.z < math.inf:
        raise ValidationError(f"{path}.z", "height must be non-negative and finite")
    if not (0.0 <= pos.x <= s.bounds[0]) or not (0.0 <= pos.y <= s.bounds[1]):
        raise ValidationError(path, "(x, y) outside the scenario bounding box")


# ---------------------------------------------------------------------------
# Serialization: one table per kind of file record, file key -> (dataclass
# field, parse, dump). A dotted key (``limits.sar_wkg``) is nested in the file.
# Every number is parsed by ``_real`` and written as held; ``solution.py`` too.

def _same(value):
    return value


def _object(value):
    if not isinstance(value, dict):
        raise TypeError("must be an object")
    return dict(value)


def _text(value):
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _real(value):
    """A finite JSON number as a ``float``: no boolean, string, NaN or Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"must be a finite number, got {value!r}")
    return float(value)


def _integer(value):
    """An integral JSON number as an ``int``; a fraction is refused too."""
    if not _real(value).is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _bounded(parse, low, strict=True):
    """``parse``, refusing a result below ``low``, or equal to it when
    ``strict``: the range checks of the dataclasses a record builds, made
    at the key so that a failure names it."""
    def bounded(value):
        result = parse(value)
        if result < low or (strict and result == low):
            raise ValueError(f"must be {'>' if strict else '>='} {low}, got {value!r}")
        return result
    return bounded


_positive = _bounded(_real, 0.0)


def _optional(parse, null=None):
    return lambda value: null if value is None else parse(value)


def _radians(deg):
    return math.radians(_real(deg))


def _float_key(key):
    """An object key, a JSON string, read as a finite number."""
    return _real(float(key))


def _map_of(parse_key, parse_value):
    """An object read key by key; a failure is reported at its key."""
    return lambda value: {_parse_at(k, parse_key, k): _parse_at(k, parse_value, v)
                          for k, v in _object(value).items()}


def _str_keys(mapping):
    return {str(k): v for k, v in sorted(mapping.items())}


def _parse_at(path, parse, value):
    """``parse(value)``; a failure is reported at ``path``, or below it."""
    try:
        return parse(value)
    except ValidationError as e:
        sep = "" if not e.path or e.path.startswith("[") else "."
        raise ValidationError(f"{path}{sep}{e.path}", e.message) from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(path, str(e)) from None


def _list_of(parse):
    def parse_list(value):
        if not isinstance(value, list):
            raise TypeError("must be a list")
        return tuple(_parse_at(f"[{i}]", parse, v) for i, v in enumerate(value))
    return parse_list


def _record(cls, table, data):
    """A ``cls`` from the file record ``data``; error paths are relative."""
    given = _object(data)
    for block in {k.split(".")[0] for k in table if "." in k} & given.keys():
        nested = _parse_at(block, _object, given.pop(block))
        given.update((f"{block}.{k}", v) for k, v in nested.items())
    for key in given:
        if key not in table:
            raise ValidationError(key, "unknown key")
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    values = {}
    for key, (name, parse, _) in table.items():
        if key in given:
            values[name] = _parse_at(key, parse, given[key])
        elif name in required:
            raise ValidationError(key, "missing")
    return cls(**values)


def _dump(obj, table):
    record = {}
    for key, (name, _, dump) in table.items():
        block, _, sub = key.rpartition(".")
        (record.setdefault(block, {}) if block else record)[sub] = dump(getattr(obj, name))
    return record


def _records(cls, table):
    """(parse, dump) of a list of ``cls`` records."""
    return (_list_of(lambda data: _record(cls, table, data)),
            lambda items: [_dump(x, table) for x in items])


def _parse_poa(data):
    poa = _record(PoA, _POA_KEYS, data)   # listed without beams, a PoA has one
    return poa if "beams" in data else replace(poa, beams=(f"{poa.id}-b0",))


def _phantoms(value):
    phantoms = {}
    for j, ph in enumerate(_parse_phantoms(value)):
        if ph.name in phantoms:
            raise ValidationError(f"[{j}].name", f"duplicate phantom {ph.name!r}")
        phantoms[ph.name] = ph
    return phantoms


def _channel_params(data):
    if isinstance(data, dict):   # the retired arrival-spread keys load, and are ignored
        data = {k: v for k, v in data.items() if k not in _RETIRED_CHANNEL_KEYS}
    return _record(ChannelParams, _CHANNEL_KEYS, data)


_POSITION_KEYS = {axis: (axis, _real, _same) for axis in "xyz"}
_POSITION = ("position", lambda data: _record(Position3D, _POSITION_KEYS, data),
             lambda pos: _dump(pos, _POSITION_KEYS))
_ID = ("id", _text, _same)
_float_map = _map_of(_float_key, _real)

_POA_KEYS = {
    "id": _ID,
    "position_m": _POSITION,
    "frequency_hz": ("frequency", _real, _same),
    "bandwidth_hz": ("bandwidth", _real, _same),
    "max_tx_power_dbm": ("max_tx_power_dbm", _real, _same),
    "min_beam_width_deg": ("min_beam_width", _radians, math.degrees),
    "panel_rows": ("panel_rows", _integer, _same),
    "panel_cols": ("panel_cols", _integer, _same),
    "mech_azimuth_deg": ("mech_azimuth", _radians, math.degrees),
    "beams": ("beams", _list_of(_same), list),
    "element_pattern": ("element_pattern", _text, _same),
}
_USER_KEYS = {"id": _ID, "position_m": _POSITION,
              "required_rate_bps": ("required_rate", _real, _same)}
_HUMAN_KEYS = {"id": _ID, "position_m": _POSITION,
               "phantom_id": ("phantom_id", _text, _same),
               "linked_user": ("linked_user", _optional(_text), _same)}


def _sar_ref(value):
    table = _map_of(_float_key, _positive)(value)
    if not table:
        raise ValueError("must not be empty")
    return table


_PHANTOM_KEYS = {
    "name": ("name", _text, _same),
    "bmi": ("bmi", _positive, _same),
    "bmi_ref": ("bmi_ref", _positive, _same),
    "e_ref_vpm": ("e_ref", _positive, _same),
    "sar_ref": ("sar_ref", _sar_ref, _str_keys),
}
_LOS_KEYS = {
    "kind": ("kind", _text, _same),
    "clutter_density": ("clutter_density", _real, _same),
    "clutter_height": ("clutter_height", _real, _same),
    "clutter_size_m": ("clutter_size_m", _real, _same),
}
_PATHLOSS = (lambda value: PathlossCoeffs(*_list_of(_real)(value)), lambda c: [c.a, c.b, c.c])
_CHANNEL_KEYS = {
    "n_clusters": ("n_clusters", _bounded(_integer, 1, strict=False), _same),
    "n_rays": ("n_rays", _bounded(_integer, 1, strict=False), _same),
    "delay_spread_s": ("delay_spread", _positive, _same),
    "azimuth_spread_dep_deg": ("azimuth_spread_dep", _bounded(_radians, 0.0, strict=False),
                               math.degrees),
    "zenith_spread_dep_deg": ("zenith_spread_dep", _bounded(_radians, 0.0, strict=False),
                              math.degrees),
    "shadow_sigma_los_db": ("shadow_sigma_los_db", _real, _same),
    "shadow_sigma_nlos_db": ("shadow_sigma_nlos_db", _real, _same),
    "rician_k_mean_db": ("rician_k_mean_db", _real, _same),
    "rician_k_sigma_db": ("rician_k_sigma_db", _real, _same),
    "pathloss_los": ("pathloss_los", *_PATHLOSS),
    "pathloss_nlos": ("pathloss_nlos", *_PATHLOSS),
    "los_model": ("los_model", lambda data: _record(LosModel, _LOS_KEYS, data),
                  lambda model: _dump(model, _LOS_KEYS)),
}
_RETIRED_CHANNEL_KEYS = {"azimuth_spread_arr_deg", "zenith_spread_arr_deg"}

_parse_phantoms, _dump_phantoms = _records(PhantomProfile, _PHANTOM_KEYS)
_SCENARIO_KEYS = {
    "name": ("name", _text, _same),
    "kind": ("kind", _text, _same),
    "bounds_m": ("bounds", _list_of(_real), list),
    "limits.sar_wkg": ("sar_limit", _real, _same),
    "limits.min_poa_user_distance_m": ("min_poa_user_distance", _real, _same),
    "poas": ("poas", _list_of(_parse_poa), lambda poas: [_dump(p, _POA_KEYS) for p in poas]),
    "users": ("users", *_records(EndUser, _USER_KEYS)),
    "humans": ("humans", *_records(Human, _HUMAN_KEYS)),
    "phantoms": ("phantoms", _phantoms, lambda phantoms: _dump_phantoms(phantoms.values())),
    "frequency_map": ("frequency_map", lambda value: FrequencyMap(_float_map(value)),
                      lambda fmap: _str_keys(fmap.pairs)),
    "channel_params": ("channel_params", _channel_params, lambda cp: _dump(cp, _CHANNEL_KEYS)),
}


def scenario_to_dict(s: Scenario) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_dump(s, _SCENARIO_KEYS)}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    data = dict(data)
    version = _parse_at("schema_version", _optional(_integer), data.pop("schema_version", None))
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    # Older files repeat the LoS clutter in a top-level block; it must agree
    # with the LoS model, the only copy the physics reads.
    clutter = _parse_at("clutter", _object, data.pop("clutter", {}))
    scenario = _record(Scenario, _SCENARIO_KEYS, data)
    _validate(scenario)
    lm = scenario.channel_params.los_model
    for key, field_name in (("density", "clutter_density"), ("height_m", "clutter_height")):
        if key in clutter and clutter[key] != getattr(lm, field_name):
            raise ValidationError(
                f"clutter.{key}", f"{clutter[key]!r} disagrees with "
                f"channel_params.los_model.{field_name} = {getattr(lm, field_name)!r}")
    return scenario


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a JSON file, or a built-in by name (seed 0)."""
    if path_or_name in BUILTIN_TEMPLATES:
        return builtin_scenario(path_or_name)
    try:
        with open(path_or_name, encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ScenarioError(f"no such scenario file or built-in: {path_or_name!r}") from None
    except OSError as e:  # a directory, or a file that cannot be read
        raise ScenarioError(f"cannot read scenario file {path_or_name!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"scenario file {path_or_name!r} is not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"scenario file {path_or_name!r} is not valid JSON: {e}") from None
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path: str):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(s), f, indent=2, sort_keys=True)
        f.write("\n")
