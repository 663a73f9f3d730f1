"""World description: entities, geometry, limits, and channel parameters.

Scenario files are JSON with a ``schema_version`` field. Units in files:
meters, Hz, dBm, bit/s, and degrees for angles; internally angles are
radians. Saving and loading share one key table per kind of record. Load
rejects an unknown key, or a missing or unreadable value, naming its path
(``poas[3].frequency_hz``); every number must be a finite JSON number, and
a missing optional key takes the dataclass default.

A ranged key states its range beside it in its table, once. Every
``Scenario`` (built-in, generated, loaded or built in Python) passes one
check, ``_validate``, when it is built: each held field against the range
beside its key, refused at the key path, then the rules that span fields.
The maps that check finds repeated ids with are the Scenario's one id
index, ``Scenario.index``, which answers every lookup by id. A Scenario
is immutable and safe to share across concurrent evaluations.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple

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
    """A scenario invariant is violated; names the offending field, and the
    file it was read from when there is one."""

    def __init__(self, path, message, file=None):
        self.path, self.message, self.file = path, message, file
        super().__init__(f"{path}: {message}" + ("" if file is None else f", in {file}"))


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
    required_rate: float        # bit/s


@dataclass(frozen=True)
class Human:
    id: str
    position: Position3D
    phantom_id: str
    linked_user: str | None = None


@dataclass(frozen=True)
class Scenario:
    """A world. Building one runs ``_validate``, which refuses a field out of
    its key's range, or a broken rule that spans fields, at the file key path,
    and builds ``index``, the world's ``IdIndex``."""

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

    def __post_init__(self):
        # The id index is derived state, not a field: ``==``, ``repr``,
        # ``replace`` and the files see the fields alone.
        object.__setattr__(self, "index", _validate(self))

    def __reduce__(self):
        # Pickled as its fields, so that loading builds the index again.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def poa_by_id(self, poa_id):
        return self.poas[self.index.poas[poa_id]]

    def user_by_id(self, user_id):
        return self.users[self.index.users[user_id]]

    def beam_owner(self, beam_id):
        return self.poas[self.index.owners[beam_id]]

    @property
    def all_beams(self):
        return list(self.index.owners)


class IdIndex(NamedTuple):
    """Every lookup by id of one Scenario, built once by ``_validate`` as it
    refuses repeated ids; read only. An unknown id raises ``KeyError``.

    ``user_ids`` is a set because ``solution.validate`` intersects each
    beam's users with it, and reports in the order the intersection
    iterates, which follows how the set was built: one id at a time, in
    scenario order."""

    poas: dict      # PoA id -> its position in ``poas``
    owners: dict    # beam id -> its owner's position in ``poas``, in listing order
    users: dict     # user id -> its column, its position in ``users``
    user_ids: set   # the keys of ``users``
    linked: tuple   # per human, the column of the user it is linked to, or None


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


# ---------------------------------------------------------------------------
# Serialization: one table per kind of file record, file key -> (dataclass
# field, parse, dump[, range]). A dotted key (``limits.sar_wkg``) is nested in
# the file. Every number is parsed by ``_real`` or ``_integer`` and written as
# held. Parsing checks types only; the range, on the held
# value, is checked by ``_validate``: an interval or a set of values, the key
# table of a record (or of each record of a list), one range per position
# of a list, or a range of one attribute of the value (``_Attribute``). A
# range of a map's values, or of a list's items, holds for each of them.

@dataclass(frozen=True)
class _Interval:
    """The reals from ``low`` to ``high``, with the ends that ``closed``
    names included ("[" the low one, "]" the high one). An end at ±inf is
    left open, so NaN and ±inf lie in no interval."""

    low: float
    high: float = math.inf
    closed: str = ""

    def __contains__(self, x):
        return ((self.low <= x) if "[" in self.closed else (self.low < x)) and (
            (x <= self.high) if "]" in self.closed else (x < self.high))

    def show(self, dump):
        return (f"in {'[' if '[' in self.closed else '('}{dump(self.low):g}, "
                f"{dump(self.high):g}{']' if ']' in self.closed else ')'}")


@dataclass(frozen=True)
class _OneOf:
    values: tuple

    def __contains__(self, x):
        return x in self.values

    def show(self, dump):
        return f"one of {self.values}"


class _PathSegment:
    """A scenario's name is the first directory of its runs under ``--out``."""

    def __contains__(self, name):
        return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")

    def show(self, dump):
        return "one plain path segment"


@dataclass(frozen=True)
class _Attribute:
    """``within`` of the held value's attribute ``name``, checked at the
    value's own key path: a ``FrequencyMap`` is filed as its ``pairs``."""

    name: str
    within: object


_FINITE = _Interval(-math.inf)
_POSITIVE = _Interval(0.0)
_NON_NEGATIVE = _Interval(0.0, closed="[")
_AT_LEAST_ONE = _Interval(1, closed="[")


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
    """An integral real as an ``int``, numpy scalars included; a boolean, a
    string, a fraction, NaN or ±inf is refused."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


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
    for key, (name, parse, *_) in table.items():
        if key in given:
            values[name] = _parse_at(key, parse, given[key])
        elif name in required:
            raise ValidationError(key, "missing")
    return cls(**values)


def _dump(obj, table):
    record = {}
    for key, (name, _, dump, *_) in table.items():
        block, _, sub = key.rpartition(".")
        (record.setdefault(block, {}) if block else record)[sub] = dump(getattr(obj, name))
    return record


def _nested(cls, table):
    """(parse, dump, range) of one ``cls`` record nested in another."""
    return lambda data: _record(cls, table, data), lambda obj: _dump(obj, table), table


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


# A length [m] of the world is at most 1,000 km: far past any TR 38.901
# deployment, and far below 1e154 m, past which a squared distance
# overflows inside the channel.
_FAR = 1e6
# The least rate floor [bit/s] per Hz of any PoA's band. A floor's SINR is
# then at least 2^1e-8 - 1, about 6.9e-9, which 1 + SINR holds in float64
# to a spacing of 3.2e-8 of itself: a seventh of the least powers' 1e-6 dB
# round-up (``radio_metrics.ROUND_UP_DB``, 2.3e-7 in watts). So every floor
# that validates is resolved by ``shannon_rate`` at every PoA's bandwidth.
# Far below it 1 + SINR rounds to 1 and the rate reads 0: a floor of 1e-18
# bit/s at 20 MHz ran CtM's least-watts search to its step bound.
_LEAST_FLOOR_PER_HZ = 1e-8
# x and y must lie inside the scenario's bounds (``_check_position``).
_POSITION_KEYS = {"x": ("x", _real, _same), "y": ("y", _real, _same),
                  "z": ("z", _real, _same, _Interval(0.0, _FAR, "[]"))}
_POSITION = ("position", *_nested(Position3D, _POSITION_KEYS))
_ID = ("id", _text, _same)
_float_map = _map_of(_float_key, _real)

# A PoA's carrier is at most 300 GHz, where ICNIRP's radio-frequency
# guidelines, and the SAR chain that applies them, end; its maximum power
# is at most 100 dBm (10 MW). Far past either, the power density's f^2 or
# the maximum in watts overflows inside a solve. Its band is no wider than
# the highest carrier, 300 GHz, so the least floor below is at most 3 kbit/s.
_POA_KEYS = {
    "id": _ID,
    "position_m": _POSITION,
    "frequency_hz": ("frequency", _real, _same, _Interval(0.0, 300e9, "]")),
    "bandwidth_hz": ("bandwidth", _real, _same, _Interval(0.0, 300e9, "]")),
    "max_tx_power_dbm": ("max_tx_power_dbm", _real, _same, _Interval(-math.inf, 100.0, "]")),
    "min_beam_width_deg": ("min_beam_width", _radians, math.degrees,
                           _Interval(0.0, math.pi, "]")),
    "panel_rows": ("panel_rows", _integer, _same, _AT_LEAST_ONE),
    "panel_cols": ("panel_cols", _integer, _same, _AT_LEAST_ONE),
    "mech_azimuth_deg": ("mech_azimuth", _radians, math.degrees, _FINITE),
    "beams": ("beams", _list_of(_same), list),
    "element_pattern": ("element_pattern", _text, _same, _OneOf(ELEMENT_PATTERNS)),
}
# A floor of 0 is met at any power, so CtM's power step would never stop
# lowering its PoA; a NaN floor is never met. A floor is also at least
# _LEAST_FLOOR_PER_HZ times the widest PoA band (``_validate``).
_USER_KEYS = {"id": _ID, "position_m": _POSITION,
              "required_rate_bps": ("required_rate", _real, _same, _POSITIVE)}
_HUMAN_KEYS = {"id": _ID, "position_m": _POSITION,
               "phantom_id": ("phantom_id", _text, _same),
               "linked_user": ("linked_user", _optional(_text), _same)}
_PHANTOM_KEYS = {
    "name": ("name", _text, _same),
    "bmi": ("bmi", _real, _same, _POSITIVE),
    "bmi_ref": ("bmi_ref", _real, _same, _POSITIVE),
    "e_ref_vpm": ("e_ref", _real, _same, _POSITIVE),
    "sar_ref": ("sar_ref", _float_map, _str_keys, _POSITIVE),
}
_LOS_KEYS = {
    "kind": ("kind", _text, _same, _OneOf(LOS_KINDS)),
    "clutter_density": ("clutter_density", _real, _same, _Interval(0.0, 1.0, "[")),
    "clutter_height": ("clutter_height", _real, _same, _FINITE),
    "clutter_size_m": ("clutter_size_m", _real, _same, _POSITIVE),
}
_PATHLOSS = (lambda value: PathlossCoeffs(*_list_of(_real)(value)), list, (_FINITE,) * 3)
_CHANNEL_KEYS = {
    "n_clusters": ("n_clusters", _integer, _same, _AT_LEAST_ONE),
    "n_rays": ("n_rays", _integer, _same, _AT_LEAST_ONE),
    "delay_spread_s": ("delay_spread", _real, _same, _POSITIVE),
    "azimuth_spread_dep_deg": ("azimuth_spread_dep", _radians, math.degrees, _NON_NEGATIVE),
    "zenith_spread_dep_deg": ("zenith_spread_dep", _radians, math.degrees, _NON_NEGATIVE),
    "shadow_sigma_los_db": ("shadow_sigma_los_db", _real, _same, _FINITE),
    "shadow_sigma_nlos_db": ("shadow_sigma_nlos_db", _real, _same, _FINITE),
    "rician_k_mean_db": ("rician_k_mean_db", _real, _same, _FINITE),
    "rician_k_sigma_db": ("rician_k_sigma_db", _real, _same, _FINITE),
    "pathloss_los": ("pathloss_los", *_PATHLOSS),
    "pathloss_nlos": ("pathloss_nlos", *_PATHLOSS),
    "los_model": ("los_model", *_nested(LosModel, _LOS_KEYS)),
}

_parse_phantoms, _dump_phantoms = _records(PhantomProfile, _PHANTOM_KEYS)
_SCENARIO_KEYS = {
    "name": ("name", _text, _same, _PathSegment()),
    "kind": ("kind", _text, _same),
    "bounds_m": ("bounds", _list_of(_real), list, (_Interval(0.0, _FAR, "]"),) * 2),
    "limits.sar_wkg": ("sar_limit", _real, _same, _POSITIVE),
    "limits.min_poa_user_distance_m": ("min_poa_user_distance", _real, _same, _NON_NEGATIVE),
    "poas": ("poas", _list_of(_parse_poa), lambda poas: [_dump(p, _POA_KEYS) for p in poas],
             _POA_KEYS),
    "users": ("users", *_records(EndUser, _USER_KEYS), _USER_KEYS),
    "humans": ("humans", *_records(Human, _HUMAN_KEYS), _HUMAN_KEYS),
    "phantoms": ("phantoms", _phantoms, lambda phantoms: _dump_phantoms(phantoms.values()),
                 _PHANTOM_KEYS),
    "frequency_map": ("frequency_map", lambda value: FrequencyMap(_float_map(value)),
                      lambda fmap: _str_keys(fmap.pairs), _Attribute("pairs", _POSITIVE)),
    "channel_params": ("channel_params", *_nested(ChannelParams, _CHANNEL_KEYS)),
}


def _check_ranges(value, within, path="", dump=_same):
    """Refuse the first part of the held ``value`` outside ``within`` (see
    the tables above) with a ``ValidationError`` at its file key path."""
    if isinstance(within, dict) and isinstance(value, (tuple, dict)):   # a list of records
        for i, record in enumerate(value.values() if isinstance(value, dict) else value):
            _check_ranges(record, within, f"{path}[{i}]")
    elif isinstance(within, dict):
        for key, (name, _, dump, *ranged) in within.items():
            if ranged:
                _check_ranges(getattr(value, name), ranged[0], f"{path}.{key}" if path else key,
                              dump)
    elif isinstance(within, tuple):
        for i, (item, item_range) in enumerate(zip(value, within)):
            _check_ranges(item, item_range, f"{path}[{i}]")
    elif isinstance(within, _Attribute):
        _check_ranges(getattr(value, within.name), within.within, path)
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_ranges(item, within, f"{path}.{key}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            _check_ranges(item, within, f"{path}[{i}]")
    elif value not in within:
        raise ValidationError(path, f"must be {within.show(dump)}, got {dump(value)!r}")


# Values from outside a file, a config's or a run's arguments, pass the same
# parse and range as a file key, refused with a ``ValueError`` that names them.

def _field(name, parse, value, within):
    """``parse(value)``, in ``within`` unless it is None; a failure raises
    ``ValueError`` starting with ``name``."""
    try:
        value = _parse_at(name, parse, value)
        if value is not None:
            _check_ranges(value, within, name)
    except ValidationError as e:
        raise ValueError(f"{e.path} {e.message}") from None
    return value


def _ranged(default, within, parse=_integer):
    """A dataclass field that ``_check_fields`` parses and keeps ``within``."""
    return field(default=default, metadata={"range": (parse, within)})


def _check_fields(obj):
    """Each ``_ranged`` field of the frozen dataclass ``obj`` replaced by
    its ``_field``."""
    for f in fields(obj):
        if "range" in f.metadata:
            parse, within = f.metadata["range"]
            object.__setattr__(obj, f.name, _field(f.name, parse, getattr(obj, f.name), within))


def _validate(s: Scenario) -> IdIndex:
    """Every field of ``s`` in the range beside its key, then the rules that
    span fields: unique ids, string beam ids each owned by one PoA, positions
    inside the bounds, rate floors resolvable at the widest PoA band, linked
    humans on their users and at most one per user, every PoA frequency
    mapped and every worn phantom's SAR_ref covering the mapped ones.
    Returns the id index of ``s``, built from the maps that find repeated
    ids."""
    _check_ranges(s, _SCENARIO_KEYS)
    if len(s.bounds) < 2:
        raise ValidationError("bounds_m", "needs a length and a width")
    poas, owners = {}, {}
    for i, p in enumerate(s.poas):
        path = f"poas[{i}]"
        if p.id in poas:
            raise ValidationError(f"{path}.id", f"duplicate id {p.id!r}")
        poas[p.id] = i
        for j, beam_id in enumerate(p.beams):
            if not isinstance(beam_id, str):
                raise ValidationError(f"{path}.beams[{j}]", "must be a string")
            if beam_id in owners:
                raise ValidationError(f"{path}.beams[{j}]", f"duplicate beam id {beam_id!r}")
            owners[beam_id] = i
        _check_position(p.position, s, f"{path}.position_m")
        if p.frequency not in s.frequency_map.pairs:
            raise ValidationError(f"{path}.frequency_hz",
                                  f"{p.frequency} Hz missing from frequency_map")
    if not owners:
        raise ValidationError("poas", "no PoA has a beam")
    users, user_ids = {}, set()
    widest = max(p.bandwidth for p in s.poas)
    for i, u in enumerate(s.users):
        path = f"users[{i}]"
        if u.id in poas or u.id in users:
            raise ValidationError(f"{path}.id", f"duplicate id {u.id!r}")
        if u.required_rate < _LEAST_FLOOR_PER_HZ * widest:
            raise ValidationError(
                f"{path}.required_rate_bps",
                f"must be at least {_LEAST_FLOOR_PER_HZ * widest:g} bit/s, {_LEAST_FLOOR_PER_HZ:g}"
                f" per Hz of the widest PoA band ({widest:g} Hz), got {u.required_rate!r}")
        users[u.id] = i
        user_ids.add(u.id)
        _check_position(u.position, s, f"{path}.position_m")
    human_ids, linked, bodies = set(), [], set()
    for i, h in enumerate(s.humans):
        path = f"humans[{i}]"
        if h.id in poas or h.id in users or h.id in human_ids:
            raise ValidationError(f"{path}.id", f"duplicate id {h.id!r}")
        human_ids.add(h.id)
        if h.phantom_id not in s.phantoms:
            raise ValidationError(f"{path}.phantom_id", f"unknown phantom {h.phantom_id!r}")
        column = users.get(h.linked_user)
        if h.linked_user is not None and column is None:
            raise ValidationError(f"{path}.linked_user", f"unknown user {h.linked_user!r}")
        if column is not None:
            if s.users[column].position != h.position:
                raise ValidationError(f"{path}.position_m",
                                      "linked human must share the user position")
            if column in bodies:
                raise ValidationError(f"{path}.linked_user",
                                      f"user {h.linked_user!r} already has a linked human")
            bodies.add(column)
        linked.append(column)
        _check_position(h.position, s, f"{path}.position_m")
    ref_freqs = {s.frequency_map.reference(p.frequency) for p in s.poas}
    worn = {h.phantom_id for h in s.humans}
    for i, (name, ph) in enumerate(s.phantoms.items()):
        missing = ref_freqs - ph.sar_ref.keys()
        if name in worn and missing:
            raise ValidationError(
                f"phantoms[{i}].sar_ref", f"phantom {name!r} has no SAR_ref at {min(missing)} Hz")
    return IdIndex(poas, owners, users, user_ids, tuple(linked))


def _check_position(pos: Position3D, s: Scenario, path: str):
    """(x, y) inside the bounding box; with finite bounds this also refuses
    NaN and infinite x and y."""
    if not (0.0 <= pos.x <= s.bounds[0]) or not (0.0 <= pos.y <= s.bounds[1]):
        raise ValidationError(path, "(x, y) outside the scenario bounding box")


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

    return replace(world, users=tuple(users), humans=tuple(humans))


def builtin_scenario(name: str, seed: int = 0) -> Scenario:
    """A fully placed built-in scenario (template + seeded placements)."""
    return generate_placements(builtin_template(name), seed)


def scenario_to_dict(s: Scenario) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_dump(s, _SCENARIO_KEYS)}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    data = dict(data)
    version = _parse_at("schema_version", _optional(_integer), data.pop("schema_version", None))
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    return _record(Scenario, _SCENARIO_KEYS, data)


def load_scenario(path_or_name: str) -> Scenario:
    """A built-in by name (seed 0), or the world of a UTF-8 JSON file. A
    path that is missing, is a directory or cannot be read raises
    ``ScenarioError``, a file that is not UTF-8 text or not valid JSON
    ``ParseError``, and a record error ``ValidationError`` at the same
    ``.path``; each names the file."""
    if path_or_name in BUILTIN_TEMPLATES:
        return builtin_scenario(path_or_name)
    path = str(path_or_name)
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ScenarioError(f"no such scenario file or built-in: {path!r}") from None
    except OSError as e:  # a directory, or a file that cannot be read
        raise ScenarioError(f"cannot read scenario file {path!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"scenario file {path!r} is not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"scenario file {path!r} is not valid JSON: {e}") from None
    try:
        return scenario_from_dict(data)
    except ValidationError as e:
        raise ValidationError(e.path, e.message, file=f"scenario file {path!r}") from None


def save_scenario(s: Scenario, path: str):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(s), f, indent=2, sort_keys=True)
        f.write("\n")

