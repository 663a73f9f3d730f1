"""The decision vector: beam configs, per-PoA power, legality checks and files."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .channel import dbm_to_watts
from .scenario import (Scenario, _dump, _list_of, _map_of, _object, _optional, _parse_at,
                       _radians, _real, _record, _same, _text, read_record)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"{self.code}({self.subject}): {self.message}"


@dataclass(frozen=True)
class BeamConfig:
    """One beam: owner, steering, width, and the users it serves.

    A beam with no served users is disabled; its PoA transmits nothing
    through it.
    """

    beam_id: str
    owner_poa: str
    azimuth: float            # radians in (-pi, pi]
    zenith: float             # radians in [0, pi]
    width: float              # radians
    served_users: frozenset = frozenset()

    @property
    def active(self):
        return bool(self.served_users)


@dataclass(frozen=True)
class SolutionState:
    """Complete decision vector. tx_power maps PoA id -> dBm.

    Powers are capped at each PoA's maximum; -inf dBm means the PoA is
    switched off (0 W). Each user appears in exactly one beam.
    """

    beams: tuple
    tx_power: dict

    def beam_for_user(self, user_id):
        for b in self.beams:
            if user_id in b.served_users:
                return b
        raise KeyError(user_id)

    def beams_of(self, poa_id):
        return [b for b in self.beams if b.owner_poa == poa_id]

    def active_poas(self):
        return sorted({b.owner_poa for b in self.beams if b.active})

    def with_power(self, poa_id, dbm):
        power = dict(self.tx_power)
        power[poa_id] = dbm
        return replace(self, tx_power=power)

    def total_power_watts(self):
        active = set(self.active_poas())
        return sum(
            dbm_to_watts(dbm)
            for pid, dbm in self.tx_power.items()
            if pid in active and dbm != -math.inf
        )


def validate(solution: SolutionState, scenario: Scenario):
    """Structural legality check; returns a list of Violations (empty = legal)."""
    violations = []
    poa_ids = {p.id for p in scenario.poas}
    known_beams = set(scenario.all_beams)
    user_ids = {u.id for u in scenario.users}

    seen_users = {}
    seen_beams = set()
    for b in solution.beams:
        if b.beam_id not in known_beams:
            violations.append(Violation("unknown_beam", b.beam_id, "beam not in scenario"))
            continue
        if b.beam_id in seen_beams:
            violations.append(Violation("duplicate_beam", b.beam_id, "beam listed twice"))
        seen_beams.add(b.beam_id)
        if b.owner_poa not in poa_ids:
            violations.append(Violation("unknown_poa", b.beam_id,
                                        f"owner {b.owner_poa!r} not in scenario"))
            continue
        owner = scenario.poa_by_id(b.owner_poa)
        if scenario.beam_owner(b.beam_id).id != b.owner_poa:
            violations.append(Violation("wrong_owner", b.beam_id,
                                        f"beam belongs to {scenario.beam_owner(b.beam_id).id!r}"))
        if not b.width >= owner.min_beam_width - 1e-12:  # NaN too
            violations.append(Violation(
                "beam_too_narrow", b.beam_id,
                f"width {b.width:.6f} rad below minimum {owner.min_beam_width:.6f}"))
        if not (0.0 <= b.zenith <= math.pi):
            violations.append(Violation("bad_zenith", b.beam_id, "zenith outside [0, pi]"))
        for uid in b.served_users:
            if uid not in user_ids:
                violations.append(Violation("unknown_user", uid, f"served by {b.beam_id}"))
            elif uid in seen_users:
                violations.append(Violation(
                    "multi_served_user", uid,
                    f"served by both {seen_users[uid].beam_id} and {b.beam_id}"))
            else:
                seen_users[uid] = b

    for uid in sorted(user_ids - seen_users.keys()):
        violations.append(Violation("unserved_user", uid, "no beam serves this user"))

    for pid in sorted(solution.tx_power.keys() - poa_ids):
        violations.append(Violation("unknown_poa", pid, "transmit power of a PoA not in scenario"))
    for pid in sorted(poa_ids):
        if pid not in solution.tx_power:
            violations.append(Violation("missing_power", pid, "no transmit power set"))
            continue
        dbm = solution.tx_power[pid]
        limit = scenario.poa_by_id(pid).max_tx_power_dbm
        if math.isnan(dbm):
            violations.append(Violation("bad_power", pid, "power is NaN"))
        elif dbm > limit + 1e-12:
            violations.append(Violation(
                "power_above_max", pid, f"{dbm:.3f} dBm exceeds maximum {limit:.3f} dBm"))

    if scenario.min_poa_user_distance > 0:
        for uid, b in seen_users.items():   # known users served by known PoAs
            p = scenario.poa_by_id(b.owner_poa)
            u = scenario.user_by_id(uid)
            d2d = math.hypot(u.position.x - p.position.x, u.position.y - p.position.y)
            if d2d < scenario.min_poa_user_distance - 1e-9:
                violations.append(Violation(
                    "serving_too_close", uid,
                    f"{d2d:.2f} m from serving PoA {p.id}, minimum "
                    f"{scenario.min_poa_user_distance:.2f} m"))

    return violations


# solution.json, read and written by the record layer of ``scenario``.
_BEAM_KEYS = {
    "beam_id": ("beam_id", _text, _same),
    "owner_poa": ("owner_poa", _text, _same),
    "azimuth_rad": ("azimuth", _real, _same),
    "zenith_rad": ("zenith", _real, _same),
    "width_rad": ("width", _real, _same),
    "served_users": ("served_users", lambda value: frozenset(_list_of(_text)(value)), sorted),
}
# Files written before radians were stored give each angle in degrees only.
_DEGREE_KEYS = {f"{name}_deg": f"{name}_rad" for name in ("azimuth", "zenith", "width")}


def _parse_beam(data):
    data = _object(data)
    for deg, rad in _DEGREE_KEYS.items():
        if deg in data and rad not in data:
            data[rad] = _parse_at(deg, _radians, data.pop(deg))
    return _record(BeamConfig, _BEAM_KEYS, data)


_SOLUTION_KEYS = {
    "beams": ("beams", _list_of(_parse_beam), lambda beams: [_dump(b, _BEAM_KEYS) for b in beams]),
    # A switched-off PoA (-inf dBm) is stored as null.
    "tx_power_dbm": ("tx_power", _map_of(_text, _optional(_real, -math.inf)),
                     lambda power: {pid: None if dbm == -math.inf else dbm
                                    for pid, dbm in sorted(power.items())}),
}


def solution_to_dict(solution: SolutionState) -> dict:
    """JSON-ready form. Angles are written in radians, the unit they are
    held in, so a reloaded solution equals the saved one bit for bit."""
    return _dump(solution, _SOLUTION_KEYS)


def solution_from_dict(data: dict) -> SolutionState:
    """A solution from its file record; an unknown key, or a missing or
    unreadable value, raises ``ValidationError`` at ``beams[0].width_rad``."""
    return _record(SolutionState, _SOLUTION_KEYS, data)


def save_solution(solution: SolutionState, path: str):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(solution_to_dict(solution), f, indent=2, sort_keys=True)
        f.write("\n")


def load_solution(path: str) -> SolutionState:
    """A solution from its UTF-8 JSON file; every error names ``path``
    (``scenario.read_record``)."""
    return read_record(path, "solution", solution_from_dict)
