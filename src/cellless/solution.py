"""The decision vector: beam configs, per-PoA power, and legality checks."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .channel import dbm_to_watts
from .scenario import Scenario


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
        if b.width < owner.min_beam_width - 1e-12:
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
                    f"served by both {seen_users[uid]} and {b.beam_id}"))
            else:
                seen_users[uid] = b.beam_id

    for uid in sorted(user_ids - seen_users.keys()):
        violations.append(Violation("unserved_user", uid, "no beam serves this user"))

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
        for uid, beam_id in seen_users.items():
            b = next(x for x in solution.beams if x.beam_id == beam_id)
            if b.owner_poa not in poa_ids or uid not in user_ids:
                continue
            p = scenario.poa_by_id(b.owner_poa)
            u = scenario.user_by_id(uid)
            d2d = math.hypot(u.position.x - p.position.x, u.position.y - p.position.y)
            if d2d < scenario.min_poa_user_distance - 1e-9:
                violations.append(Violation(
                    "serving_too_close", uid,
                    f"{d2d:.2f} m from serving PoA {p.id}, minimum "
                    f"{scenario.min_poa_user_distance:.2f} m"))

    return violations


def solution_to_dict(solution: SolutionState) -> dict:
    """JSON-ready form. Angles are written in radians, the unit they are
    held in, so a reloaded solution equals the saved one bit for bit."""
    return {
        "beams": [
            {
                "beam_id": b.beam_id,
                "owner_poa": b.owner_poa,
                "azimuth_rad": b.azimuth,
                "zenith_rad": b.zenith,
                "width_rad": b.width,
                "served_users": sorted(b.served_users),
            }
            for b in solution.beams
        ],
        "tx_power_dbm": {
            pid: (None if dbm == -math.inf else dbm)
            for pid, dbm in sorted(solution.tx_power.items())
        },
    }


def _angle(beam: dict, name: str) -> float:
    """An angle in radians; files written before radians were stored give
    it in degrees only."""
    if f"{name}_rad" in beam:
        return float(beam[f"{name}_rad"])
    return math.radians(beam[f"{name}_deg"])


def solution_from_dict(data: dict) -> SolutionState:
    beams = tuple(
        BeamConfig(
            beam_id=b["beam_id"], owner_poa=b["owner_poa"],
            azimuth=_angle(b, "azimuth"),
            zenith=_angle(b, "zenith"),
            width=_angle(b, "width"),
            served_users=frozenset(b["served_users"]),
        )
        for b in data["beams"]
    )
    power = {
        pid: (-math.inf if dbm is None else float(dbm))
        for pid, dbm in data["tx_power_dbm"].items()
    }
    return SolutionState(beams=beams, tx_power=power)


def save_solution(solution: SolutionState, path: str):
    with open(path, "w") as f:
        json.dump(solution_to_dict(solution), f, indent=2, sort_keys=True)
        f.write("\n")


def load_solution(path: str) -> SolutionState:
    with open(path) as f:
        return solution_from_dict(json.load(f))
