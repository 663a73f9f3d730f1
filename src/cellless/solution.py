"""The decision vector: beam configs, per-PoA power, legality checks and files."""

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
    switched off (0 W). Each user appears in exactly one beam. ``validate``
    refuses a state that breaks either promise, and so does every
    ``radio_metrics.Evaluator`` view.
    """

    beams: tuple
    tx_power: dict

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


def too_close(poa, user, scenario: Scenario):
    """The 2-D distance [m] from ``poa`` to ``user`` when it is below the
    scenario's ``min_poa_user_distance``, so that the PoA may not serve the
    user; else None. The one serving-distance rule, of ``beam_violations``
    and of both solvers."""
    d2d = math.hypot(user.position.x - poa.position.x, user.position.y - poa.position.y)
    return d2d if d2d < scenario.min_poa_user_distance - 1e-9 else None


def beam_violations(beam: BeamConfig, scenario: Scenario):
    """The violations of one listed beam on its own: its id, its owner, its
    width against its owner's minimum, its zenith, and each user it serves,
    known and not ``too_close`` to the owner. A beam the scenario lacks, or
    owned by a PoA it lacks, gets that one violation only."""
    if beam.beam_id not in scenario.index.owners:
        return [Violation("unknown_beam", beam.beam_id, "beam not in scenario")]
    if beam.owner_poa not in scenario.index.poas:
        return [Violation("unknown_poa", beam.beam_id, f"owner {beam.owner_poa!r} not in scenario")]
    owner, poa = scenario.beam_owner(beam.beam_id), scenario.poa_by_id(beam.owner_poa)
    violations = []
    if owner is not poa:
        violations.append(Violation("wrong_owner", beam.beam_id, f"beam belongs to {owner.id!r}"))
    if not beam.width >= poa.min_beam_width - 1e-12:  # NaN too
        violations.append(Violation(
            "beam_too_narrow", beam.beam_id,
            f"width {beam.width:.6f} rad below minimum {poa.min_beam_width:.6f}"))
    if not (0.0 <= beam.zenith <= math.pi):
        violations.append(Violation("bad_zenith", beam.beam_id, "zenith outside [0, pi]"))
    for uid in beam.served_users:
        if uid not in scenario.index.users:
            violations.append(Violation("unknown_user", uid, f"served by {beam.beam_id}"))
        elif (d2d := too_close(poa, scenario.user_by_id(uid), scenario)) is not None:
            violations.append(Violation(
                "serving_too_close", uid, f"{d2d:.2f} m from serving PoA {poa.id}, minimum "
                f"{scenario.min_poa_user_distance:.2f} m"))
    return violations


def power_violations(tx_power: dict, scenario: Scenario):
    """The violations of a per-PoA power map [dBm]: each PoA the scenario
    lacks, by id, then each scenario PoA's power missing, NaN or above its
    maximum, in scenario order."""
    violations = [Violation("unknown_poa", pid, "transmit power of a PoA not in scenario")
                  for pid in sorted(tx_power.keys() - scenario.index.poas.keys())]
    for p in scenario.poas:
        if p.id not in tx_power:
            violations.append(Violation("missing_power", p.id, "no transmit power set"))
        elif math.isnan(dbm := tx_power[p.id]):
            violations.append(Violation("bad_power", p.id, "power is NaN"))
        elif dbm > p.max_tx_power_dbm + 1e-12:
            violations.append(Violation(
                "power_above_max", p.id,
                f"{dbm:.3f} dBm exceeds maximum {p.max_tx_power_dbm:.3f} dBm"))
    return violations


def validate(solution: SolutionState, scenario: Scenario):
    """Structural legality check; returns a list of Violations (empty =
    legal): each listed beam's own (``beam_violations``), then the rules
    across beams, a beam listed twice and a known user served by two
    beams or by none, then the powers' (``power_violations``). A beam the
    scenario lacks, or owned by a PoA it lacks, serves nobody here."""
    violations, seen_beams, seen_users = [], set(), {}
    for b in solution.beams:
        violations += beam_violations(b, scenario)
        if b.beam_id not in scenario.index.owners:
            continue
        if b.beam_id in seen_beams:
            violations.append(Violation("duplicate_beam", b.beam_id, "beam listed twice"))
        seen_beams.add(b.beam_id)
        if b.owner_poa not in scenario.index.poas:
            continue
        for uid in b.served_users & scenario.index.user_ids:
            if uid in seen_users:
                violations.append(Violation(
                    "multi_served_user", uid,
                    f"served by both {seen_users[uid].beam_id} and {b.beam_id}"))
            else:
                seen_users[uid] = b
    violations += [Violation("unserved_user", uid, "no beam serves this user")
                   for uid in sorted(scenario.index.user_ids - seen_users.keys())]
    return violations + power_violations(solution.tx_power, scenario)


def solution_to_dict(solution: SolutionState) -> dict:
    """The record of solution.json, written for inspection; the package
    reads no solution file. Angles are in radians, the unit they are held
    in; served users are sorted, and a switched-off PoA (-inf dBm) is
    null."""
    return {
        "beams": [{"beam_id": b.beam_id, "owner_poa": b.owner_poa, "azimuth_rad": b.azimuth,
                   "zenith_rad": b.zenith, "width_rad": b.width,
                   "served_users": sorted(b.served_users)} for b in solution.beams],
        "tx_power_dbm": {pid: None if dbm == -math.inf else dbm
                         for pid, dbm in sorted(solution.tx_power.items())},
    }


def save_solution(solution: SolutionState, path: str):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(solution_to_dict(solution), f, indent=2, sort_keys=True)
        f.write("\n")
