"""SINR, per-user rates, per-human exposure, and the constraint system.

The Evaluator fixes every link realization of one (scenario, seed) but
stores none of them. Everything derived from one PoA's links to the users
(part 0) or to the humans (part 1) lives in one record,
``Evaluator._parts[(PoA id, part)]``. Made once at construction, it holds
the targets' ``channel.direct_paths`` and the PCG64 seed words of every
(realization, target) link, 32 bytes each, from one
``channel.link_seed_words`` pass; each link is still drawn from its own
keyed stream, and ``_Part.links`` draws any realization range of the part
again, bit for bit, through ``channel.sample_link``. The record also
caches the part's unit-power (1 W) energy table of shape (realizations,
targets of the part) per beam geometry. The tables missing in one call are
grouped per part; each group steers every missing beam with
``channel.steered_energy``. A fill runs in realization blocks of at most
``_BLOCK_RAYS`` rays: per block, one ``channel.link_terms`` and one
``antenna.FieldWork`` of steering buffers are shared by every beam. A
part's first fill draws each block's links and frees its terms and
workspace before the next block, so its memory is bounded by a block, not
by the realization count, and a part filled once (``evaluate``,
``solve_ctm``, ``dump_links``) keeps nothing. Its second fill draws the
blocks again and keeps their terms, so a part refilled beam by beam (the
MaxRate anneal) stops recomputing them. Each step is elementwise or
reduces the trailing cluster and ray axes, and each link's draw reads its
own stream only, so the tables have the same bits whatever the block. A
part no beam of the PoA reaches is never drawn. The rate-only caller
(``mean_rates`` and with it the MaxRate objective) reads only the users
part, so it never evaluates the panel at a human and a new geometry adds
only its user table. Channel ray geometry does not depend on any decision
variable, so beam changes only add table entries and power changes
invalidate nothing.

One power core turns beams and powers into rates and exposure, in three
steps. *Stack* (``Evaluator.stack``) gathers the unit-power gains of the
solution's beams at every user, or at every target when exposure is
needed, as a ``GainStack`` with one row per scenario beam, fixed per
Evaluator; a solution decides only each row's table, which rows are live
and which row serves each user. Given the previous state's stack as
``base``, only the rows whose ``BeamConfig`` changed are keyed and read.
*Scale* (``Evaluator.scaled``) multiplies the live rows by their watts
under a power vector. *Verdict* composes each user's SINR from the three
terms that ``Evaluator._terms`` returns, signal, co-channel interference
and noise, and takes each human's per-frequency received power as a sum
over the live rows; the latter feeds ``power_density`` ->
``exposure.incident_field`` -> ``exposure.sar_wb``, and the means are
checked against the rate floors and the SAR ceiling. ``metrics`` is stack
-> scale -> verdict -> bundle, and the only full verdict: ``violated`` is
every missed floor and ceiling, and ``feasible`` is that list being empty.
``unmet_floors`` (the CtM descent's check of one PoA's users) and
``mean_rates`` read some or all users' rates from a stack the caller keeps.
Interference adds the live rows one by one in row order, so a rate has the
same bits whichever users, realization count or beam listing it comes with.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel as ch
from .antenna import FieldWork, PanelGeometry, SteeringDirection, width_to_panel, wrap_angle
from .exposure import incident_field, sar_wb
from .scenario import Scenario
from .solution import SolutionState, validate

NOISE_DENSITY_W_HZ = ch.dbm_to_watts(ch.NOISE_DENSITY_DBM_HZ)


class UnservedUserError(ValueError):
    """A user is not served by any beam."""


class SolutionInvalidError(ValueError):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass
class MetricsBundle:
    """Evaluation outcome: rates, exposure, power, and feasibility verdict."""

    per_user_rate: dict            # user id -> bit/s (mean over realizations)
    per_human_sar: dict            # human id -> W/kg (mean)
    per_poa_power: dict            # PoA id -> dBm (-inf when off)
    total_power: float             # watts, transmitting PoAs only
    violated: list = field(default_factory=list)   # rate:<user>, sar:<human>

    @property
    def feasible(self):
        return not self.violated

    @property
    def min_rate(self):
        return min(self.per_user_rate.values()) if self.per_user_rate else math.inf

    @property
    def max_sar(self):
        return max(self.per_human_sar.values()) if self.per_human_sar else 0.0


@dataclass(frozen=True)
class GainStack:
    """Unit-power gains of one solution's beams, frozen for a search over
    transmit powers, in one row per scenario beam: by PoA id, then as the
    scenario lists the PoA's beams. ``beams[i]`` is the ``BeamConfig`` the
    solution gives row ``i`` (None if none). ``gains`` has shape (rows,
    users or targets, realizations); only the ``live`` rows, those of active
    beams, are read. Live row ``k`` belongs to PoA ``poa_of_beam[k]`` (an
    index in scenario.poas), which splits its power over ``share[k]`` live
    beams, and interferes with the users of live row ``j`` where
    ``co_channel[k, j]``: same frequency, other PoA. User ``c`` is served by
    live row ``serving[c]``, or by none where that is ``len(live)``.
    """

    beams: tuple
    gains: np.ndarray
    live: np.ndarray
    poa_of_beam: np.ndarray
    share: np.ndarray
    co_channel: np.ndarray
    serving: np.ndarray


#: The most rays one block of a part's fill spans: a first fill's drawn
#: links, link terms and steering temporaries scale with a block, not with
#: the part.
_BLOCK_RAYS = 2 ** 15


@dataclass
class _Part:
    """One PoA's links to the users (part 0) or to the humans (part 1), kept
    as what draws them: the targets' direct paths from the PoA and the
    (realizations, targets, 4) seed words of the links' streams. Also the
    unit-power gain table over them of each beam geometry, keyed (zenith,
    azimuth, columns), and, from its second fill on, the ``channel.link_terms``
    of each of its realization blocks."""

    params: ch.ChannelParams
    paths: ch.DirectPaths
    words: np.ndarray
    tables: dict = field(default_factory=dict)
    kept: list = field(default_factory=list)  # per-block terms, one per blocks() slice

    def links(self, index=slice(None)) -> ch.LinkRealization:
        """The links of the realizations ``index``, a slice, drawn from
        their kept seed words."""
        return ch.sample_link(self.paths, self.params, ch.seeded_rngs(self.words[index]))

    def blocks(self) -> list:
        """Realization slices of at most ``_BLOCK_RAYS`` rays each (at least
        one realization), covering the part."""
        n_realizations, n_targets = self.words.shape[:2]
        rays = n_targets * self.params.n_clusters * self.params.n_rays
        step = max(1, _BLOCK_RAYS // max(1, rays))
        return [slice(r, r + step) for r in range(0, n_realizations, step)]

    def fill(self, beams, panel):
        """Compute the table of each ``key -> beam`` in ``beams``.

        Block by block, every beam is steered from one ``link_terms`` of the
        block's links, through one workspace of steering buffers. The first
        fill draws each block's links and frees its terms and workspace
        before the next block, so it keeps nothing; the second fill draws
        them again and keeps each block's terms, which every later fill
        steers from. Every step is elementwise or reduces the trailing
        cluster and ray axes, so the tables have the same bits either way.
        """
        mech = panel.mech_azimuth
        steered = {key: (replace(panel, cols=key[2]),
                         SteeringDirection(beam.zenith, wrap_angle(beam.azimuth - mech)))
                   for key, beam in beams.items()}
        drawn = not self.kept  # the blocks' links are drawn, not steered from kept terms
        keep = drawn and bool(self.tables)
        tables = {key: np.empty(self.words.shape[:2]) for key in steered}
        for i, block in enumerate(self.blocks()):
            terms = ch.link_terms(self.links(block), panel) if drawn else self.kept[i]
            work = FieldWork(terms.rays.size)
            for key, (geom, steer) in steered.items():
                tables[key][block] = ch.steered_energy(terms, geom, steer, work)
            if keep:
                self.kept.append(terms)
            del terms, work  # freed before the next block's links are drawn
        self.tables.update(tables)


def _integer(name, value) -> int:
    """``value`` as an ``int``: a boolean or a non-integral number is
    refused with a ``ValueError`` naming ``name``, not truncated."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def power_density(frequency: float, p_rx):
    """Incident power density [W/m^2]: received power over the isotropic
    effective area lambda^2 / 4*pi. Scalar or array received power."""
    if np.any(np.asarray(p_rx) < 0):
        raise ValueError("received power must be non-negative")
    return p_rx * 4.0 * math.pi * frequency ** 2 / ch.SPEED_OF_LIGHT ** 2


def shannon_rate(bandwidth, sinr):
    return bandwidth * np.log2(1.0 + np.asarray(sinr, dtype=float))


class Evaluator:
    """Frozen set of channel realizations for one (scenario, seed).

    Per-beam unit-power (1 W) energy tables are computed lazily and cached
    per PoA part by beam geometry, so re-evaluating with different powers
    is nearly free. A beam's humans-part table is filled only once exposure
    is read for it.
    """

    def __init__(self, scenario: Scenario, seed: int, n_realizations: int = 10):
        self.seed = _integer("seed", seed)
        self.n_realizations = _integer("n_realizations", n_realizations)
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        self.scenario = scenario
        self.targets = list(scenario.users) + list(scenario.humans)
        self._user_ids = [u.id for u in scenario.users]
        self._human_ids = [h.id for h in scenario.humans]
        self._rate_floor = {u.id: float(u.required_rate) for u in scenario.users}
        self._n_users = len(scenario.users)
        self._poa_index = {p.id: i for i, p in enumerate(scenario.poas)}
        self._column_of_user = {uid: col for col, uid in enumerate(self._user_ids)}
        rows = [(b, p.id) for p in sorted(scenario.poas, key=lambda p: p.id) for b in p.beams]
        self._row_of = {key: row for row, key in enumerate(rows)}
        self._row_poa = np.array([self._poa_index[pid] for _, pid in rows], dtype=int)
        self._poa_frequency = np.array([p.frequency for p in scenario.poas])
        self._poa_bandwidth = np.array([p.bandwidth for p in scenario.poas])
        self._humans_by_phantom = {
            name: np.array([i for i, h in enumerate(scenario.humans) if h.phantom_id == name])
            for name in {h.phantom_id for h in scenario.humans}
        }
        self._panels = {
            p.id: PanelGeometry(p.panel_rows, p.panel_cols, mech_azimuth=p.mech_azimuth,
                                element_pattern=p.element_pattern)
            for p in scenario.poas
        }
        # (PoA id, part) -> _Part. The link to target index t (users, then
        # humans) of PoA index p in realization r is drawn from the stream
        # keyed (seed, r, p, t); a part keeps its links' seed words and
        # draws the links when it fills.
        params = scenario.channel_params
        self._parts = {}
        for p_idx, poa in enumerate(scenario.poas):
            for part, group in enumerate((scenario.users, scenario.humans)):
                start = part * self._n_users
                self._parts[poa.id, part] = _Part(
                    params,
                    ch.direct_paths(poa.position.as_tuple(), poa.frequency,
                                    [t.position.as_tuple() for t in group], params),
                    ch.link_seed_words(self.seed, range(self.n_realizations), p_idx,
                                       range(start, start + len(group))))

    # -- per-beam unit-power gains -------------------------------------------

    def beam_gains(self, beam, humans: bool = True) -> np.ndarray:
        """(n_realizations, n_targets) energies at 1 W transmit power, as a
        new array. With ``humans=False`` only the users part is computed and
        its cached (n_realizations, n_users) table is returned."""
        tables = self._tables([beam], humans)[0]
        return np.concatenate(tables, axis=1) if humans else tables[0]

    def _tables(self, beams, humans):
        """Each beam's cached (users table,) or, when ``humans`` is true,
        (users table, humans table). The missing tables are filled in one
        ``_Part.fill`` per part, so one part's terms are freed before the
        next part's are computed."""
        parts = (0, 1) if humans else (0,)
        keys, missing = [], {}
        for beam in beams:
            pid = beam.owner_poa
            key = (round(beam.zenith, 12), round(beam.azimuth, 12),
                   width_to_panel(beam.width, self._panels[pid]))
            for part in parts:
                if key not in self._parts[pid, part].tables:
                    missing.setdefault((pid, part), {})[key] = beam
            keys.append((pid, key))
        for (pid, part), group in missing.items():
            self._parts[pid, part].fill(group, self._panels[pid])
        return [tuple(self._parts[pid, part].tables[key] for part in parts)
                for pid, key in keys]

    # -- the power core: stack, scale, verdict ----------------------------------

    def stack(self, solution, humans: bool = True, base: GainStack | None = None) -> GainStack:
        """Unit-power gains of the solution's beams at every user, and also at
        every human when ``humans`` is true. The stack depends on the beams
        only, so one serves every power vector over them. A row whose
        ``BeamConfig`` is the very object ``base`` (a stack of the same
        ``humans``) holds keeps base's gains, shared if no live row changed.
        A beam, owner or user the scenario lacks, or a beam listed twice or
        under a PoA that does not own it, raises ``SolutionInvalidError``."""
        beams, serving = [None] * len(self._row_poa), {}
        try:
            for b in solution.beams:
                row = self._row_of[b.beam_id, b.owner_poa]
                if beams[row] is not None:
                    raise KeyError(b.beam_id)
                beams[row] = b
            live = [row for row, b in enumerate(beams) if b is not None and b.active]
            for k, row in enumerate(live):
                for uid in beams[row].served_users:
                    serving.setdefault(self._column_of_user[uid], k)
        except KeyError:
            raise SolutionInvalidError(validate(solution, self.scenario)) from None
        width = len(self.targets) if humans else self._n_users
        if base is not None and base.gains.shape[1] != width:
            raise ValueError("base must be stacked with the same humans")
        if base is None:
            gains, fill = np.empty((len(beams), width, self.n_realizations)), live
        else:
            fill = [row for row in live if beams[row] is not base.beams[row]]
            gains = base.gains.copy() if fill else base.gains
        for row, parts in zip(fill, self._tables([beams[row] for row in fill], humans)):
            gains[row] = np.concatenate(parts, axis=1).T
        poa_of_beam = self._row_poa[live]
        freq = self._poa_frequency[poa_of_beam]
        return GainStack(
            beams=tuple(beams), gains=gains, live=np.array(live, dtype=int),
            poa_of_beam=poa_of_beam,
            share=np.bincount(poa_of_beam, minlength=len(self._poa_index))[poa_of_beam],
            co_channel=((freq[:, None] == freq[None, :])
                        & (poa_of_beam[:, None] != poa_of_beam[None, :])),
            serving=np.array([serving.get(c, len(live)) for c in range(self._n_users)], dtype=int))

    def scaled(self, stack, tx_power) -> np.ndarray:
        """Received power [W] of every live row under per-PoA levels [dBm]:
        its gains times its share of its PoA's power."""
        watts = np.array([ch.dbm_to_watts(tx_power.get(pid, -math.inf)) for pid in self._poa_index])
        return (watts[stack.poa_of_beam] / stack.share)[:, None, None] * stack.gains[stack.live]

    def _terms(self, stack, power, user_ids):
        """Each user's signal and interference [W], (users, realizations),
        its noise [W], (users, 1), and its bandwidth [Hz], (users,).

        ``power`` is the stack's live rows scaled by their watts. Interference
        is the power of every live beam on the serving PoA's frequency from
        every other PoA, added beam by beam in row order: ``sum`` would add
        pairwise where a user has one realization, so a user's bits would
        depend on which other users were asked.
        """
        try:
            cols = np.array([self._column_of_user[uid] for uid in user_ids], dtype=int)
        except KeyError as e:
            raise UnservedUserError(e.args[0]) from None
        rows = stack.serving[cols]
        try:
            bandwidth = self._poa_bandwidth[stack.poa_of_beam[rows]]
        except IndexError:  # an unserved user's row is past the live rows
            raise UnservedUserError(user_ids[int(rows.argmax())]) from None
        per_beam = np.where(stack.co_channel[:, rows, None], power[:, cols], 0.0)
        interference = (np.add.accumulate(per_beam, axis=0)[-1] if len(per_beam)
                        else per_beam.sum(axis=0))
        return power[rows, cols], interference, NOISE_DENSITY_W_HZ * bandwidth[:, None], bandwidth

    def _rates(self, stack, power, user_ids):
        """(users, realizations) achievable rates [bit/s]."""
        signal, interference, noise, bandwidth = self._terms(stack, power, user_ids)
        return shannon_rate(bandwidth[:, None], signal / (noise + interference))

    def _exposure(self, stack, power):
        """Per-human mean SAR (humans,)."""
        beam_freq = self._poa_frequency[stack.poa_of_beam]
        at_humans = power[:, self._n_users:]
        fields = {f: incident_field(power_density(f, at_humans[beam_freq == f].sum(axis=0)))
                  for f in sorted(set(beam_freq.tolist()))}
        sar = np.zeros((len(self.scenario.humans), self.n_realizations))
        for name, rows in self._humans_by_phantom.items():
            sar[rows] = sar_wb({f: e[rows] for f, e in fields.items()},
                               self.scenario.phantoms[name], self.scenario.frequency_map)
        return sar.mean(axis=-1)

    def _short(self, user_ids, rates):
        """``rate:<user>`` for each user whose mean rate does not reach its
        floor; a NaN rate or floor fails."""
        return [f"rate:{uid}" for uid, rate in zip(user_ids, rates.tolist())
                if not rate >= self._rate_floor[uid]]

    def unmet_floors(self, stack, tx_power, user_ids) -> list:
        """The rate floors (``rate:<user>``) of ``user_ids`` that the beams
        frozen in ``stack`` miss under per-PoA powers ``tx_power`` [dBm],
        in the order asked. Each rate is composed from the ``_terms`` that
        ``metrics`` reads, so it has the same bits."""
        rates = self._rates(stack, self.scaled(stack, tx_power), user_ids).mean(axis=-1)
        return self._short(user_ids, rates)

    # -- views -------------------------------------------------------------------

    def mean_rates(self, stack, tx_power) -> np.ndarray:
        """Mean rate [bit/s] over realizations of every user, in scenario
        order, on the beams frozen in ``stack`` under ``tx_power`` [dBm]."""
        return self._rates(stack, self.scaled(stack, tx_power), self._user_ids).mean(axis=-1)

    def metrics(self, solution: SolutionState) -> MetricsBundle:
        """Averaged rates and SAR over all realizations, plus feasibility."""
        scenario = self.scenario
        stack = self.stack(solution)
        power = self.scaled(stack, solution.tx_power)
        rates = self._rates(stack, power, self._user_ids).mean(axis=-1)
        sar = self._exposure(stack, power)
        active = set(solution.active_poas())
        return MetricsBundle(
            per_user_rate={u.id: float(r) for u, r in zip(scenario.users, rates)},
            per_human_sar={h.id: float(s) for h, s in zip(scenario.humans, sar)},
            per_poa_power={
                p.id: solution.tx_power.get(p.id, -math.inf) if p.id in active else -math.inf
                for p in scenario.poas},
            total_power=solution.total_power_watts(),
            violated=self._short(self._user_ids, rates) + [   # a NaN SAR or limit fails
                f"sar:{hid}" for hid, within in
                zip(self._human_ids, (sar <= scenario.sar_limit).tolist()) if not within],
        )

    def dump_links(self, solution: SolutionState) -> list:
        """Per-(realization, beam, target) unit-power energies for inspection.

        Together with the solved powers this is enough to recompute every
        SINR, rate, and received power by hand.
        """
        rows = []
        drawn = {}  # (PoA id, part) -> the los, pathloss_db and shadow_db of its links
        stack = self.stack(solution)
        for b in [b for b in solution.beams if b.active]:
            poa = self.scenario.poa_by_id(b.owner_poa)
            gains = stack.gains[self._row_of[b.beam_id, b.owner_poa]]
            for part in (0, 1):
                if (poa.id, part) not in drawn:
                    link = self._parts[poa.id, part].links()
                    drawn[poa.id, part] = link.los, link.pathloss_db, link.shadow_db
            for r in range(self.n_realizations):
                for part, ids in enumerate((self._user_ids, self._human_ids)):
                    los, pathloss, shadow = drawn[poa.id, part]
                    for col, tid in enumerate(ids):
                        rows.append({
                            "realization": r,
                            "beam_id": b.beam_id,
                            "poa_id": poa.id,
                            "frequency_hz": poa.frequency,
                            "bandwidth_hz": poa.bandwidth,
                            "target_id": tid,
                            "target_kind": ("user", "human")[part],
                            "unit_energy_w": float(gains[part * self._n_users + col, r]),
                            "los": bool(los[r, col]),
                            "pathloss_db": float(pathloss[r, col]),
                            "shadow_db": float(shadow[r, col]),
                        })
        return rows


def evaluate(solution: SolutionState, scenario: Scenario, seed: int,
             n_realizations: int = 10) -> MetricsBundle:
    """Validate, then evaluate a solution over seeded channel realizations.

    Deterministic given (solution, scenario, seed, n_realizations).
    """
    violations = validate(solution, scenario)
    if violations:
        if any(v.code == "unserved_user" for v in violations):
            raise UnservedUserError(
                "; ".join(str(v) for v in violations if v.code == "unserved_user"))
        raise SolutionInvalidError(violations)
    ev = Evaluator(scenario, seed, n_realizations)
    return ev.metrics(solution)
