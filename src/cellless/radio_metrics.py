"""SINR, per-user rates, per-human exposure, and the constraint system.

The Evaluator fixes every link realization of one (scenario, seed) but
stores none of them. A human linked to a user (``Human.linked_user``)
stands on that user: it is the user's body, and it shares its device's
channel, so its exposure reads the user's links and it has none of its
own. Everything derived from one PoA's links to the users (part 0) or to
the unlinked humans (part 1) lives in one record,
``Evaluator._parts[(PoA id, part)]``. Made once at construction, it holds
the targets' ``channel.direct_paths`` and the key (seed, PoA index, part)
of the part's streams: realization r's links are drawn from the one
stream keyed (seed, r, PoA index, part), one row of uniforms per user or
per human, linked or not (``channel.link_uniforms``), of which part 1
reads its unlinked humans' rows only. So ``_Part.links`` draws any
realization range of the part again, bit for bit, through
``channel.sample_link``, the users' links do not depend on the humans,
and an unlinked human's link does not depend on which humans are linked.
The record also
caches the part's unit-power (1 W) energy table of shape (realizations,
targets of the part) per beam geometry, keyed on the exact zenith, azimuth
and panel columns a table is steered to, so a table depends on its key
alone and a result on no earlier call. The tables missing in one call are
grouped per part; each group steers every missing key with
``channel.steered_energy``. A fill runs in realization blocks of at most
``_BLOCK_RAYS`` rays: per block, one ``channel.link_terms`` is shared by
every beam. The terms hold three complex numbers per ray and per direct
path, the two axis phasors and one folded weight, the rays' computed from
per-cluster angles; a beam then costs complex products per path, in one
``antenna.steered_sum`` call per block, and one phasor per beam on the
cluster sums. Every beam of every block, part and PoA is steered through
the Evaluator's one ``antenna.FieldWork`` of steering buffers, made with
the Evaluator for its largest block, rays and direct paths, so those
buffers are allocated and paged in once, not once per block, and not at
all before a fill writes them. A part's first fill draws each block's
links and frees its terms before the next block, so its memory is
bounded by a block, not by the realization count, and a part filled
once (``evaluate``, ``solve_ctm`` and its dump) keeps nothing but its
tables. Its second fill draws the blocks again and
keeps their terms, so a part refilled beam by beam (the MaxRate anneal)
stops recomputing them. Each step is elementwise or reduces the trailing
cluster and ray axes, and each link's draw reads its own row of its
realization's stream only, so the tables have the same bits whatever the
block or the workspace's size. A part no beam of the PoA reaches is never
drawn. Channel ray geometry does not depend on any decision variable, so
beam changes only add table entries and power changes invalidate nothing.

One power core turns beams and powers into rates and exposure, in three
steps. *Stack* (``Evaluator.stack``) gathers the unit-power gains of the
solution's beams at every user as a ``GainStack`` with one row per
scenario beam, fixed per Evaluator; a solution decides only each row's
table, which rows are live and which row serves each user. The stack also
holds, per user, the co-channel mask of its serving row, its bandwidth and
its noise. Stacks are internal: every view takes a ``SolutionState`` and
stacks it itself, on the last stack the Evaluator built (at first its
stack of no beams), which is the one place that decides what a stack
reuses. Each listed beam goes to its row by its id, whatever the listing's
order. The stack is also the one gate of validity: every view refuses
what ``solution.validate`` refuses, with its violations, from the rules
``validate`` is built of: each changed row's beam (``beam_violations``)
and, on every call, the powers (``power_violations``); a beam listed
twice, or a user served by two live rows or by none, is found where the
rows are placed. So a stack serves every user once, and each PoA's power
is a number at most its maximum. A stack costs what changed since the
last one, the rows whose beam object is not the one the last stack
holds, and the powers' rule: a solution with its very beam objects gets
that stack itself, so ``solve_ctm`` stacks its beams once for its least
powers, its one verdict and its dump; one whose
beams serve the users they serve there shares its live rows, shares and
per-user arrays; and a live row whose ``BeamConfig`` changed is keyed,
and read exactly where its key is not the one the row of the last gains
holds, so a reassign that moves no beam reads nothing. *Scale* multiplies
each live row by its watts under a power vector, one computation
(``Evaluator._watts``) for the users gains and the humans tables alike.
*Verdict* composes each user's SINR from the three terms that
``Evaluator._terms`` returns, signal, co-channel interference and noise,
and takes each human's per-frequency received power as a sum over the live
rows of the tables under their keys: a linked human's column is its
user's in the users table, which the stack has already read, and an
unlinked human's is its own in the humans table, so a humans part is
filled only for live beam geometries and only over the unlinked humans,
and never drawn without one; that power feeds ``power_density`` ->
``exposure.incident_field`` -> ``exposure.sar_wb``, and the means are
checked against the rate floors and the SAR ceiling. ``metrics`` composes
``mean_rates`` and the exposure, and is the only full verdict:
``violated`` is every missed floor and ceiling, and ``feasible`` is that
list being empty. ``mean_rates`` and ``unmet_floors`` read every user's
rate, in scenario order, along the one path that ``metrics`` takes. A
verdict, like a stack, costs what changed: ``mean_rates`` returns its last
rates again, read-only, for a stack that holds the very gains and service
arrays they were computed from under equal live-row watts, so a state that
changes no live row (an idle beam moved, a width clamped at its bound, a
power clamped or of a PoA with no live row) computes nothing.
Interference adds the live rows one by one in row order (``_row_sum``),
and a rate is composed by one helper (``_mean_rate``: ``shannon_rate``,
then the realization mean), so a rate has the same bits whichever
realization count, beam listing or set of users it comes with.

``least_powers`` is CtM's power step: the least per-PoA power vector that
meets every rate floor on a solution's beams, or the proof that none up to
the PoAs' maxima does. It reads the stack once, and from ``_terms`` at 1 W
per PoA each user's signal and each PoA's interference at each user. Each
sweep then forms every user's noise plus interference at a power vector
and, by Newton's method on ``_mean_rate`` minus the floor, the least
watts of its serving PoA that meet its floor; a PoA's requirement is the
largest over its users. The vector of requirements is a standard
interference function of the power vector, whose least fixed point is
the answer; Newton's steps approach it up from 0 W, capped at a feasible
start (the solution's own powers when they meet every floor), so the
vector found depends on the solution's beams alone, and two vectors
either side of it confirm it. Every answer is confirmed by one ``metrics``
(``solver_ctm.reduce_powers``), the verdict ``solve_ctm`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import is_not

import numpy as np

from . import channel as ch
from .antenna import FieldWork, PanelGeometry, SteeringDirection, width_to_panel, wrap_angle
from .exposure import incident_field, sar_wb
from .scenario import _AT_LEAST_ONE, _NON_NEGATIVE, Scenario, _field, _integer
from .solution import SolutionState, beam_violations, power_violations, validate

NOISE_DENSITY_W_HZ = ch.dbm_to_watts(ch.NOISE_DENSITY_DBM_HZ)


class SolutionInvalidError(ValueError):
    """A solution that ``validate`` refuses, with its violations."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class UnservedUserError(SolutionInvalidError):
    """A refused solution in which a user is served by no beam."""


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
    """Unit-power gains of one solution's beams at the users, frozen for a
    search over transmit powers, in one row per scenario beam: by PoA id,
    then as the scenario lists the PoA's beams, so a row is a beam id.
    ``beams[i]`` is the ``BeamConfig`` the solution lists for row ``i``
    (None if none), wherever it lists it. ``gains`` has shape
    (rows, users, realizations); row ``i`` holds the users table of
    ``Evaluator._key`` ``keys[i]`` (None: no table read into it yet), and
    only the ``live`` rows, those of active beams, are read. Live row ``k``
    belongs to PoA ``poa_of_beam[k]`` (an index in scenario.poas), which
    splits its power over ``share[k]`` live beams. User ``c`` is served by
    live row ``serving[c]``; live row ``k`` interferes with it where
    ``interferers[k, c, 0]``: on its serving row's frequency, from another
    PoA. ``bandwidth[c]`` and ``noise[c, 0]`` are its serving PoA's
    bandwidth and noise power. The Evaluator's stack of no beams, which
    serves nobody, holds None for ``live`` to ``noise``: no stack shares
    them. The humans are not stacked: exposure reads the tables
    under the live rows' ``keys``, a linked human's column of the users
    table and an unlinked human's of the humans table.

    No array is ever written after the stack is made, so stacks share them:
    one built on another shares what the change left alone, and a state
    that differs from the stacked one only in idle beams, or in the power of
    PoAs with no live row, has the very rates of this stack, which
    ``Evaluator.mean_rates`` returns without computing them again. Only the
    Evaluator makes or reads stacks, each on the last one it built
    (``Evaluator.stack``).
    """

    beams: tuple
    keys: tuple
    gains: np.ndarray
    live: np.ndarray
    poa_of_beam: np.ndarray
    share: np.ndarray
    serving: np.ndarray
    interferers: np.ndarray
    bandwidth: np.ndarray
    noise: np.ndarray


def _served(beam):
    """The users a stack row's beam serves (none for a row without one)."""
    return frozenset() if beam is None else beam.served_users


#: A least power vector is at most this [dB] above the least fixed point,
#: and is confirmed to meet its floors half of it below, whatever the last
#: bits of the fixed point and of each root.
ROUND_UP_DB = 1e-6
_ROUND_UP = 10.0 ** (ROUND_UP_DB / 10.0)
#: Past this many steps the search for a least power vector gives up.
_MOST_STEPS = 200
#: Past this many Newton steps a user's least watts (``_least_watts``) is
#: not found; the built-in worlds take at most 9.
_MOST_ROOT_STEPS = 100
#: Channel realizations per (scenario, seed) when none are asked for: the
#: default of ``Evaluator``, ``evaluate`` and ``ExperimentSpec``.
N_REALIZATIONS = 10


#: The most rays one block of a part's fill spans: a first fill's drawn
#: links, link terms and steering temporaries scale with a block, not with
#: the part.
_BLOCK_RAYS = 2 ** 15


@dataclass
class _Part:
    """One PoA's links to the users (part 0) or to the unlinked humans (part
    1), kept as what draws them: the targets' direct paths from the PoA, the
    key (seed, PoA index, part) of the links' streams, one per realization
    (``channel.link_uniforms``), and each target's row of its stream's
    uniforms, its index among all the part's users or humans. Also the
    unit-power gain table over the targets of each beam geometry, keyed
    (zenith, azimuth, columns), and, from its second fill on, the
    ``channel.link_terms`` of each of its realization blocks."""

    params: ch.ChannelParams
    paths: ch.DirectPaths       # of the targets, in ``rows`` order
    key: tuple                  # (seed, PoA index, part)
    n_realizations: int
    rows: np.ndarray            # each target's stream row, increasing
    tables: dict = field(default_factory=dict)
    kept: list = field(default_factory=list)  # per-block terms, one per blocks() slice

    @property
    def shape(self) -> tuple:
        """(realizations, targets) of the part's links and tables."""
        return self.n_realizations, self.paths.d_3d.shape[0]

    def links(self, index=slice(None)) -> ch.LinkRealization:
        """The links of the realizations ``index``, a slice, drawn from
        their keyed streams."""
        seed, p_idx, part = self.key
        uniforms = ch.link_uniforms(seed, range(self.n_realizations)[index], p_idx, part,
                                    int(self.rows[-1]) + 1, self.params)
        return ch.sample_link(self.paths, self.params, uniforms[:, self.rows])

    def _block(self) -> tuple:
        """(realizations per block, rays per realization)."""
        rays = self.shape[1] * self.params.n_clusters * self.params.n_rays
        return max(1, _BLOCK_RAYS // max(1, rays)), rays

    def blocks(self) -> list:
        """Realization slices of at most ``_BLOCK_RAYS`` rays each (at least
        one realization), covering the part; none for a part without
        targets, which is never drawn."""
        if not self.shape[1]:
            return []
        step = self._block()[0]
        return [slice(r, r + step) for r in range(0, self.n_realizations, step)]

    def largest_block(self) -> int:
        """The steered paths of the part's largest block, its rays and its
        direct paths (0 without targets)."""
        step, rays = self._block()
        return min(step, self.n_realizations) * (rays + self.shape[1])

    def fill(self, keys, panel, work: FieldWork):
        """Compute the table of each (zenith, azimuth, columns) key in
        ``keys``, steered to the key's own angles.

        Block by block, every key is steered from one ``link_terms`` of the
        block's links, through ``work``, a workspace of steering buffers of
        at least ``largest_block`` paths. The first fill draws each block's
        links and frees its terms before the next block, so it keeps
        nothing; the second fill draws them again and keeps each block's
        terms, which every later fill steers from. Every step is elementwise
        or reduces the trailing cluster and ray axes, so the tables have the
        same bits either way.
        """
        mech = panel.mech_azimuth
        steered = {key: (replace(panel, cols=key[2]),
                         SteeringDirection(key[0], wrap_angle(key[1] - mech)))
                   for key in keys}
        drawn = not self.kept  # the blocks' links are drawn, not steered from kept terms
        keep = drawn and bool(self.tables)
        tables = {key: np.empty(self.shape) for key in steered}
        for i, block in enumerate(self.blocks()):
            terms = ch.link_terms(self.links(block), panel) if drawn else self.kept[i]
            # The workspace is the Evaluator's, made once: a buffer made per
            # block would be handed back to the system after the block and
            # page-faulted in again at the next.
            for key, (geom, steer) in steered.items():
                tables[key][block] = ch.steered_energy(terms, geom, steer, work)
            if keep:
                self.kept.append(terms)
            del terms  # freed before the next block's links are drawn
        self.tables.update(tables)


def power_density(frequency: float, p_rx):
    """Incident power density [W/m^2]: received power over the isotropic
    effective area lambda^2 / 4*pi. Scalar or array received power."""
    if np.any(np.asarray(p_rx) < 0):
        raise ValueError("received power must be non-negative")
    return p_rx * 4.0 * math.pi * frequency ** 2 / ch.SPEED_OF_LIGHT ** 2


def shannon_rate(bandwidth, sinr):
    return bandwidth * np.log2(1.0 + np.asarray(sinr, dtype=float))


def _mean_rate(bandwidth, signal, noise_and_interference):
    """Each user's mean rate [bit/s] over the realizations (the last axis)
    from its signal and its noise plus interference [W], (users,
    realizations), and its bandwidth [Hz], (users,): the one rate formula,
    of every verdict (``Evaluator.mean_rates``) and of the least powers'
    root-finding (``_least_watts``)."""
    return shannon_rate(bandwidth[:, None], signal / noise_and_interference).mean(axis=-1)


def _least_watts(bandwidth, unit, noisy, floors, users):
    """Each user's least watts x of its serving PoA at which
    ``_mean_rate(bandwidth, x * unit, noisy)`` reaches its floor, from its
    signal at 1 W and its noise plus interference [W], (users,
    realizations); inf where no x does or the floor is NaN, and inf or a
    float past any PoA's maximum where the root overflows.

    Newton's method on that rate minus the floor, started at the Jensen
    bound (2^(floor / bandwidth) - 1) / mean(unit / noisy), which is at
    most the root. The rate is concave and increasing in x, so every step
    stays at or below the root and climbs to it, until a step is at most
    1e-13 of x. A user still climbing after ``_MOST_ROOT_STEPS`` steps
    raises ``RuntimeError`` naming it as ``users`` does, one name a row."""
    with np.errstate(all="ignore"):  # a floor out of reach needs infinite watts
        x = np.expm1(math.log(2.0) * floors / bandwidth) / (unit / noisy).mean(axis=-1)
        x[np.isnan(x)] = np.inf
        todo = np.flatnonzero(np.isfinite(x))
        for _ in range(_MOST_ROOT_STEPS):
            signal = x[todo, None] * unit[todo]
            short = floors[todo] - _mean_rate(bandwidth[todo], signal, noisy[todo])
            slope = bandwidth[todo] / math.log(2.0) * (unit[todo] / (noisy[todo] + signal)).mean(-1)
            step = short / slope
            x[todo] += np.maximum(step, 0.0)
            todo = todo[step > 1e-13 * x[todo]]
            if not todo.size:
                return x
    raise RuntimeError(f"the least watts of {users[todo[0]]} not found in "
                       f"{_MOST_ROOT_STEPS} Newton steps")


#: The keys of each ``Evaluator.dump_links`` row, in order.
_LINK_KEYS = ("realization", "beam_id", "poa_id", "frequency_hz", "bandwidth_hz", "target_id",
              "target_kind", "unit_energy_w", "los", "pathloss_db", "shadow_db")


def _link_fields(link):
    """The LoS states, pathlosses and shadowing [dB] of drawn links, the
    fields ``Evaluator.dump_links`` writes."""
    return link.los, link.pathloss_db, link.shadow_db


def _row_sum(per_beam):
    """The sum over the outer (live row) axis of ``per_beam``, added row by
    row in row order whatever the trailing shape. numpy's reduce adds
    pairwise along the fast axis only; over the outer axis of a C-ordered
    array whose rows hold two numbers or more it adds row by row. Rows of
    one number accumulate instead.

    ``per_beam`` holds no ``-0.0``: the two paths differ there, the
    accumulation keeping a ``-0.0`` that the reduce, which starts from
    ``+0.0``, returns as ``+0.0``. Interference, its one input, is
    ``np.where`` of non-negative watts and ``0.0``, which holds none."""
    return (np.add.accumulate(per_beam, axis=0)[-1] if 0 < per_beam.size == len(per_beam)
            else np.add.reduce(per_beam, axis=0))


class Evaluator:
    """Frozen set of channel realizations for one (scenario, seed).

    Per-beam unit-power (1 W) energy tables are computed lazily and cached
    per PoA part by beam geometry, so re-evaluating with different powers
    is nearly free. A beam's humans-part table, over the humans linked to
    no user, is filled only once exposure is read for it.
    """

    def __init__(self, scenario: Scenario, seed: int, n_realizations: int = N_REALIZATIONS):
        self.seed = _field("seed", _integer, seed, _NON_NEGATIVE)
        self.n_realizations = _field("n_realizations", _integer, n_realizations, _AT_LEAST_ONE)
        self.scenario = scenario
        self._user_ids = [u.id for u in scenario.users]
        self._human_ids = [h.id for h in scenario.humans]
        self._rate_floor = {u.id: float(u.required_rate) for u in scenario.users}
        self._n_users = len(scenario.users)
        self._all_columns = np.arange(self._n_users)
        # A linked human stands on its user: humans self._linked read the
        # users' columns self._linked_columns; the others, part 1's targets.
        linked = scenario.index.linked
        self._linked = np.array([i for i, c in enumerate(linked) if c is not None], dtype=int)
        self._linked_columns = np.array([c for c in linked if c is not None], dtype=int)
        self._unlinked = np.array([i for i, c in enumerate(linked) if c is None], dtype=int)
        rows = [b for p in sorted(scenario.poas, key=lambda p: p.id) for b in p.beams]
        # Beam ids are unique per scenario: beam id -> its row.
        self._row_of = {b: row for row, b in enumerate(rows)}
        self._row_poa = np.array([scenario.index.owners[b] for b in rows], dtype=int)
        self._poa_frequency = np.array([p.frequency for p in scenario.poas])
        self._poa_bandwidth = np.array([p.bandwidth for p in scenario.poas], dtype=float)
        self._humans_by_phantom = {
            name: np.array([i for i, h in enumerate(scenario.humans) if h.phantom_id == name])
            for name in {h.phantom_id for h in scenario.humans}
        }
        self._panels = {
            p.id: PanelGeometry(p.panel_rows, p.panel_cols, mech_azimuth=p.mech_azimuth,
                                element_pattern=p.element_pattern)
            for p in scenario.poas
        }
        # (PoA id, part) -> _Part. The links of PoA index p to part 0 (the
        # users) or 1 (the humans) in realization r are drawn from the one
        # stream keyed (seed, r, p, part), a row per user or human; part 1
        # draws the unlinked humans' rows only. A part keeps its key and
        # draws the links when it fills.
        params = scenario.channel_params
        self._parts = {}
        for p_idx, poa in enumerate(scenario.poas):
            for part, (group, targets) in enumerate(((scenario.users, self._all_columns),
                                                     (scenario.humans, self._unlinked))):
                paths = ch.direct_paths(poa.position.as_tuple(), poa.frequency,
                                        [group[t].position.as_tuple() for t in targets.tolist()],
                                        params)
                self._parts[poa.id, part] = _Part(params, paths, (self.seed, p_idx, part),
                                                  self.n_realizations, targets)
        # The steering workspace of every fill (``_tables``), for the largest
        # block of any part (every world has a PoA); it is empty memory,
        # which pages nothing in until a fill writes it.
        self._work = FieldWork(max(p.largest_block() for p in self._parts.values()))
        # The stack of no beams serves nobody, so it holds no service.
        no_beams = (None,) * len(rows)
        self._no_beams = GainStack(
            no_beams, no_beams, np.empty((len(rows), self._n_users, self.n_realizations)),
            *(None,) * 7)
        self._last = self._no_beams  # what the next stack() is built on
        # The last rates mean_rates computed: (gains, serving, live-row watts, rates).
        self._rates = None, None, None, None

    # -- per-beam unit-power gains -------------------------------------------

    def beam_gains(self, beam) -> np.ndarray:
        """(n_realizations, n_targets) energies at 1 W transmit power, users
        then humans, as a new array."""
        key = [self._key(beam)]
        users = self._tables(key, 0)[0]
        return np.concatenate([users, self._per_human(users, self._tables(key, 1)[0])], axis=1)

    def _per_human(self, of_users, of_unlinked):
        """A per-target array (..., humans) over every human: a linked
        human's entries are its user's in ``of_users`` (..., users), an
        unlinked human's its own in ``of_unlinked`` (..., unlinked humans),
        an array over part 1's targets."""
        out = np.empty(of_users.shape[:-1] + (len(self._human_ids),), dtype=of_users.dtype)
        out[..., self._linked] = of_users[..., self._linked_columns]
        out[..., self._unlinked] = of_unlinked
        return out

    def _key(self, beam):
        """(PoA id, table key) of the beam's gain tables: the key is its
        exact zenith, azimuth and panel columns, the whole geometry a table
        is steered to."""
        pid = beam.owner_poa
        return pid, (beam.zenith, beam.azimuth, width_to_panel(beam.width, self._panels[pid]))

    def _tables(self, keys, part):
        """The cached (realizations, targets) table of ``part`` (0: the
        users, 1: the humans) of each ``_key`` in ``keys``. The missing
        tables are filled in one ``_Part.fill`` per PoA, so one PoA's terms
        are freed before the next PoA's are computed. Every fill steers
        through the Evaluator's one ``FieldWork``, made with the Evaluator
        for the largest block of any part."""
        missing = {}
        for pid, key in keys:
            if key not in self._parts[pid, part].tables:
                missing.setdefault(pid, set()).add(key)
        for pid, group in missing.items():
            self._parts[pid, part].fill(group, self._panels[pid], self._work)
        return [self._parts[pid, part].tables[key] for pid, key in keys]

    # -- the power core: stack, scale, verdict ----------------------------------

    def stack(self, solution) -> GainStack:
        """Unit-power gains of the solution's beams at every user. The stack
        depends on the beams only, so one serves every power vector over
        them. A solution that ``validate`` refuses raises
        ``SolutionInvalidError`` with the violations ``validate`` finds
        (``UnservedUserError`` when a user is served by no beam). The
        rules run are those ``validate`` is built of: ``beam_violations``
        on each changed row's beam, and ``power_violations`` on every call,
        since a power move keeps every beam object. A beam the scenario
        lacks or listed twice, and a user served by two live rows or by
        none, are found where the rows are placed; a stack built on the
        stack of no beams places every row's service afresh.

        Each listed beam is looked up by its id, so every listing, in any
        order, takes one path to the rows. The stack is built on the last
        stack this Evaluator built (at first, the stack of no beams), and
        costs what changed, the rows whose ``BeamConfig`` is not the object
        that stack holds: with none, it is that stack; with every changed
        row serving the users it serves there, it shares its ``live`` to
        ``noise``; and a changed live row is keyed, and read exactly where
        its table key is not the one its row of the last gains holds (a
        MaxRate reassign gives both beams it touches new objects of the old
        geometry, so it reads none). A stack has the same bits whatever it
        was built on, so asking again for the beams of the last solution,
        as ``solve_ctm``'s least powers, verdict and dump do, costs
        nothing."""
        base, beams, scenario = self._last, [None] * len(self._row_poa), self.scenario
        try:
            for b in solution.beams:
                row = self._row_of[b.beam_id]
                if beams[row] is not None:
                    raise KeyError(b.beam_id)
                beams[row] = b
            changed = list(compress(range(len(beams)), map(is_not, beams, base.beams)))
            if power_violations(solution.tx_power, scenario) or any(
                    beam_violations(beams[row], scenario) for row in changed if beams[row]):
                raise KeyError
            fresh = base is self._no_beams or any(
                _served(beams[row]) != _served(base.beams[row]) for row in changed)
            if not (changed or fresh):
                return base
            service = self._service(beams) if fresh else (
                base.live, base.poa_of_beam, base.share, base.serving, base.interferers,
                base.bandwidth, base.noise)
        except KeyError:  # validate names every finding of the rules and the rows' placement
            violations = validate(solution, scenario)
            raise (UnservedUserError if any(v.code == "unserved_user" for v in violations)
                   else SolutionInvalidError)(violations) from None
        keys, read = list(base.keys), []
        for row in changed:
            new = beams[row]
            if new is not None and new.active and (key := self._key(new)) != keys[row]:
                keys[row] = key
                read.append(row)
        gains = base.gains
        if read:
            gains = gains.copy()
            for row, table in zip(read, self._tables([keys[row] for row in read], 0)):
                gains[row] = table.T
        self._last = GainStack(tuple(beams), tuple(keys), gains, *service)
        return self._last

    def _service(self, beams):
        """The ``GainStack`` fields ``live`` to ``noise`` of the rows'
        ``beams``, which serve known users only (``beam_violations``): which
        rows are live and which serves each user. A user served by two live
        rows, or by none, raises ``KeyError``."""
        live, serving = [row for row, b in enumerate(beams) if b is not None and b.active], {}
        for k, row in enumerate(live):
            for uid in beams[row].served_users:
                if serving.setdefault(self.scenario.index.users[uid], k) != k:
                    raise KeyError(uid)
        poa_of_beam = self._row_poa[live]
        freq = self._poa_frequency[poa_of_beam]
        # A user served by no live row has no entry here: KeyError.
        serving = np.array([serving[c] for c in range(self._n_users)], dtype=int)
        interferers = ((freq[:, None] == freq[serving])
                       & (poa_of_beam[:, None] != poa_of_beam[serving]))[:, :, None]
        bandwidth = self._poa_bandwidth[poa_of_beam[serving]]
        share = np.bincount(poa_of_beam, minlength=len(self._poa_frequency))[poa_of_beam]
        return (np.array(live, dtype=int), poa_of_beam, share, serving, interferers,
                bandwidth, NOISE_DENSITY_W_HZ * bandwidth[:, None])

    def _watts(self, stack, tx_power) -> np.ndarray:
        """(live, 1, 1) transmit power [W] of each live row under per-PoA
        levels [dBm]: its share of its PoA's power."""
        watts = np.array([ch.dbm_to_watts(tx_power.get(p.id, -math.inf))
                          for p in self.scenario.poas])
        return (watts[stack.poa_of_beam] / stack.share)[:, None, None]

    def _terms(self, stack, watts):
        """Each user's signal and interference [W], (users, realizations),
        its noise [W], (users, 1), and its bandwidth [Hz], (users,), in
        scenario order, on the beams frozen in ``stack`` under ``watts``,
        each live row's transmit power [W] (``_watts``).

        Each live row is scaled by its watts. Interference is the power of
        every live beam on the serving PoA's frequency from every other PoA,
        added beam by beam in row order.
        """
        power = watts * stack.gains[stack.live]
        signal = power[stack.serving, self._all_columns]
        interference = _row_sum(np.where(stack.interferers, power, 0.0))
        return signal, interference, stack.noise, stack.bandwidth

    def _exposure(self, stack, tx_power):
        """Per-human mean SAR (humans,) under per-PoA levels [dBm], from the
        tables of the live rows' keys, each scaled by its row's watts: a
        linked human's column of the users table, which the stack read,
        and an unlinked human's of the humans table."""
        keys = [stack.keys[row] for row in stack.live.tolist()]
        tables = zip(self._tables(keys, 0), self._tables(keys, 1))
        at_humans = np.array([w * self._per_human(users, unlinked).T
                              for w, (users, unlinked) in zip(self._watts(stack, tx_power), tables)])
        beam_freq = self._poa_frequency[stack.poa_of_beam]
        fields = {f: incident_field(power_density(f, at_humans[beam_freq == f].sum(axis=0)))
                  for f in sorted(set(beam_freq.tolist()))}
        sar = np.zeros((len(self._human_ids), self.n_realizations))
        for name, rows in self._humans_by_phantom.items():
            sar[rows] = sar_wb({f: e[rows] for f, e in fields.items()},
                               self.scenario.phantoms[name], self.scenario.frequency_map)
        return sar.mean(axis=-1)

    def _short(self, rates):
        """``rate:<user>`` for each user, in scenario order, whose mean rate
        does not reach its floor; a NaN rate or floor fails."""
        return [f"rate:{uid}" for uid, rate in zip(self._user_ids, rates.tolist())
                if not rate >= self._rate_floor[uid]]

    def unmet_floors(self, solution) -> list:
        """The rate floors (``rate:<user>``) that the solution misses, in
        scenario order: the rate part of ``metrics``' verdict, bit for
        bit."""
        return self._short(self.mean_rates(solution))

    def least_powers(self, solution):
        """The least per-PoA power vector that meets every rate floor on the
        solution's beams, or the proof that no vector up to the PoAs' maxima
        does: ``(tx_power, binding, blocking)``. ``binding`` maps each PoA
        with a live beam to its binding user in the last sweep, the one
        whose floor needs the most watts. Either ``blocking`` is empty and
        ``tx_power`` maps each such PoA to a dBm at most ``ROUND_UP_DB``
        above its least, capped at its maximum, and at the solution's own
        power when those powers meet every floor (``unmet_floors``); or
        ``blocking`` maps each PoA whose requirement crossed its maximum, or
        is not a number, to its binding user, and ``tx_power`` is empty. A
        solution that ``validate`` refuses raises ``SolutionInvalidError``
        (``stack``), so its powers are at most the maxima.

        A user's floor is met from a threshold of its serving PoA's watts
        on (``_least_watts``), which rises with the other PoAs' watts
        through its interference; a PoA's requirement is the largest
        threshold over its users. That is a standard interference function
        (Yates, IEEE JSAC 1995; Foschini and Miljanic, IEEE TVT 1993). Its
        least fixed point is the least vector; a vector whose requirements
        are at least itself lies below that point, and one whose
        requirements are at most itself meets every floor. A sweep forms
        every requirement at a vector, from each user's signal and each
        PoA's interference at 1 W, read once from ``_terms``.

        The search runs up from 0 W, capped at a feasible start: the
        solution's powers bound the answer when they meet every floor and
        never steer the search, so the vector depends on the solution's
        beams alone. Each step takes Newton's step to the fixed point of
        the binding users' needs, within the maxima rounded up and halved
        until the trial's requirements are at least the trial, so that it
        stays below the least vector, or else the plain step to the
        requirements. Where Newton's point has a negative power, J, the
        binding needs' slopes, has a spectral radius past 1, and the step
        is taken the other way.

        Once Newton's step is within half the round-up, two vectors that far
        either side of Newton's point confirm it: the one below has
        requirements at least itself, so it lies below the least vector,
        and the one above, capped at the maxima rounded up, meets every
        floor and is the answer, capped at the maxima in dBm, or at a
        feasible start. They lie along (1 - J)^-1 times the requirements,
        which moves every requirement by the same share of itself; scaling
        a vector moves the requirement of a PoA whose users hear far more
        interference than noise by almost exactly its own share, too
        little to confirm in floating point. Below the least vector no
        requirement exceeds what every PoA at its maximum needs, so one
        past a maximum by more than the round-up, or not a number, at a
        vector in the search's box whose requirements are at least itself,
        proves that no vector in the box works and that its binding user
        misses its floor with every PoA at its maximum. A search not ended
        in ``_MOST_STEPS`` steps keeps the solution's powers if they meet
        every floor, or raises ``RuntimeError``; so does a user whose least
        watts is not found (``_least_watts``), naming it and its PoA.
        """
        stack = self.stack(solution)
        poas = self.scenario.poas
        pids, n = [p.id for p in poas], len(poas)
        # Every PoA at 1 W; then each user's interference from each PoA at 1 W,
        # (users, PoAs, realizations).
        unit, _, noise, bandwidth = self._terms(stack, self._watts(stack, dict.fromkeys(pids, 30.0)))
        crossed = np.stack([self._terms(stack, self._watts(stack, {pid: 30.0}))[1]
                            for pid in pids], axis=1)
        floors = np.array([self._rate_floor[uid] for uid in self._user_ids])
        owner = stack.poa_of_beam[stack.serving]
        users = [f"user {uid!r} of PoA {pids[p]!r}" for uid, p in zip(self._user_ids, owner)]

        def image(watts):
            """Each PoA's requirement [W] at ``watts``, each user's need and
            its noise plus interference."""
            noisy = noise + np.einsum("q,cqr->cr", watts, crossed)
            need = _least_watts(bandwidth, unit, noisy, floors, users)
            return np.array([need[owner == p].max(initial=0.0) for p in range(n)]), need, noisy

        capped = not self.unmet_floors(solution)
        at = image(watts := np.zeros(n))
        # The search's box: the maxima rounded up [W].
        top = np.array([ch.dbm_to_watts(p.max_tx_power_dbm) for p in poas]) * _ROUND_UP
        for _ in range(_MOST_STEPS):
            want, need, noisy = at
            binding = {int(owner[c]): c for c in np.lexsort((-self._all_columns, need)).tolist()}
            if (over := want > top).any():
                break
            # Newton's step: a need's slope in each PoA's watts is implicit in its rate equation.
            spare = noisy + need[:, None] * unit
            slope = (((need[:, None] * unit / (noisy * spare))[:, None] * crossed).mean(axis=-1)
                     / (unit / spare).mean(axis=-1)[:, None])
            jacobian = np.array([slope[binding[p]] if p in binding else np.zeros(n)
                                 for p in range(n)])
            ahead, along = np.linalg.lstsq(np.eye(n) - jacobian, np.stack([want - watts, want], 1),
                                           rcond=None)[0].T
            # Confirmed either side of Newton's point along (1 - J)^-1 want: see above.
            center, along = np.maximum(watts + ahead, 0.0), np.where(want > 0.0, along, 0.0)
            step = along * min((center[along > 0] / along[along > 0]).tolist(), default=0.0) * (
                (_ROUND_UP - 1.0) / (_ROUND_UP + 1.0))
            least, low = np.minimum(center + step, top), center - step
            if (np.all((np.abs(ahead) <= step) | (want == 0.0))
                    and np.all(image(least)[0] <= least) and np.all(image(low)[0] >= low)):
                break
            if (watts + ahead < 0.0).any():  # (1 - J)^-1 turned: J's spectral radius is past 1
                ahead = -ahead
            for share in [*0.999 / 2.0 ** np.arange(10), 0.0]:  # 0: the plain step
                at = image(trial := np.maximum(np.clip(watts + share * ahead, 0.0, top), want))
                if not share or np.all(at[0] >= trial):
                    watts = trial
                    break
        else:
            if not capped:
                raise RuntimeError(f"no least power vector in {_MOST_STEPS} steps")
            least = np.full(n, math.inf)
        binding = {pids[p]: self._user_ids[c] for p, c in sorted(binding.items())}
        blocking = {pids[p]: binding[pids[p]] for p in np.flatnonzero(over).tolist()}
        ceiling = [solution.tx_power[p.id] if capped else p.max_tx_power_dbm for p in poas]
        tx_power = {} if blocking else {pids[p]: min(ch.watts_to_dbm(least[p]), ceiling[p])
                                        for p in sorted(set(stack.poa_of_beam.tolist()))}
        return tx_power, binding, blocking

    # -- views -------------------------------------------------------------------

    def mean_rates(self, solution) -> np.ndarray:
        """Mean rate [bit/s] over realizations of every user, in scenario
        order, as a read-only array.

        A verdict, like a stack, costs what changed: the rates last computed
        are returned again while the solution's stack holds the very
        ``gains`` and service arrays they were computed from and its live
        rows' watts are equal. Stacks are never written and share those
        arrays only where nothing they hold changed, so the rates are those
        a computation would give, bit for bit: a move of an idle beam, a
        width clamped at its bound, or a power that is clamped or reaches no
        live row, computes nothing."""
        stack = self.stack(solution)
        watts = self._watts(stack, solution.tx_power)
        gains, serving, last, rates = self._rates
        if gains is stack.gains and serving is stack.serving and np.array_equal(watts, last):
            return rates
        signal, interference, noise, bandwidth = self._terms(stack, watts)
        rates = _mean_rate(bandwidth, signal, noise + interference)
        rates.flags.writeable = False
        self._rates = stack.gains, stack.serving, watts, rates
        return rates

    def metrics(self, solution: SolutionState) -> MetricsBundle:
        """Averaged rates and SAR over all realizations, plus feasibility."""
        scenario = self.scenario
        sar = self._exposure(self.stack(solution), solution.tx_power)
        rates = self.mean_rates(solution)
        active = set(solution.active_poas())
        return MetricsBundle(
            per_user_rate={u.id: float(r) for u, r in zip(scenario.users, rates)},
            per_human_sar={h.id: float(s) for h, s in zip(scenario.humans, sar)},
            per_poa_power={
                p.id: solution.tx_power[p.id] if p.id in active else -math.inf
                for p in scenario.poas},
            total_power=solution.total_power_watts(),
            violated=self._short(rates) + [   # a NaN SAR or limit fails
                f"sar:{hid}" for hid, within in
                zip(self._human_ids, (sar <= scenario.sar_limit).tolist()) if not within],
        )

    def dump_links(self, solution: SolutionState) -> list:
        """Per-(realization, beam, target) unit-power energies for inspection.

        Together with the solved powers this is enough to recompute every
        SINR, rate, and received power by hand. A linked human's rows are
        its user's. On the Evaluator that judged ``solution`` (as either
        solver's does) it builds no stack and fills no table: it only draws
        the links again, for their LoS states, path losses and shadowing.
        """
        rows = []
        drawn = {}  # PoA id -> the los, pathloss_db and shadow_db of its users, of its humans
        self.stack(solution)  # refuses what validate refuses
        active = [b for b in solution.beams if b.active]
        keys = [self._key(b) for b in active]
        for b, users, unlinked in zip(active, self._tables(keys, 0), self._tables(keys, 1)):
            poa = self.scenario.poa_by_id(b.owner_poa)
            energies = users, self._per_human(users, unlinked)
            if poa.id not in drawn:
                of_users = _link_fields(self._parts[poa.id, 0].links())
                part = self._parts[poa.id, 1]
                of_unlinked = _link_fields(part.links()) if part.shape[1] else [
                    a[:, :0] for a in of_users]  # no unlinked human: part 1 is never drawn
                drawn[poa.id] = of_users, [self._per_human(u, h)
                                           for u, h in zip(of_users, of_unlinked)]
            # Per part: unit_energy_w, los, pathloss_db and shadow_db, (realizations, targets).
            fields = [[a.tolist() for a in (energies[k], *drawn[poa.id][k])] for k in (0, 1)]
            rows += [dict(zip(_LINK_KEYS, (r, b.beam_id, poa.id, poa.frequency, poa.bandwidth, tid,
                                           kind, *(f[r][col] for f in fields[part]))))
                     for r in range(self.n_realizations)
                     for part, (kind, ids) in enumerate((("user", self._user_ids),
                                                         ("human", self._human_ids)))
                     for col, tid in enumerate(ids)]
        return rows


def evaluate(solution: SolutionState, scenario: Scenario, seed: int,
             n_realizations: int = N_REALIZATIONS) -> MetricsBundle:
    """Evaluate a solution over seeded channel realizations: a new
    ``Evaluator``'s ``metrics``, which refuses what ``validate`` refuses.

    Deterministic given (solution, scenario, seed, n_realizations).
    """
    return Evaluator(scenario, seed, n_realizations).metrics(solution)
