"""Whole-body SAR estimation from incident power density.

The chain is: power density S -> incident field E_inc = sqrt(S * Z0) ->
SAR_wb = (E_inc / E_ref)^2 * (BMI / BMI_ref) * SAR_ref, with SAR_ref taken
at the reference frequency mapped from the operating one. Contributions
from distinct operating frequencies add.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FREE_SPACE_IMPEDANCE = 377.0

#: ICNIRP whole-body basic restriction for the general public, W/kg.
ICNIRP_WHOLE_BODY_LIMIT = 0.08


class UnmappedFrequencyError(KeyError):
    """An operating frequency has no reference-frequency mapping."""


@dataclass(frozen=True)
class PhantomProfile:
    """Reference human body model for exposure scaling.

    ``sar_ref`` maps reference frequency [Hz] to the whole-body SAR [W/kg]
    induced by the reference incident field ``e_ref`` [V/m] in a body of
    mass index ``bmi_ref``.
    """

    name: str
    bmi: float
    sar_ref: dict
    bmi_ref: float = 22.0
    e_ref: float = 2.45


@dataclass(frozen=True)
class FrequencyMap:
    """Operating frequency [Hz] -> reference frequency [Hz] for SAR_ref lookup."""

    pairs: dict = field(default_factory=dict)

    def reference(self, frequency: float) -> float:
        try:
            return self.pairs[frequency]
        except KeyError:
            raise UnmappedFrequencyError(
                f"no reference frequency mapped for {frequency} Hz") from None


def incident_field(power_density):
    """Incident electric field [V/m] from power density [W/m^2], scalar or array."""
    s = np.asarray(power_density, dtype=float)
    if np.any(s < 0):
        raise ValueError("power density must be non-negative")
    e = np.sqrt(s * FREE_SPACE_IMPEDANCE)
    return e if e.ndim else float(e)


def sar_wb(e_inc_by_freq: dict, phantom: PhantomProfile, freq_map: FrequencyMap):
    """Whole-body SAR [W/kg] from per-frequency incident fields [V/m].

    Quadratic in each field, linear in the body mass index; frequencies
    contribute additively, in the dict's order. Fields may be arrays of
    one shape, giving the SAR elementwise.
    """
    total = 0.0
    for f, e_inc in e_inc_by_freq.items():
        ref_f = freq_map.reference(f)
        try:
            ref_sar = phantom.sar_ref[ref_f]
        except KeyError:
            raise UnmappedFrequencyError(
                f"phantom {phantom.name!r} has no SAR_ref at {ref_f} Hz") from None
        total += (e_inc / phantom.e_ref) ** 2 * (phantom.bmi / phantom.bmi_ref) * ref_sar
    return total
