"""Exposure scaling laws and the phantom/frequency plumbing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cellless.exposure import (FREE_SPACE_IMPEDANCE, FrequencyMap, PhantomProfile,
                               UnmappedFrequencyError, incident_field, sar_wb)
from cellless.scenario import ValidationError, builtin_scenario

PHANTOM = PhantomProfile("test", bmi=24.0, sar_ref={2.45e9: 3.2e-4})
FMAP = FrequencyMap({3.5e9: 2.45e9})


def test_identity_case_returns_sar_ref_exactly():
    ph = PhantomProfile("ref", bmi=22.0, sar_ref={2.45e9: 3.2e-4},
                        bmi_ref=22.0, e_ref=2.45)
    assert sar_wb({3.5e9: 2.45}, ph, FMAP) == 3.2e-4


def test_quadratic_field_scaling():
    rng = np.random.default_rng(17)
    base = sar_wb({3.5e9: 1.0}, PHANTOM, FMAP)
    for c in rng.uniform(0.0, 10.0, 200):
        scaled = sar_wb({3.5e9: float(c)}, PHANTOM, FMAP)
        assert abs(scaled - c * c * base) <= 1e-12 * max(base, scaled)


def test_linear_in_bmi():
    lean = PhantomProfile("a", bmi=11.0, sar_ref={2.45e9: 1e-4})
    heavy = PhantomProfile("b", bmi=33.0, sar_ref={2.45e9: 1e-4})
    assert sar_wb({3.5e9: 2.0}, heavy, FMAP) == pytest.approx(
        3.0 * sar_wb({3.5e9: 2.0}, lean, FMAP), rel=1e-12)


def test_frequencies_add():
    fm = FrequencyMap({3.5e9: 2.45e9, 5.2e9: 5.2e9})
    ph = PhantomProfile("c", bmi=20.0, sar_ref={2.45e9: 1e-4, 5.2e9: 2e-4})
    s_both = sar_wb({3.5e9: 1.5, 5.2e9: 0.7}, ph, fm)
    s_split = sar_wb({3.5e9: 1.5}, ph, fm) + sar_wb({5.2e9: 0.7}, ph, fm)
    assert s_both == pytest.approx(s_split, rel=1e-12)


def test_unmapped_frequency_errors():
    with pytest.raises(UnmappedFrequencyError):
        sar_wb({6e9: 1.0}, PHANTOM, FMAP)
    ph = PhantomProfile("d", bmi=20.0, sar_ref={5.2e9: 1e-4})
    with pytest.raises(UnmappedFrequencyError):
        sar_wb({3.5e9: 1.0}, ph, FMAP)  # mapped to 2.45 GHz, absent from table


def test_incident_field():
    assert incident_field(0.0) == 0.0
    s = 1.3e-3
    assert incident_field(s) == pytest.approx(math.sqrt(s * FREE_SPACE_IMPEDANCE))
    with pytest.raises(ValueError):
        incident_field(-1e-9)


def test_phantom_validation():
    """A world whose worn phantom holds a BMI or a SAR_ref out of range, or
    no SAR_ref, is refused when it is built, at the phantom's file key."""
    world = builtin_scenario("inf-dh-desk", 0)
    ella = world.phantoms["ella"]
    assert next(iter(world.phantoms)) == "ella" and world.humans[0].phantom_id == "ella"
    for change, path in [({"bmi": 0.0}, "phantoms[0].bmi"),
                         ({"sar_ref": {}}, "phantoms[0].sar_ref"),
                         ({"sar_ref": {**ella.sar_ref, 2.45e9: -1.0}},
                          "phantoms[0].sar_ref.2450000000.0")]:
        with pytest.raises(ValidationError) as err:
            replace(world, phantoms={**world.phantoms, "ella": replace(ella, **change)})
        assert err.value.path == path
