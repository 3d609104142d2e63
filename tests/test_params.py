import dataclasses
import math

import pytest

from greencell import params
from greencell.params import (DerivedConstants, InvalidParameterError,
                              SystemParams, derive_constants,
                              params_from_mapping)


def test_defaults_are_the_benchmark_setup():
    p = SystemParams()
    assert p.bandwidth_w == 5e6
    assert p.user_rate == 150e3
    assert p.pathloss_exp == 3.0
    assert p.noise_psd == pytest.approx(10.0 ** -20.4, rel=0)
    assert p.ref_pathloss == 1e-6
    assert p.outage_target == 1e-3
    assert p.coding_blocks == 1
    assert p.max_bs_power == 160.0
    assert p.sleep_power == 0.0
    assert p.amp_scaling == 1.0


def test_derived_constants_frozen_values():
    c = derive_constants(SystemParams())
    # -log(1 - 1e-3) and the transmit-power prefactor, high-precision oracle
    assert c.c1 == pytest.approx(1.0005003335835335e-3, rel=1e-14)
    assert c.c2 == pytest.approx(0.03, rel=0)
    assert c.d1 == pytest.approx(7.9581616755204929e-9, rel=1e-13)
    assert c.d3 == pytest.approx(math.log(2.0) * 0.03, rel=1e-15)


def test_c2_equals_d2_exactly():
    c = derive_constants(SystemParams(user_rate=123e3, bandwidth_w=7e6))
    assert c.c2 == c.d2


def test_derive_constants_is_pure():
    a = derive_constants(SystemParams())
    b = derive_constants(SystemParams())
    assert a == b


def test_each_params_object_computes_its_constants_once(monkeypatch):
    built = []

    def counted(**kwargs):
        built.append(kwargs)
        return DerivedConstants(**kwargs)

    monkeypatch.setattr(params, "DerivedConstants", counted)
    p, q = SystemParams(), SystemParams()
    assert derive_constants(p) is derive_constants(p)
    assert len(built) == 1
    # an equal object keeps its own, so nothing is shared across objects
    assert derive_constants(q) == derive_constants(p)
    assert derive_constants(q) is not derive_constants(p)
    assert len(built) == 2
    # the kept constants are no field: equality, hash and the manifest's
    # asdict are those of the fields alone
    assert p == SystemParams() and hash(p) == hash(SystemParams())
    assert dataclasses.asdict(p) == dataclasses.asdict(SystemParams())


def test_d1_decreasing_in_pathloss_exp():
    values = [derive_constants(SystemParams(pathloss_exp=a)).d1
              for a in (2.1, 2.5, 3.0, 4.0, 5.0, 6.0)]
    assert all(hi > lo for hi, lo in zip(values, values[1:]))


@pytest.mark.parametrize("kwargs,needle", [
    (dict(pathloss_exp=2.0), "pathloss_exp"),
    (dict(outage_target=0.0), "outage_target"),
    (dict(outage_target=1.0), "outage_target"),
    (dict(coding_blocks=0), "coding_blocks"),
    (dict(bandwidth_w=0.0), "bandwidth_w"),
    (dict(user_rate=-1.0), "user_rate"),
    (dict(snr_gap=0.5), "snr_gap"),
    (dict(noise_psd=0.0), "noise_psd"),
    (dict(ref_pathloss=0.0), "ref_pathloss"),
    (dict(ref_distance=0.0), "ref_distance"),
    (dict(amp_scaling=0.9), "amp_scaling"),
    (dict(max_bs_power=100.0, static_power=120.0), "max_bs_power"),
    (dict(sleep_power=130.0, static_power=120.0), "sleep_power"),
])
def test_invalid_parameters_name_the_field(kwargs, needle):
    with pytest.raises(InvalidParameterError, match=needle):
        SystemParams(**kwargs)


def test_mapping_accepts_db_alternates():
    p = params_from_mapping({"noise_psd_dbm": -174, "ref_pathloss_db": -60})
    assert p.noise_psd == pytest.approx(10.0 ** -20.4, rel=1e-12)
    assert p.ref_pathloss == pytest.approx(1e-6, rel=1e-12)


def test_mapping_rejects_unknown_and_conflicting_keys():
    with pytest.raises(InvalidParameterError, match="unknown"):
        params_from_mapping({"nosuchkey": 1})
    with pytest.raises(InvalidParameterError):
        params_from_mapping({"noise_psd": 1e-20, "noise_psd_dbm": -174})


def test_params_are_immutable():
    p = SystemParams()
    with pytest.raises(Exception):
        p.bandwidth_w = 1.0
