import dataclasses

import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff.model import coefficient_fields

from conftest import make_grid_1d, two_species_model


def test_eval_coefficient_examples():
    spec = rd.SktCoefficients(1.0, (1.0, 2.0), 1.0)
    assert rd.eval_coefficient(spec, (1.0, 2.0)) == pytest.approx(6.0)
    assert rd.eval_coefficient(spec, (0.0, 0.0)) == pytest.approx(1.0)
    spec2 = rd.SktCoefficients(1.0, (1.0, 0.0), 2.0)
    assert rd.eval_coefficient(spec2, (3.0, 7.0)) == pytest.approx(10.0)


def test_eval_coefficient_rejects_negative_input():
    spec = rd.SktCoefficients(1.0, (1.0,), 1.0)
    with pytest.raises(ValueError):
        rd.eval_coefficient(spec, (-0.1,))


def test_truncation_bound_examples():
    s1 = rd.SktCoefficients(1.0, (1.0, 2.0), 1.0)
    s2 = rd.SktCoefficients(2.0, (0.0, 1.0), 1.0)
    assert rd.truncation_bound([s1, s2], 1.0) == pytest.approx(4.0)
    assert rd.truncation_bound([s1, s2], 0.0) == pytest.approx(2.0)
    s3 = rd.SktCoefficients(1.0, (1.0,), 2.0)
    assert rd.truncation_bound([s3], 3.0) == pytest.approx(10.0)


def test_truncation_bound_tabulated_matches_corner():
    tab = rd.TabulatedCoefficients(lambda r: 0.5 + float(r[0]) + 2.0 * float(r[1]),
                                   lower_bound=0.5)
    skt = rd.SktCoefficients(0.5, (1.0, 2.0), 1.0)
    k = 1.75
    assert rd.truncation_bound([tab, tab], k) == pytest.approx(
        rd.truncation_bound([skt, skt], k), rel=1e-12)


def test_truncation_bound_nondecreasing(rng):
    spec = rd.SktCoefficients(0.3, (0.8, 0.1), 1.5)
    ks = np.sort(rng.uniform(0.0, 5.0, 12))
    bounds = [rd.truncation_bound([spec, spec], k) for k in ks]
    assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_skt_monotone_in_each_argument(rng):
    spec = rd.SktCoefficients(0.2, (0.7, 1.3, 0.0), 2.0)
    for _ in range(200):
        r = rng.uniform(0.0, 4.0, 3)
        j = rng.integers(0, 3)
        bumped = r.copy()
        bumped[j] += rng.uniform(0.0, 2.0)
        assert rd.eval_coefficient(spec, bumped) >= rd.eval_coefficient(spec, r) - 1e-12


def test_skt_lower_bound_randomized(rng):
    spec = rd.SktCoefficients(0.45, (0.2, 0.9), 0.7)
    samples = rng.uniform(0.0, 100.0, size=(10_000, 2))
    values = np.array([rd.eval_coefficient(spec, r) for r in samples[:200]])
    assert np.all(values >= spec.lower_bound)
    # vectorized sweep over the full sample set
    many = spec.evaluate_many(samples.T)
    assert np.all(many >= spec.lower_bound)


def test_lipschitz_flags():
    assert rd.SktCoefficients(1.0, (1.0,), 1.0).lipschitz
    assert rd.SktCoefficients(1.0, (1.0,), 2.5).lipschitz
    assert not rd.SktCoefficients(1.0, (1.0,), 0.5).lipschitz
    assert rd.SktCoefficients(1.0, (0.0,), 0.5).lipschitz  # no coupling, constant
    assert rd.TabulatedCoefficients(lambda r: 1.0, 1.0, lipschitz=True).lipschitz


def test_validate_model_accepts_well_formed():
    m = two_species_model(make_grid_1d(8))
    assert rd.validate_model(m) == []


def test_validate_model_flags_bad_delta():
    m = two_species_model(make_grid_1d(8), delta=(0.01, 0.0))
    violations = rd.validate_model(m)
    assert any(v.species == 2 and "delta" in v.condition for v in violations)


def test_validate_model_flags_negative_initial():
    g = make_grid_1d(6)
    values = np.full(6, 0.5)
    values[3] = -0.1
    m = rd.ModelSpec(
        delta=(0.1,),
        coefficients=(rd.SktCoefficients(1.0, (0.0,)),),
        initial_data=(rd.Field(g, values),),
    )
    violations = rd.validate_model(m)
    assert len(violations) == 1
    v = violations[0]
    assert v.species == 1 and v.cell == 3 and "nonnegative" in v.condition


def test_validate_model_spot_checks_tabulated_bound():
    bad = rd.TabulatedCoefficients(lambda r: 0.1, lower_bound=1.0)
    g = make_grid_1d(4)
    m = rd.ModelSpec(delta=(0.1,), coefficients=(bad,),
                     initial_data=(rd.Field.constant(g, 1.0),))
    violations = rd.validate_model(m)
    assert any("lower bound" in v.condition for v in violations)


def test_validate_model_flags_a_max_below_bound():
    m = dataclasses.replace(two_species_model(make_grid_1d(8)), a_max=0.01)
    assert any("a_max" in v.condition for v in rd.validate_model(m))


def test_coefficient_fields_clamping(rng):
    g = make_grid_1d(5)
    m = rd.ModelSpec(
        delta=(0.1,),
        coefficients=(rd.SktCoefficients(1.0, (2.0,), 1.0),),
        initial_data=(rd.Field.constant(g, 1.0),),
    )
    tilde = [rd.Field(g, np.array([0.5, -1e-12, 0.25, -2e-13, 0.0]))]
    fields, counts = coefficient_fields(m, tilde, (0,))
    assert counts == [2]
    assert fields[0][1] == pytest.approx(1.0)  # clamped to zero before evaluating


def test_coefficient_fields_a_max_truncation():
    g = make_grid_1d(4)
    m = rd.ModelSpec(
        delta=(0.1,),
        coefficients=(rd.SktCoefficients(1.0, (1.0,), 1.0),),
        initial_data=(rd.Field.constant(g, 1.0),),
        a_max=1.5,
    )
    tilde = [rd.Field(g, np.array([0.0, 1.0, 2.0, 3.0]))]
    fields, counts = coefficient_fields(m, tilde, (0,))
    assert fields[0].tolist() == [1.0, 1.5, 1.5, 1.5]
    assert counts == [3]


@pytest.mark.parametrize("k", [-1.0, float("nan"), float("inf")])
def test_truncation_bound_rejects_a_level_outside_zero_to_infinity(k):
    spec = rd.SktCoefficients(1.0, (1.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="k must be nonnegative and finite"):
        rd.truncation_bound([spec, spec], k)
