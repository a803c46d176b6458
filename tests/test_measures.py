"""Measure arithmetic and location sampling.

Integrals of piecewise-constant functions against piecewise-constant
densities must be exact cell sums, not quadrature; the sampling side is
checked with Monte Carlo intervals and a chi-square uniformity test.
"""

import dataclasses
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levycrm import beta, gamma, posterior, truncation, verify
from levycrm.measures import (
    BaseMeasure,
    Domain,
    DomainError,
    PiecewiseConst,
    PointMeasure,
    _covered_cells,
    _edges_with_boxes,
    as_boxes,
    common_edges,
    location_table,
    positive_function,
)
from levycrm.streams import RandomStream, batch_poisson
from levycrm.verify import chi_square_gof
from reference import _sample_locations

UNIT = Domain()


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain([(0.0, 0.0)])
    with pytest.raises(ValueError):
        Domain([(0.0, math.inf)])
    d = Domain([(0.0, 1.0), (-1.0, 3.0)])
    assert d.dim == 2
    assert d.volume == pytest.approx(4.0)


def test_measure_of_set_examples():
    m = BaseMeasure.uniform(UNIT, 1.0)
    assert m.mass_of([(0.0, 1.0)]) == 1.0
    assert m.mass_of([(0.0, 0.25)]) == 0.25
    mixed = BaseMeasure(
        PiecewiseConst.constant(UNIT, 2.0),
        atom_locations=np.array([[0.5]]),
        atom_masses=np.array([3.0]),
    )
    assert mixed.mass_of([(0.4, 0.6)]) == pytest.approx(3.4)


def test_measure_of_set_additive():
    den = PiecewiseConst(UNIT, [np.array([0.0, 0.3, 1.0])], np.array([2.0, 0.5]))
    m = BaseMeasure(den)
    a = m.mass_of([(0.0, 0.2)])
    b = m.mass_of([(0.2, 0.7)])
    both = m.mass_of([[(0.0, 0.2)], [(0.2, 0.7)]])
    assert both == a + b


def test_measure_of_set_outside_domain():
    m = BaseMeasure.uniform(UNIT, 1.0)
    with pytest.raises(DomainError):
        m.mass_of([(0.5, 1.5)])


def test_weighted_integral_examples():
    m = BaseMeasure.uniform(UNIT, 3.0)
    one = PiecewiseConst.constant(UNIT, 1.0)
    assert m.integral_against(one) == pytest.approx(3.0)
    two = PiecewiseConst.constant(UNIT, 2.0)
    assert m.integral_against(two) == pytest.approx(6.0)
    f = PiecewiseConst(UNIT, [np.array([0.0, 0.5, 1.0])], np.array([2.0, 4.0]))
    assert BaseMeasure.uniform(UNIT, 1.0).integral_against(f) == pytest.approx(3.0)


def test_weighted_integral_refines_mismatched_partitions():
    # density and f on different grids; exact value by hand:
    # 0.25*1*2 + 0.25*1*4 + 0.5*3*4 = 7.5
    den = PiecewiseConst(UNIT, [np.array([0.0, 0.5, 1.0])], np.array([1.0, 3.0]))
    f = PiecewiseConst(UNIT, [np.array([0.0, 0.25, 1.0])], np.array([2.0, 4.0]))
    assert BaseMeasure(den).integral_against(f) == pytest.approx(7.5, rel=1e-15)


def test_weighted_integral_counts_atoms():
    m = BaseMeasure(
        PiecewiseConst.constant(UNIT, 1.0),
        atom_locations=np.array([[0.8]]),
        atom_masses=np.array([2.0]),
    )
    f = PiecewiseConst(UNIT, [np.array([0.0, 0.5, 1.0])], np.array([1.0, 10.0]))
    # continuous 0.5*1 + 0.5*10 = 5.5, atom 2*10
    assert m.integral_against(f) == pytest.approx(25.5)
    # constant f equals const * mass_of exactly
    k = PiecewiseConst.constant(UNIT, 7.0)
    assert m.integral_against(k) == 7.0 * m.mass_of([(0.0, 1.0)])


def test_positive_function_accepts_scalar_and_rejects_nonpositive():
    f = positive_function(2.5, UNIT, "c")
    assert float(f.values.flat[0]) == 2.5
    with pytest.raises(ValueError):
        positive_function(0.0, UNIT, "c")
    with pytest.raises(ValueError):
        positive_function(-1.0, UNIT, "c")


def test_base_measure_invariants():
    with pytest.raises(ValueError):
        BaseMeasure.uniform(UNIT, 0.0)
    with pytest.raises(ValueError):
        BaseMeasure(
            PiecewiseConst.constant(UNIT, 1.0),
            atom_locations=np.array([[0.5], [0.5]]),
            atom_masses=np.array([1.0, 1.0]),
        )
    # atom locations must have the domain's dimension, whatever their count
    for locs, masses in ([[0.5, 0.7]], [1.0]), ([[0.2, 0.3], [0.6, 0.1]], [1.0, 2.0]):
        with pytest.raises(ValueError, match="dimension 1"):
            BaseMeasure(PiecewiseConst.constant(UNIT, 1.0), locs, masses)
    with pytest.raises(ValueError, match="dimension 1"):
        BaseMeasure(PiecewiseConst.constant(UNIT, 1.0), np.empty((0, 2)), [])
    # negative densities are rejected at the measure level; PiecewiseConst
    # itself also represents signed functions
    neg = PiecewiseConst(UNIT, [np.array([0.0, 0.5, 1.0])], np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        BaseMeasure(neg)


def test_sample_locations_uniform_mean():
    m = BaseMeasure.uniform(UNIT, 1.0)
    locs = _sample_locations(location_table(m), 100_000, RandomStream(4).cursor())
    assert locs.shape == (100_000, 1)
    se = (1.0 / math.sqrt(12.0)) / math.sqrt(locs.shape[0])
    assert abs(locs.mean() - 0.5) < 3 * se


def test_sample_locations_empty_and_atoms():
    m = location_table(BaseMeasure.uniform(UNIT, 1.0))
    assert _sample_locations(m, 0, RandomStream(1).cursor()).shape == (0, 1)
    zero = PiecewiseConst.constant(UNIT, 1.0).map(lambda v: v * 0.0)
    zero_table = location_table(BaseMeasure(zero))
    with pytest.raises(ValueError):
        _sample_locations(zero_table, 1, RandomStream(1).cursor())
    atom_only = BaseMeasure(
        zero, atom_locations=np.array([[0.3]]), atom_masses=np.array([1.0])
    )
    locs = _sample_locations(location_table(atom_only), 50, RandomStream(2).cursor())
    assert np.all(locs == 0.3)


def test_sample_locations_mixture_split():
    # continuous mass 1, atom mass 3: atom frequency 0.75
    m = BaseMeasure(
        PiecewiseConst.constant(UNIT, 1.0),
        atom_locations=np.array([[0.5]]),
        atom_masses=np.array([3.0]),
    )
    locs = _sample_locations(location_table(m), 20_000, RandomStream(6).cursor())
    freq = float(np.mean(locs[:, 0] == 0.5))
    se = math.sqrt(0.75 * 0.25 / 20_000)
    assert abs(freq - 0.75) < 4 * se


def test_sample_locations_chi_square_uniformity():
    m = BaseMeasure.uniform(UNIT, 2.0)
    locs = _sample_locations(location_table(m), 100_000, RandomStream(9).cursor())
    counts, _ = np.histogram(locs[:, 0], bins=20, range=(0.0, 1.0))
    assert chi_square_gof(counts, np.full(20, 0.05)).passed


def test_sample_locations_respects_density_weights():
    den = PiecewiseConst(UNIT, [np.array([0.0, 0.5, 1.0])], np.array([1.0, 3.0]))
    table = location_table(BaseMeasure(den))
    locs = _sample_locations(table, 40_000, RandomStream(12).cursor())
    freq = float(np.mean(locs[:, 0] >= 0.5))
    se = math.sqrt(0.75 * 0.25 / 40_000)
    assert abs(freq - 0.75) < 4 * se


def test_poisson_count_wrapper():
    key = RandomStream(3).key
    assert batch_poisson(0.0, *key)[0] == 0
    with pytest.raises(ValueError):
        batch_poisson(-2.0, *key)
    with pytest.raises(ValueError):
        batch_poisson(math.nan, *key)
    # the keys of RandomStream(3, (i,)), i < 5000
    counts, _ = batch_poisson(5.0, *RandomStream(3).child_keys(np.arange(5000)))
    assert abs(np.mean(counts) - 5.0) < 3 * math.sqrt(5.0 / 5000)


def test_point_measure_arithmetic():
    a1 = ([[0.2]], [0.5], 0)
    a2 = ([[0.7]], [0.25], 1)
    pm = PointMeasure(UNIT, *a1) + PointMeasure(UNIT, *a2)
    assert pm.total_mass == 0.75
    assert pm.mass_in([(0.0, 0.5)]) == 0.5
    assert np.array_equal(pm.jumps, np.array([0.5, 0.25]))
    assert pm.locations.shape == (2, 1)
    other = Domain([(0.0, 2.0)])
    with pytest.raises(ValueError):
        PointMeasure(UNIT, *a1) + PointMeasure(other, *a2)


def test_reproducible_sampling():
    m = BaseMeasure.uniform(UNIT, 1.0)
    a = _sample_locations(location_table(m), 32, RandomStream(123, (4,)).cursor())
    b = _sample_locations(location_table(m), 32, RandomStream(123, (4,)).cursor())
    assert np.array_equal(a, b)


def _per_point_locations(measure, n, cursor):
    # the sampler as a loop over points, one word per read: the component
    # choice, then one position uniform per dimension for a density cell
    cell_masses = (measure.density.values * measure.density.cell_volumes()).reshape(-1)
    weights = np.concatenate([cell_masses, measure.atom_masses])
    cum = np.cumsum(weights)
    n_cells = cell_masses.size
    edges = measure.density.edges
    out = np.empty((n, measure.domain.dim))
    for i in range(n):
        u = cursor.uniform() * cum[-1]
        j = min(int(np.searchsorted(cum, u, side="left")), weights.size - 1)
        if j < n_cells:
            cell = np.unravel_index(j, measure.density.values.shape)
            for d in range(measure.domain.dim):
                lo, hi = edges[d][cell[d]], edges[d][cell[d] + 1]
                out[i, d] = lo + cursor.uniform() * (hi - lo)
        else:
            out[i] = measure.atom_locations[j - n_cells]
    return out


@st.composite
def _mixed_measures(draw):
    # density cells (zero-mass ones included) plus up to three fixed atoms,
    # some of them zero-mass too
    dim = draw(st.integers(1, 2))
    domain = Domain([(0.0, 1.0), (-1.0, 2.0)][:dim])
    edges = []
    for lo, hi in domain.bounds:
        inner = draw(st.lists(
            st.floats(lo, hi, exclude_min=True, exclude_max=True), max_size=3, unique=True
        ))
        edges.append([lo, *sorted(inner), hi])
    shape = tuple(len(e) - 1 for e in edges)
    weights = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])
    values = draw(st.lists(weights, min_size=math.prod(shape), max_size=math.prod(shape)))
    spots = st.tuples(*[st.sampled_from([lo, 0.25, 0.5, hi]) for lo, hi in domain.bounds])
    locs = draw(st.lists(spots, max_size=3, unique=True))
    masses = draw(st.lists(weights, min_size=len(locs), max_size=len(locs)))
    density = PiecewiseConst(domain, edges, np.reshape(values, shape))
    if not locs:
        return BaseMeasure(density)
    return BaseMeasure(density, locs, masses)


@settings(max_examples=200, deadline=None)
@given(measure=_mixed_measures(), n=st.integers(0, 60), start=st.integers(0, 9))
def test_sample_locations_matches_per_point_loop(measure, n, start):
    assume(measure.total_mass > 0)
    s = RandomStream(31, (n, start))
    ref_cursor = s.cursor(start)
    ref = _per_point_locations(measure, n, ref_cursor)
    cursor = s.cursor(start)
    got = _sample_locations(location_table(measure), n, cursor)
    assert np.array_equal(got, ref)
    assert cursor.pos == ref_cursor.pos
    assert cursor.uniform() == ref_cursor.uniform()


def _ref_integral(fn, boxes):
    # PiecewiseConst.integral over boxes as a direct cell sum
    boxes = as_boxes(boxes, fn.domain)
    edges = _edges_with_boxes(fn.edges, boxes)
    vals = fn.on_grid(edges)
    mask = _covered_cells(edges, boxes)
    vols = _ref_volumes(edges)
    return float(np.sum(vals * vols * mask))


def _ref_volumes(edges):
    return reduce(np.multiply.outer, [np.diff(e) for e in edges])


def _ref_hits(points, boxes):
    hit = np.zeros(len(points), dtype=bool)
    for box in boxes:
        hit |= np.all((points >= box[:, 0]) & (points <= box[:, 1]), axis=1)
    return hit


def _ref_mass_of(m, boxes):
    total = _ref_integral(m.density, boxes)
    if m.atom_masses.size:
        hit = _ref_hits(m.atom_locations, as_boxes(boxes, m.domain))
        total += float(m.atom_masses[hit].sum())
    return total


def _ref_integral_against(m, f, boxes):
    boxes = as_boxes(boxes, m.domain)
    edges = _edges_with_boxes(common_edges(m.density, f), boxes)
    prod = m.density.on_grid(edges) * f.on_grid(edges) * _ref_volumes(edges)
    total = float((prod * _covered_cells(edges, boxes)).sum())
    if m.atom_masses.size:
        hit = _ref_hits(m.atom_locations, boxes)
        total += float((m.atom_masses * f.at(m.atom_locations))[hit].sum())
    return total


_VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 5.0))


@st.composite
def _boxed_cases(draw):
    # a base measure, an f on its own grid, 1-3 boxes and a point measure,
    # with box corners often on cell edges and atoms
    dim = draw(st.integers(1, 2))
    domain = Domain([(0.0, 1.0), (-1.0, 2.0)][:dim])

    def grid():
        edges = []
        for lo, hi in domain.bounds:
            inner = draw(st.lists(
                st.floats(lo, hi, exclude_min=True, exclude_max=True),
                max_size=4, unique=True,
            ))
            edges.append([lo, *sorted(inner), hi])
        shape = tuple(len(e) - 1 for e in edges)
        size = math.prod(shape)
        values = draw(st.lists(_VALUES, min_size=size, max_size=size))
        return PiecewiseConst(domain, edges, np.reshape(values, shape))

    density, f = grid(), grid()
    spots = [sorted({*b, 0.25, 0.5, *e}) for b, e in zip(domain.bounds, density.edges)]
    coord = [st.one_of(st.sampled_from(s), st.floats(s[0], s[-1])) for s in spots]
    locs = draw(st.lists(st.tuples(*coord), max_size=3, unique=True))
    masses = draw(st.lists(_VALUES, min_size=len(locs), max_size=len(locs)))
    base = BaseMeasure(density, locs, masses) if locs else BaseMeasure(density)
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        boxes.append([sorted(draw(st.tuples(c, c))) for c in coord])
    points = draw(st.lists(st.tuples(*coord), max_size=6))
    jumps = draw(st.lists(_VALUES, min_size=len(points), max_size=len(points)))
    pm = PointMeasure(domain, np.reshape(points, (len(points), dim)), jumps)
    return base, f, boxes, pm


@settings(max_examples=300, deadline=None)
@given(case=_boxed_cases())
def test_boxed_integrals_match_reference_loops(case):
    base, f, boxes, pm = case
    assert base.density.integral(boxes) == _ref_integral(base.density, boxes)
    assert base.mass_of(boxes) == _ref_mass_of(base, boxes)
    assert base.integral_against(f, boxes) == _ref_integral_against(base, f, boxes)
    hit = _ref_hits(pm.locations, as_boxes(boxes, pm.domain))
    assert pm.mass_in(boxes) == float(pm.jumps[hit].sum())


# Every integer parameter of the library, each read by ``measures._integer``:
# name -> (call with the parameter at x, the least legal x).
_BP = beta.BetaProcessParams.homogeneous(2.0, 1.5)
_GP = gamma.GammaProcessParams.homogeneous(1.0, 2.0)
_GG = gamma.GeneralizedGammaParams(_GP, 0.3)
_S = RandomStream(5)
_PRIOR = beta.simulate_beta_process(_BP, 3, _S)
INTEGER_PARAMETERS = {
    "beta.round_measure k": (lambda x: beta.round_measure(_BP, x), 0),
    "beta.simulate_beta_process K": (lambda x: beta.simulate_beta_process(_BP, x, _S), 0),
    "beta.simulate_replicas K": (lambda x: beta.simulate_replicas(_BP, x, _S, 2), 0),
    "beta.simulate_replicas replicas": (lambda x: beta.simulate_replicas(_BP, 2, _S, x), 0),
    "beta.round_mean_and_variance k": (lambda x: beta.round_mean_and_variance(_BP, x), 0),
    "beta.cumulative_round_moments K": (
        lambda x: beta.cumulative_round_moments(_BP, x), 0
    ),
    "beta.stable_round_measure k": (
        lambda x: beta.stable_round_measure(beta.StableBetaParams(_BP, 0.3), x), 0
    ),
    "beta.ibp_levy_density num_objects": (
        lambda x: beta.ibp_levy_density(x, 1.0, 1.0, 0.5), 1
    ),
    "gamma.subround_rate k": (lambda x: gamma.subround_rate(2.0, x, 2), 1),
    "gamma.subround_rate h": (lambda x: gamma.subround_rate(2.0, 2, x), 1),
    "gamma.subround_spec k": (lambda x: gamma.subround_spec(_GP, x, 2), 1),
    "gamma.subround_spec h": (lambda x: gamma.subround_spec(_GP, 2, x), 1),
    "gamma.simulate_gamma_process K": (
        lambda x: gamma.simulate_gamma_process(_GP, x, 3, _S), 1
    ),
    "gamma.simulate_symmetric_gamma K": (
        lambda x: gamma.simulate_symmetric_gamma(_GP, x, None, _S), 1
    ),
    "gamma.simulate_replicas replicas": (
        lambda x: gamma.simulate_replicas(_GP, 2, 3, _S, x), 0
    ),
    "gamma.replica_masses replicas": (lambda x: gamma.replica_masses(_GP, 2, 3, _S, x), 0),
    "gamma.subround_mean_and_variance k": (
        lambda x: gamma.subround_mean_and_variance(_GP, x, 2), 1
    ),
    "gamma.subround_mean_and_variance h": (
        lambda x: gamma.subround_mean_and_variance(_GP, 2, x), 1
    ),
    "gamma.round_mean_and_variance k": (lambda x: gamma.round_mean_and_variance(_GP, x), 1),
    "gamma.round_mean_and_variance num_subrounds": (
        lambda x: gamma.round_mean_and_variance(_GP, 2, None, x), 1
    ),
    "gamma.symmetric_variance K": (lambda x: gamma.symmetric_variance(_GP, x, 3), 1),
    "gamma.generalized_subround k": (lambda x: gamma.generalized_subround(_GG, x, 2), 1),
    "gamma.generalized_subround h": (lambda x: gamma.generalized_subround(_GG, 2, x), 1),
    "posterior.ObservationSet M": (
        lambda x: posterior.ObservationSet(x, [[0.5]], [0]), 0
    ),
    "posterior.ObservationSet counts": (
        lambda x: posterior.ObservationSet(3, [[0.5]], x), 0
    ),
    "posterior.sample_bernoulli_data M": (
        lambda x: posterior.sample_bernoulli_data(_PRIOR, x, _S), 0
    ),
    "posterior._concentration M": (lambda x: posterior._concentration(1.0, x, 5), 0),
    "posterior._concentration K": (lambda x: posterior._concentration(1.0, 2, x), 0),
    "posterior.resample_observed_jumps m": (
        lambda x: posterior.resample_observed_jumps(1.0, 2, x, 5, _S, 3), 0
    ),
    "posterior.resample_observed_jumps K": (
        lambda x: posterior.resample_observed_jumps(1.0, 2, [1, 2], x, _S, 3), 0
    ),
    "posterior.resample_observed_jumps draws": (
        lambda x: posterior.resample_observed_jumps(1.0, 2, [1, 2], 5, _S, x), 0
    ),
    "posterior.sample_new_jumps K": (
        lambda x: posterior.sample_new_jumps(1.0, 2, x, _S, 3), 0
    ),
    "posterior.sample_new_jumps draws": (
        lambda x: posterior.sample_new_jumps(1.0, 2, 5, _S, x), 0
    ),
    "posterior.resample_truncated_expectation m_i": (
        lambda x: posterior.resample_truncated_expectation(1.0, 2, x, 5), 0
    ),
    "truncation.beta_l1_error K": (lambda x: truncation.beta_l1_error(_BP, x), 0),
    "truncation.beta_marginal_bound M": (
        lambda x: truncation.beta_marginal_bound(_BP, 2, x), 1
    ),
    "truncation.stick_breaking_bounds K": (
        lambda x: truncation.stick_breaking_bounds(2.0, 1.5, x, 3), 0
    ),
    "truncation.stick_breaking_bounds M": (
        lambda x: truncation.stick_breaking_bounds(2.0, 1.5, 3, x), 1
    ),
    "truncation.beta_table K_max": (lambda x: truncation.beta_table(_BP, x, 3), 0),
    "truncation.beta_table M": (lambda x: truncation.beta_table(_BP, 3, x), 1),
    "truncation.gamma_table K_max": (lambda x: truncation.gamma_table(2.0, x, 3), 0),
    "truncation.gamma_l1_error K": (lambda x: truncation.gamma_l1_error(x, 3), 1),
    "truncation.gamma_expected_atoms K": (
        lambda x: truncation.gamma_expected_atoms(2.0, x, 3), 1
    ),
    "truncation.crossover_ranges K_max": (lambda x: truncation.crossover_ranges(2.0, x), 0),
    "verify.decomposition_density_partial_sum beta K": (
        lambda x: verify.decomposition_density_partial_sum("beta", {"c": 2.0}, 0.3, x), 0
    ),
    "verify.decomposition_density_partial_sum stable-beta K": (
        lambda x: verify.decomposition_density_partial_sum(
            "stable-beta", {"c": 2.0, "sigma": 0.3}, 0.3, x
        ),
        0,
    ),
    "verify.decomposition_density_partial_sum gamma K": (
        lambda x: verify.decomposition_density_partial_sum("gamma", {"theta": 1}, 0.3, x, 4), 1
    ),
    "verify.decomposition_density_partial_sum gamma H": (
        lambda x: verify.decomposition_density_partial_sum("gamma", {"theta": 1}, 0.3, 4, x), 1
    ),
}


def _canon(obj):
    """A comparable form of a library result that tells an int from a float."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return tuple(map(_canon, obj))
    if isinstance(obj, dict):
        return tuple((k, _canon(v)) for k, v in obj.items())
    if dataclasses.is_dataclass(obj):
        return _canon([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    if hasattr(type(obj), "__slots__"):
        return _canon([getattr(obj, name) for name in type(obj).__slots__])
    return type(obj).__name__, repr(obj)


@pytest.mark.parametrize("name", list(INTEGER_PARAMETERS))
def test_integer_parameters_share_one_rule(name):
    call, low = INTEGER_PARAMETERS[name]
    # a fraction, a bool, NaN, an infinity or a value below range is refused,
    # never truncated; inf is legal only as a sub-round cutoff H
    bad = [2.5, math.nan, -math.inf, True, np.True_, np.float64(0.5), low - 1]
    if not name.endswith("num_subrounds"):
        bad.append(math.inf)
    for x in bad:
        with pytest.raises(ValueError):
            call(x)
    with pytest.raises(ValueError, match=f"must be >= {low}$"):
        call(low - 1)
    # an int, a numpy integer and an integral float give the same result
    want = _canon(call(low + 1))
    assert _canon(call(np.int64(low + 1))) == want
    assert _canon(call(float(low + 1))) == want


def test_fractional_count_arrays_are_refused():
    locs = [[0.25], [0.75]]
    got = posterior.ObservationSet(3, locs, [1.0, 2.0]).counts
    assert got.dtype == np.int64 and got.tolist() == [1, 2]
    for counts in ([1.5, 2.0], [1.0, 2.9], [1, math.nan], [1, True], np.array([True, False])):
        with pytest.raises(ValueError):
            posterior.ObservationSet(3, locs, counts)
        with pytest.raises(ValueError):
            posterior.resample_observed_jumps(1.0, 3, counts, 5, _S, 2)
    with pytest.raises(ValueError, match="count must be >= 0"):
        posterior.ObservationSet(3, locs, [1, -1])
    want = posterior.resample_observed_jumps(1.0, 3, [1, 2], 5, _S, 4)
    for m in (np.array([1, 2]), [1.0, 2.0], np.array([1.0, 2.0], np.float32)):
        got = posterior.resample_observed_jumps(1.0, 3, m, 5, _S, 4)
        assert _canon(got) == _canon(want)
