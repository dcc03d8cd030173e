"""Scenario engines: tree/Monte Carlo construction, conditioning, measure tilts."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import scenarios as sc
from nebsde.errors import SupportMismatchError

EXACT = 1e-12


def test_time_grid_nodes():
    grid = sc.TimeGrid(2.0, 4)
    assert grid.dt == pytest.approx(0.5, abs=0)
    assert np.array_equal(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_tree_level_values_and_weights():
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 2), "tree")
    sq = math.sqrt(0.5)
    assert np.allclose(scen.tree_values[1], [-sq, sq], atol=EXACT)
    assert np.allclose(scen.tree_weights[1], [0.5, 0.5], atol=EXACT)
    assert np.allclose(scen.tree_values[2], [-2 * sq, 0.0, 2 * sq], atol=EXACT)
    assert np.allclose(scen.tree_weights[2], [0.25, 0.5, 0.25], atol=EXACT)
    assert sc.support_size(scen, 0) == 1
    assert sc.support_size(scen, 2) == 3


def test_tree_expectation_matches_path_enumeration():
    # Brute-force over all 2^m equiprobable up/down paths.
    m = 3
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    sq = math.sqrt(scen.grid.dt)
    fn = np.exp
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        total += fn(sum(signs) * sq)
    brute = total / 2.0**m
    rv = sc.from_terminal_function(scen, fn)
    assert abs(sc.expect(scen, rv) - brute) <= EXACT


def test_tree_terminal_moments(tree50):
    bt = sc.brownian_rv(tree50, 50)
    b2 = sc.RandomVariable(50, bt.values**2)
    assert abs(sc.expect(tree50, bt)) <= EXACT
    assert abs(sc.expect(tree50, b2) - 1.0) <= EXACT


def test_tree_tower_property(tree50):
    rv = sc.from_terminal_function(tree50, lambda b: np.maximum(b, 0.0) + 0.1 * b * b)
    via_mid = sc.cond_expect(tree50, sc.cond_expect(tree50, rv, 30), 10)
    direct = sc.cond_expect(tree50, rv, 10)
    assert np.max(np.abs(via_mid.values - direct.values)) <= EXACT
    assert abs(sc.expect(tree50, direct) - sc.expect(tree50, rv)) <= EXACT


def test_tree_step_z_of_brownian_is_one(tree50):
    z = sc.step_z(tree50, sc.brownian(tree50, 21), 20)
    assert np.max(np.abs(z - 1.0)) <= EXACT


def test_tree_tilted_expectation_closed_form(tree100):
    # Tilting by theta factorises into i.i.d. per-step tilts with mean
    # sqrt(dt) * tanh(theta * sqrt(dt)); at |theta| = 800, exp(theta * B_T)
    # alone would overflow.
    sq = math.sqrt(tree100.grid.dt)
    bt = sc.brownian_rv(tree100, 100)
    for theta in (-0.7, 0.3, 1.1, -800.0, 800.0):
        exact = 100 * sq * math.tanh(theta * sq)
        assert abs(sc.tilted_expect(tree100, theta, bt) - exact) <= EXACT


def test_tree_tilted_expectation_interior_level(tree50):
    sq = math.sqrt(tree50.grid.dt)
    bi = sc.brownian_rv(tree50, 13)
    exact = 13 * sq * math.tanh(0.4 * sq)
    assert abs(sc.tilted_expect(tree50, 0.4, bi) - exact) <= EXACT


def _chained_tilted_expect(scen, theta, rv):
    """The conditioning chain the tree closed form replaced: E[E_i[w] X]."""
    w = sc.cond_expect(scen, sc.girsanov_weights(scen, theta), rv.index)
    return sc.expect(scen, sc.RandomVariable(rv.index, w.values * rv.values))


@pytest.mark.parametrize("m", [8, 50, 400])
def test_tree_tilted_expectation_matches_conditioning_chain(m):
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    rng = np.random.default_rng(m)
    for theta in (-3.0, -0.5, 0.0, 0.3, 1.1, 5.0):
        for i in sorted({0, 1, m // 3, m - 1, m}):
            x = rng.normal(0.3, 1.0, i + 1) + np.sin(scen.tree_values[i])
            rv = sc.RandomVariable(i, x)
            # relative to the tilted mean of |X|, the scale of the sum
            size = _chained_tilted_expect(scen, theta, sc.RandomVariable(i, np.abs(x)))
            got = sc.tilted_expect(scen, theta, rv)
            assert abs(got - _chained_tilted_expect(scen, theta, rv)) <= 1e-12 * size, (theta, i)


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, 50),
    theta=st.floats(-40.0, 40.0),
    seed=st.integers(0, 2**32 - 1),
    cash=st.floats(-10.0, 10.0),
)
def test_tree_tilt_is_binomial_walk(tree50, index, theta, seed, cash):
    # An exponential tilt of the symmetric walk is the walk with up
    # probability p = 1 / (1 + exp(-2 theta sqrt(dt))).
    x = np.random.default_rng(seed).normal(0.0, 2.0, index + 1)
    rv = sc.RandomVariable(index, x)
    p = 1.0 / (1.0 + math.exp(-2.0 * theta * math.sqrt(tree50.grid.dt)))
    exact = binom.pmf(np.arange(index + 1), index, p) @ x
    got = sc.tilted_expect(tree50, theta, rv)
    scale = float(np.max(np.abs(x)))
    assert abs(got - exact) <= 1e-12 * scale
    lifted = sc.tilted_expect(tree50, theta, sc.RandomVariable(index, x + cash))
    assert abs(lifted - (got + cash)) <= 1e-12 * (scale + abs(cash))


def test_tilted_expect_kernel_array_matches_scalar_calls(tree50, mc50):
    kernels = np.array([-800.0, -3.0, -0.5, 0.0, 0.4, 1.1, 800.0])
    rng = np.random.default_rng(11)
    for scen in (tree50, mc50):
        for i in (0, 1, 17, 49, 50):
            x = rng.normal(0.3, 1.0, sc.support_size(scen, i))
            rv = sc.RandomVariable(i, x)
            got = sc.tilted_expect(scen, kernels, rv)
            assert got.shape == kernels.shape
            for theta, mean in zip(kernels, got):
                one = sc.tilted_expect(scen, float(theta), rv)
                assert isinstance(one, float)
                size = sc.tilted_expect(scen, float(theta), sc.RandomVariable(i, np.abs(x)))
                assert abs(mean - one) <= 1e-14 * size, (scen, i, theta)


TABLE_KERNELS = np.array([-800.0, -3.0, -0.5, 0.0, 0.3, 5.0, 800.0])


def _check_table_against_oracle(scen, i, oracle, rng):
    x = rng.normal(0.3, 1.0, sc.support_size(scen, i)) + np.sin(sc.brownian(scen, i))
    table = sc.tilt_table(scen, TABLE_KERNELS, i)
    assert table.shape == (TABLE_KERNELS.size, x.size)
    assert np.all(table >= 0.0)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-13
    got = sc.tilted_means(table, x)
    want = oracle(scen, TABLE_KERNELS, i, x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x)), i
    return x, got


@pytest.mark.parametrize("m", [8, 50, 400, 1100])
def test_tilt_table_matches_log_space_formula_on_the_tree(m, tilt_oracle):
    # The direct product w*exp(theta*(B - B*)), normalised, against the
    # per-call log-space formula.  At 1,100 levels the binomial weights of
    # the tail nodes underflow to 0 and kernel +-800 underflows the direct
    # product everywhere; the table keeps the limit: all mass on the
    # highest (lowest) node whose binomial weight is nonzero.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    rng = np.random.default_rng(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in sorted({0, 1, m // 3, m - 1, m}):
            x, got = _check_table_against_oracle(scen, i, tilt_oracle, rng)
            # kernels -800 and 800 come first and last
            carried = np.flatnonzero(scen.tree_weights[i])
            for mean, node in ((got[0], carried[0]), (got[-1], carried[-1])):
                assert abs(mean - x[node]) <= 1e-12 * np.max(np.abs(x)), (i, node)
    if m == 1100:
        # the limit is exercised: the tail weights underflow, and so does
        # kernel 800's direct product at every node
        w, b = scen.tree_weights[m], scen.tree_values[m]
        assert w[0] == w[-1] == 0.0
        assert np.sum(w * np.exp(800.0 * (b - b[-1]))) == 0.0


def test_tilt_table_matches_log_space_formula_on_paths(tilt_oracle):
    # On paths every row is one terminal Girsanov density, whatever the index.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 50), "montecarlo", n_paths=2000, seed=3)
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in (0, 1, 16, 49, 50):
            _check_table_against_oracle(scen, i, tilt_oracle, rng)
    assert np.array_equal(sc.tilt_table(scen, TABLE_KERNELS, 0),
                          sc.tilt_table(scen, TABLE_KERNELS, 50))


def test_girsanov_weights_renormalised(tree50, mc50):
    for scen in (tree50, mc50):
        w = sc.girsanov_weights(scen, 0.4)
        assert w.index == 50
        assert np.all(w.values > 0.0)
        assert abs(sc.expect(scen, w) - 1.0) <= 1e-10


def test_zero_tilt_is_plain_expectation(tree50):
    rv = sc.from_terminal_function(tree50, lambda b: b * b - b)
    assert abs(sc.tilted_expect(tree50, 0.0, rv) - sc.expect(tree50, rv)) <= EXACT


def test_mc_terminal_moments(mc50):
    bt = sc.RandomVariable(50, mc50.paths[:, 50].copy())
    b2 = sc.RandomVariable(50, mc50.paths[:, 50] ** 2)
    assert abs(sc.expect(mc50, bt)) <= 0.05
    assert abs(sc.expect(mc50, b2) - 1.0) <= 0.1


def test_mc_tilted_expectation(mc50):
    # Continuum value is theta * T; renormalised weights keep the estimate
    # within sampling error at 4000 paths.
    bt = sc.RandomVariable(50, mc50.paths[:, 50].copy())
    assert abs(sc.tilted_expect(mc50, 0.4, bt) - 0.4) <= 0.05


def test_mc_large_tilt_stays_finite():
    # exp(theta*B_T - theta^2*T/2) overflows at theta = 400; the weights are
    # formed from theta*(B_T - max(B_T)) <= 0 instead.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 50), "montecarlo", n_paths=2000, seed=5)
    bt = sc.RandomVariable(50, scen.paths[:, 50].copy())
    got = sc.tilted_expect(scen, 400.0, bt)
    assert sc.expect(scen, bt) < got <= float(np.max(bt.values))
    lifted = sc.tilted_expect(scen, 400.0, sc.RandomVariable(50, bt.values + 1.5))
    assert abs(lifted - (got + 1.5)) <= 1e-12 * (abs(got) + 1.5)


def test_huge_kernel_tilts_onto_the_extreme_node(tree50, mc50):
    # theta*(B - B*) overflows only to -inf, so a huge kernel's tilted mean is
    # its limit: the value at the top node (theta > 0) or the bottom one.
    for i in (1, 7, 50):
        x = np.cos(np.arange(i + 1.0))
        rv = sc.RandomVariable(i, x)
        assert sc.tilted_expect(tree50, 1e308, rv) == x[-1]
        assert sc.tilted_expect(tree50, -1e308, rv) == x[0]
        got = sc.tilted_expect(tree50, np.array([-1e308, 0.0, 1e308]), rv)
        assert got.tolist() == [x[0], sc.tilted_expect(tree50, 0.0, rv), x[-1]]
    bt = sc.RandomVariable(50, mc50.paths[:, 50].copy())
    for theta, path in ((1e308, np.argmax(bt.values)), (-1e308, np.argmin(bt.values))):
        w = sc.girsanov_weights(mc50, theta).values
        assert np.count_nonzero(w) == 1 and w[path] > 0.0
        got = sc.tilted_expect(mc50, theta, bt)
        assert abs(got - bt.values[path]) <= 1e-14 * abs(bt.values[path])


def test_mc_girsanov_weights_match_gaussian_density(mc50):
    b = mc50.paths[:, 50]
    raw = np.exp(0.4 * b - 0.5 * 0.4**2)
    w = sc.girsanov_weights(mc50, 0.4)
    assert np.max(np.abs(w.values / (raw / raw.mean()) - 1.0)) <= 1e-13


def test_mc_conditional_expectation_regression(mc50):
    # E[B_T | F_t] = B_t; polynomial regression recovers it up to basis error.
    bt = sc.RandomVariable(50, mc50.paths[:, 50].copy())
    ce = sc.cond_expect(mc50, bt, 25)
    assert ce.index == 25
    assert np.max(np.abs(ce.values - mc50.paths[:, 25])) <= 0.2
    assert abs(sc.expect(mc50, ce) - sc.expect(mc50, bt)) <= 1e-9


def _normal_equation_projection(scen, i, target):
    """The projection the standardised least-squares fit replaced.

    Unscaled powers of ``B_i`` and ridge-regularised normal equations; the
    ridge also covers the degenerate design at ``i = 0``.
    """
    b = scen.paths[:, i]
    a = b[:, None] ** np.arange(scen.basis_degree + 1)
    gram = a.T @ a
    gram[np.diag_indices_from(gram)] += 1e-10
    return a @ np.linalg.solve(gram, a.T @ target)


@pytest.mark.parametrize("m", [50, 1000])
@pytest.mark.parametrize("degree", [1, 3, 6])
def test_mc_projection_reproduces_polynomials(m, degree):
    # A polynomial of degree <= basis_degree in B_i is its own projection,
    # also where t_i is small; the quadratic term drops for a linear basis.
    scen = sc.build_scenarios(
        sc.TimeGrid(1.0, m), "montecarlo", n_paths=2000, seed=3, basis_degree=degree
    )
    for i in (1, 2, m // 2, m - 1):
        b = sc.brownian(scen, i)
        coefs = (1.0, 2.0, 3.0)[: degree + 1]
        v = sum(c * b**k for k, c in enumerate(coefs)) + 4.0 * b**degree
        size = float(np.max(np.abs(v)))
        got = sc.step_expect(scen, v, i)
        assert np.max(np.abs(got - v)) <= 1e-10 * size, (i, np.max(np.abs(got - v)) / size)
        mean_gap = sc.expect(scen, sc.RandomVariable(i, got)) - sc.expect(scen, sc.RandomVariable(i, v))
        assert abs(mean_gap) <= 1e-12 * size, (i, mean_gap)


def test_mc_projection_at_origin_is_mean(mc50):
    target = np.sin(sc.brownian(mc50, 1) * 3.0) + 2.0
    got = sc.step_expect(mc50, target, 0)
    assert np.all(got == target.mean())


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(1, 6),
    index=st.integers(0, 49),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1.0, 1e3]),
    wiggle=st.floats(0.0, 5.0),
)
def test_mc_projection_matches_normal_equations(mc50, degree, index, seed, noise, wiggle):
    # The oracle's ridge biases its fit where t_i**degree is small: at these
    # 4,000 paths, by 1.4e-9 relative at degree 4 and i = 1, and by 3.2e-7
    # at degree 6.  Where t_i**degree >= 1e-6 it stays near 1e-10.
    t = mc50.grid.nodes[index]
    assume(index == 0 or t**degree >= 1e-6)
    scen = dataclasses.replace(mc50, basis_degree=degree)
    rng = np.random.default_rng(seed)
    b_next = sc.brownian(scen, index + 1)
    target = (np.polyval(rng.normal(size=degree + 2), b_next) + np.sin(wiggle * b_next)
              + noise * rng.normal(size=b_next.size))
    size = float(np.max(np.abs(target)))
    got = sc.step_expect(scen, target, index)
    assert np.max(np.abs(got - _normal_equation_projection(scen, index, target))) <= 1e-9 * size
    assert np.max(np.abs(sc.step_expect(scen, got, index) - got)) <= 1e-12 * size
    basis = sc._basis(scen, index) if index else np.ones((target.size, 1))
    resid = basis.T @ (target - got)
    bound = 1e-12 * np.linalg.norm(basis, axis=0) * np.linalg.norm(target)
    assert np.all(np.abs(resid) <= bound), resid / bound


@pytest.mark.parametrize("offset, floor", [(0.5, 0.0), (2.0, 2.0)])
def test_mc_reflected_solve_matches_normal_equations(mc50, monkeypatch, offset, floor):
    # The mc-solve problem (y/z driver, linear loss); the claim b + 0.5 over
    # the floor 0 leaves the constraint slack, and b + 2 over the floor 2
    # binds it, since the driver pulls E[Y] down at about 0.3 per unit time.
    claim = bs.TerminalClaim.from_function(mc50, lambda b: b + offset)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
        lipschitz=0.3, depends_on_y=True, depends_on_z=True,
    )

    def solve():
        return pc.solve_reflected(
            mc50, claim, driver, rf.LossFunction.linear(floor), ne.NonlinearExpectation.classical()
        )

    got = solve()
    monkeypatch.setattr(sc, "_project", _normal_equation_projection)
    want = solve()
    for y, y_ref in zip(got.Y, want.Y):
        assert np.max(np.abs(y.values - y_ref.values)) <= 1e-9
    assert np.max(np.abs(got.K.values - want.K.values)) <= 1e-9
    assert (got.K.total > 0.0) == (floor > 0.0)


def _single_target_projection(scen, i, target):
    """The one-target fit the joint fit replaced: its own row-major basis, one
    Gram matrix per target, and the mean at ``i = 0``."""
    if i == 0:
        return np.full(target.shape, target.mean())
    x = scen.paths[:, i] / np.sqrt(scen.grid.nodes[i])
    a = np.empty((x.size, scen.basis_degree + 1))
    a[:, 0] = 1.0
    for k in range(1, scen.basis_degree + 1):
        np.multiply(a[:, k - 1], x, out=a[:, k])
    return a @ np.linalg.solve(a.T @ a, a.T @ target)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_joint_fit_matches_one_fit_per_target(degree):
    # Both targets of a step, E_i[Y_{i+1}] and Z_i, from one basis and one
    # Gram matrix, against one fit each; at i = 0 and where t_i is small.
    m = 1000
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "montecarlo", n_paths=3000, seed=5,
                              basis_degree=degree)
    for i in (0, 1, 2, 10, m // 2, m - 1):
        b_next = sc.brownian(scen, i + 1)
        v = np.sin(3.0 * b_next) + b_next**2 + 0.5
        target_z = v * (b_next - sc.brownian(scen, i)) / scen.grid.dt
        e, z = sc.step_fit(scen, v, i)
        for got, target in ((e, v), (z, target_z)):
            size = float(np.max(np.abs(target)))
            want = _single_target_projection(scen, i, target)
            assert np.max(np.abs(got - want)) <= 1e-12 * size, (i, np.max(np.abs(got - want)) / size)


def test_mc_solve_builds_one_basis_per_step(count_calls):
    # m steps project at indices m-1..1 (index 0 takes the mean): one basis
    # each, where one fit per target built two.
    m = 12
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "montecarlo", n_paths=500, seed=2)
    calls = count_calls(sc, "_basis")
    driver = bs.Driver(fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
                       lipschitz=0.3, depends_on_y=True, depends_on_z=True)
    bs.solve_bsde(scen, bs.TerminalClaim.from_function(scen, lambda b: b + 0.5), driver)
    assert calls[0] == m - 1


def test_tree_step_fit_is_the_two_steps(tree50):
    v = np.cos(sc.brownian(tree50, 31))
    e, z = sc.step_fit(tree50, v, 30)
    assert np.array_equal(e, sc.step_expect(tree50, v, 30))
    assert np.array_equal(z, sc.step_z(tree50, v, 30))


def test_mc_determinism():
    grid = sc.TimeGrid(1.0, 10)
    a = sc.build_scenarios(grid, "montecarlo", n_paths=200, seed=11)
    b = sc.build_scenarios(grid, "montecarlo", n_paths=200, seed=11)
    c = sc.build_scenarios(grid, "montecarlo", n_paths=200, seed=12)
    assert np.array_equal(a.paths, b.paths)
    assert not np.array_equal(a.paths, c.paths)


def test_brownian_rv_matches_stored_support(tree8):
    rv = sc.brownian_rv(tree8, 5)
    assert rv.index == 5
    assert np.array_equal(rv.values, tree8.tree_values[5])


def test_from_terminal_function_broadcasts_scalars(tree8):
    rv = sc.from_terminal_function(tree8, lambda b: 2.0)
    assert rv.index == 8
    assert np.array_equal(rv.values, np.full(9, 2.0))


def test_check_rv_rejects_wrong_support(tree8):
    with pytest.raises(SupportMismatchError):
        sc.check_rv(tree8, sc.RandomVariable(3, np.zeros(7)))


def test_random_variable_validation():
    with pytest.raises(ValueError):
        sc.RandomVariable(1, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sc.RandomVariable(1, np.array([]))
    with pytest.raises(ValueError):
        sc.RandomVariable(1, np.array([1.0, np.nan]))


def test_grid_and_builder_validation():
    with pytest.raises(ValueError):
        sc.TimeGrid(0.0, 5)
    with pytest.raises(ValueError):
        sc.TimeGrid(1.0, 0)
    grid = sc.TimeGrid(1.0, 5)
    with pytest.raises(ValueError):
        sc.build_scenarios(grid, "lattice")
    with pytest.raises(ValueError):
        sc.build_scenarios(grid, "montecarlo", n_paths=1)
    with pytest.raises(ValueError):
        sc.build_scenarios(grid, "montecarlo", n_paths=3, basis_degree=3)
    with pytest.raises(ValueError):
        sc.build_scenarios(grid, "montecarlo", n_paths=100, basis_degree=0)


def test_girsanov_weights_rejects_nonfinite_theta(tree8):
    with pytest.raises(ValueError):
        sc.girsanov_weights(tree8, float("inf"))
    with pytest.raises(ValueError):
        sc.tilted_expect(tree8, float("nan"), sc.brownian_rv(tree8, 3))
    with pytest.raises(ValueError):
        sc.tilted_expect(tree8, np.array([0.5, np.inf]), sc.brownian_rv(tree8, 3))
    with pytest.raises(ValueError):
        sc.tilted_expect(tree8, np.zeros((2, 2)), sc.brownian_rv(tree8, 3))
