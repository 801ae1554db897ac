"""Bayes-space algebra and clr transform: closed forms, identities, closure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayes_cpd import (
    DensityFunction,
    Grid,
    b_add,
    b_dist,
    b_inner,
    b_smul,
    beta_density,
    clr,
    clr_inv,
    first_moment,
    integrate,
    zero_avoid,
)
from bayes_cpd.density import ClrFunction, beta_pdf_values, normalize_rows
from bayes_cpd.errors import DomainError, NumericError, StructuralError

from helpers import b_mean, random_beta, random_density, uniform_density

shape_params = st.floats(min_value=1.5, max_value=40.0)
scalars = st.floats(min_value=-3.0, max_value=3.0)


class TestGrid:
    def test_nodes_span_unit_interval(self):
        g = Grid(64)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)
        np.testing.assert_allclose(np.diff(g.nodes), g.spacing, rtol=1e-12)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(StructuralError):
            Grid(15)

    def test_equality_is_by_node_count(self):
        assert Grid(64) == Grid(64)
        assert Grid(64) != Grid(65)


class TestIntegrate:
    def test_constant_one(self, grid):
        assert integrate(np.ones(grid.node_count), grid) == pytest.approx(1.0, abs=1e-12)

    def test_linear_closed_form(self, grid1025):
        # trapezoid is exact for 2x; refinement to 2049 nodes must agree
        assert integrate(2.0 * grid1025.nodes, grid1025) == pytest.approx(1.0, abs=1e-6)
        g2 = Grid(2049)
        assert integrate(2.0 * g2.nodes, g2) == pytest.approx(1.0, abs=1e-6)

    def test_quadratic_closed_form(self, grid1025):
        assert integrate(grid1025.nodes**2, grid1025) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_length_mismatch(self, grid):
        with pytest.raises(StructuralError):
            integrate(np.ones(grid.node_count - 1), grid)

    def test_non_finite(self, grid):
        values = np.ones(grid.node_count)
        values[3] = np.nan
        with pytest.raises(NumericError):
            integrate(values, grid)


class TestZeroAvoid:
    def test_uniform_is_fixed_point(self, grid):
        u = uniform_density(grid)
        np.testing.assert_allclose(zero_avoid(u).values, u.values, atol=1e-15)

    def test_affine_floor_at_zero_node(self, grid):
        values = beta_pdf_values(grid, 3.0, 3.0)
        values[10] = 0.0
        f = DensityFunction(grid, values / integrate(values, grid))
        out = zero_avoid(f)
        assert out.min_value() == pytest.approx(0.1, abs=1e-15)

    def test_unit_integral_preserved(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = beta_density(grid, rng.uniform(2, 30), rng.uniform(2, 30))
            assert integrate(zero_avoid(f).values, grid) == pytest.approx(1.0, abs=1e-9)


class TestBayesAdd:
    def test_uniform_is_neutral(self, grid):
        rng = np.random.default_rng(1)
        f = random_beta(grid, rng)
        np.testing.assert_allclose(b_add(f, uniform_density(grid)).values, f.values,
                                   atol=1e-12)

    def test_commutative(self, grid):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f, g = random_beta(grid, rng), random_beta(grid, rng)
            assert np.abs(b_add(f, g).values - b_add(g, f).values).max() < 1e-12

    def test_beta22_pair_gives_beta33(self, grid1025):
        f = beta_density(grid1025, 2.0, 2.0)
        out = b_add(f, f)
        target = beta_density(grid1025, 3.0, 3.0)
        assert np.abs(out.values - target.values).max() < 1e-8

    def test_grid_mismatch(self, grid, grid1025):
        with pytest.raises(StructuralError):
            b_add(beta_density(grid, 2, 2), beta_density(grid1025, 2, 2))


class TestBayesScalarMul:
    def test_one_is_identity(self, grid):
        rng = np.random.default_rng(3)
        f = random_beta(grid, rng)
        np.testing.assert_allclose(b_smul(1.0, f).values, f.values, atol=1e-12)

    def test_zero_gives_uniform(self, grid):
        rng = np.random.default_rng(4)
        f = random_beta(grid, rng)
        np.testing.assert_allclose(b_smul(0.0, f).values, uniform_density(grid).values,
                                   atol=1e-12)

    def test_two_on_beta22_gives_beta33(self, grid1025):
        out = b_smul(2.0, beta_density(grid1025, 2.0, 2.0))
        target = beta_density(grid1025, 3.0, 3.0)
        assert np.abs(out.values - target.values).max() < 1e-8

    def test_non_finite_scalar(self, grid):
        with pytest.raises(NumericError):
            b_smul(float("inf"), beta_density(grid, 2, 2))

    def test_negative_power_of_zero_valued_density(self, grid):
        values = beta_pdf_values(grid, 3.0, 3.0)
        values[5] = 0.0
        f = DensityFunction(grid, values / integrate(values, grid))
        with pytest.raises(NumericError):
            b_smul(-1.0, f)


class TestClr:
    def test_uniform_maps_to_zero(self, grid):
        assert np.abs(clr(uniform_density(grid)).values).max() < 1e-12

    def test_exponential_density_closed_form(self, grid1025):
        # f(x) = e^x / (e - 1)  =>  clr f = x - 1/2
        values = np.exp(grid1025.nodes) / (np.e - 1.0)
        f = DensityFunction(grid1025, values / integrate(values, grid1025))
        assert np.abs(clr(f).values - (grid1025.nodes - 0.5)).max() < 1e-8

    def test_additive_over_perturbation(self, grid):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f, g = random_density(grid, rng), random_density(grid, rng)
            lhs = clr(b_add(f, g)).values
            rhs = clr(f).values + clr(g).values
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_rejects_non_positive(self, grid):
        values = beta_pdf_values(grid, 3.0, 3.0)
        values[7] = 0.0
        f = DensityFunction(grid, values / integrate(values, grid))
        with pytest.raises(DomainError):
            clr(f)

    def test_zero_integral_invariant(self, grid):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = clr(random_density(grid, rng))
            assert abs(integrate(u.values, grid)) < 1e-6


class TestClrInv:
    def test_zero_maps_to_uniform(self, grid):
        u = ClrFunction(grid, np.zeros(grid.node_count))
        np.testing.assert_allclose(clr_inv(u).values, uniform_density(grid).values,
                                   atol=1e-15)

    def test_round_trip(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_beta(grid, rng)
            assert np.abs(clr_inv(clr(f)).values - f.values).max() < 1e-9

    def test_linear_clr_closed_form(self, grid1025):
        u = ClrFunction(grid1025, grid1025.nodes - 0.5)
        target_values = np.exp(grid1025.nodes) / (np.e - 1.0)
        target = target_values / integrate(target_values, grid1025)
        assert np.abs(clr_inv(u).values - target).max() < 1e-8

    def test_overflow_raises(self, grid):
        big = 1e4 * (grid.nodes - float(grid.weights @ grid.nodes))
        with pytest.raises(NumericError):
            clr_inv(ClrFunction(grid, big))


def _inner_product_double_integral(f, g):
    """Brute-force O(m^2) double-integral form of the Bayes inner product."""
    grid = f.grid
    lf, lg = np.log(f.values), np.log(g.values)
    df = lf[:, None] - lf[None, :]   # log f(t) - log f(s)
    dg = lg[:, None] - lg[None, :]
    w2 = np.outer(grid.weights, grid.weights)
    return 0.5 * float(np.sum(w2 * df * dg))


class TestBayesInner:
    def test_uniform_is_orthogonal_to_everything(self, grid):
        rng = np.random.default_rng(8)
        for _ in range(5):
            assert abs(b_inner(uniform_density(grid), random_density(grid, rng))) < 1e-12

    def test_norm_positive_definite(self, grid):
        rng = np.random.default_rng(9)
        f = random_beta(grid, rng)
        assert b_inner(f, f) > 0
        assert b_inner(uniform_density(grid), uniform_density(grid)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_double_integral_oracle(self, grid):
        rng = np.random.default_rng(10)
        for _ in range(5):
            f, g = random_beta(grid, rng), random_beta(grid, rng)
            fast = b_inner(f, g)
            slow = _inner_product_double_integral(f, g)
            assert fast == pytest.approx(slow, rel=1e-6)


class TestBayesMean:
    def test_idempotent_on_constant_sequence(self, grid):
        rng = np.random.default_rng(11)
        f = random_beta(grid, rng)
        out = b_mean([f] * 7)
        assert np.abs(out.values - f.values).max() < 1e-10

    def test_symmetric_pair(self, grid1025):
        out = b_mean([beta_density(grid1025, 2, 3), beta_density(grid1025, 3, 2)])
        assert np.abs(out.values - out.values[::-1]).max() < 1e-9

    def test_matches_direct_perturbation_chain(self, grid):
        rng = np.random.default_rng(12)
        densities = [random_beta(grid, rng) for _ in range(10)]
        acc = densities[0]
        for f in densities[1:]:
            acc = b_add(acc, f)
        direct = b_smul(1.0 / 10.0, acc)
        assert np.abs(b_mean(densities).values - direct.values).max() < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(StructuralError):
            b_mean([])


class TestIsometry:
    def test_distance_equals_clr_l2_distance(self, grid):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f, g = random_density(grid, rng), random_density(grid, rng)
            diff = clr(f).values - clr(g).values
            d_clr = float(np.sqrt(diff @ (grid.weights * diff)))
            assert b_dist(f, g) == pytest.approx(d_clr, rel=1e-8)

    @given(a=shape_params, b=shape_params, c=scalars)
    @settings(max_examples=25, deadline=None)
    def test_scalar_homogeneity(self, a, b, c):
        grid = Grid(128)
        f = zero_avoid(beta_density(grid, a, b))
        lhs = clr(b_smul(c, f)).values
        rhs = c * clr(f).values
        assert np.abs(lhs - rhs).max() < 1e-10


class TestClosure:
    @given(a1=shape_params, b1=shape_params, a2=shape_params, b2=shape_params)
    @settings(max_examples=25, deadline=None)
    def test_b_add_stays_in_space(self, a1, b1, a2, b2):
        grid = Grid(128)
        f = zero_avoid(beta_density(grid, a1, b1))
        g = zero_avoid(beta_density(grid, a2, b2))
        out = b_add(f, g)  # constructor re-validates positivity and integral
        assert out.min_value() > 0
        assert integrate(out.values, grid) == pytest.approx(1.0, abs=1e-6)

    @given(a=shape_params, b=shape_params, c=scalars)
    @settings(max_examples=25, deadline=None)
    def test_b_smul_stays_in_space(self, a, b, c):
        grid = Grid(128)
        out = b_smul(c, zero_avoid(beta_density(grid, a, b)))
        assert out.min_value() > 0
        assert integrate(out.values, grid) == pytest.approx(1.0, abs=1e-6)


class TestDensityType:
    def test_rejects_negative_values(self, grid):
        values = np.ones(grid.node_count)
        values[0] = -0.5
        with pytest.raises(DomainError):
            DensityFunction(grid, values / integrate(np.abs(values), grid))

    def test_rejects_integral_drift(self, grid):
        with pytest.raises(StructuralError):
            DensityFunction(grid, np.full(grid.node_count, 1.01))

    def test_clr_type_rejects_nonzero_integral(self, grid):
        with pytest.raises(StructuralError):
            ClrFunction(grid, np.ones(grid.node_count))

    def test_values_immutable(self, grid):
        f = beta_density(grid, 4, 4)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


def test_first_moment_symmetric_beta(grid):
    assert first_moment(beta_density(grid, 6, 6)) == pytest.approx(0.5, abs=1e-6)


def test_beta_density_endpoint_fill(grid):
    f = beta_density(grid, 5, 3)
    assert f.values[0] == f.values[1]
    assert f.values[-1] == f.values[-2]
    assert f.min_value() > 0


class TestBetaRows:
    def test_array_shapes_equal_stacked_scalar_calls(self, grid):
        rng = np.random.default_rng(21)
        a, b = rng.uniform(0.5, 40.0, (2, 25))
        rows = beta_pdf_values(grid, a, b)
        assert rows.shape == (25, grid.node_count)
        stacked = np.vstack([beta_pdf_values(grid, ai, bi) for ai, bi in zip(a, b)])
        assert rows.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan")])
    def test_non_positive_shape_in_array_rejected(self, grid, bad):
        with pytest.raises(DomainError):
            beta_pdf_values(grid, np.array([3.0, bad, 4.0]), np.full(3, 5.0))

    def test_normalized_rows_match_beta_density(self, grid):
        a, b = np.array([2.5, 9.0, 30.0]), np.array([7.0, 9.0, 3.5])
        rows = normalize_rows(grid, beta_pdf_values(grid, a, b))
        for row, ai, bi in zip(rows, a, b):
            assert row.tobytes() == beta_density(grid, ai, bi).values.tobytes()
