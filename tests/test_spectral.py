import math

import numpy as np
import pytest
import scipy.linalg

import semidim as sd
from semidim.errors import (
    DegenerateGrid,
    EigenvalueRealPartTooSmall,
    IllConditionedBasis,
    NotSquare,
    ScalingConstantOutOfRange,
)

ROTATION = np.array([[0.75, -1.0], [1.0, 0.75]])


def scaling_operator_series(m, s: float, terms: int = 60) -> np.ndarray:
    """Literal power series for s^E; oracle for small ||log(s) E||."""
    x = math.log(s) * np.asarray(m, dtype=float)
    out = np.eye(x.shape[0])
    term = np.eye(x.shape[0])
    for n in range(1, terms + 1):
        term = term @ x / n
        out = out + term
    return out
JORDAN_HALF = np.array([[0.5, 1.0], [0.0, 0.5]])


def random_valid_exponent(rng, d_max=6):
    """Diagonalizable exponent with well-separated real parts, conjugated by
    a moderately conditioned similarity.  Defective exponents are exercised
    separately in triangular form, where eigenvalues are computed exactly:
    conjugating a Jordan block scatters its eigenvalue real parts by about
    sqrt(machine eps), astride the 1e-8 clustering tolerance."""
    d = int(rng.integers(1, d_max + 1))
    blocks, used = [], 0
    while used < d:
        rem = d - used
        kind = rng.choice(["scalar", "rotation", "repeat"]) if rem >= 2 else "scalar"
        if kind == "rotation":
            blocks.append(np.array([[0.0, -rng.uniform(0.2, 2.0)], [rng.uniform(0.2, 2.0), 0.0]]))
            blocks[-1][1, 0] = -blocks[-1][0, 1]
            used += 2
        elif kind == "repeat":
            k = int(rng.integers(2, rem + 1))
            blocks.append(np.zeros((k, k)))
            used += k
        else:
            blocks.append(np.zeros((1, 1)))
            used += 1
    parts = np.cumsum(rng.uniform(0.05, 0.8, size=len(blocks))) + rng.uniform(0.5, 1.0)
    rng.shuffle(parts)
    mats = [b + a * np.eye(b.shape[0]) for b, a in zip(blocks, parts)]
    m = scipy.linalg.block_diag(*mats)
    basis = rng.normal(size=(d, d))
    while np.linalg.cond(basis) > 20:
        basis = rng.normal(size=(d, d))
    return basis @ m @ np.linalg.inv(basis)


def rotated(t, seed):
    """t conjugated by a seeded random rotation: as non-normal as t, but with
    no zero pattern left for the decomposition to lean on."""
    t = np.asarray(t, dtype=float)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal(t.shape))
    q = q * np.sign(np.diag(r))
    return q @ t @ q.T


def rotated_triangular(seed, d, coupling):
    """Random upper-triangular exponent, real parts in [0.6, 2], couplings of
    size `coupling`, rotated."""
    rng = np.random.default_rng(seed)
    t = np.triu(rng.normal(scale=coupling, size=(d, d)), 1) + np.diag(rng.uniform(0.6, 2.0, size=d))
    return rotated(t, seed)


class TestValidateExponent:
    def test_diagonal_valid(self):
        spec = sd.validate_exponent(np.diag([0.5, 1.0]), 2.0)
        assert spec.d == 2
        assert sorted(spec.eigenvalues.real) == [0.5, 1.0]

    def test_real_part_below_half_rejected(self):
        with pytest.raises(EigenvalueRealPartTooSmall) as err:
            sd.validate_exponent(np.diag([0.4, 1.0]), 2.0)
        assert abs(err.value.eigenvalue.real - 0.4) < 1e-12

    def test_rotation_block_valid(self):
        spec = sd.validate_exponent(ROTATION, 3.0)
        assert np.allclose(sorted(spec.eigenvalues.real), [0.75, 0.75])

    def test_scaling_constant_must_exceed_one(self):
        with pytest.raises(ScalingConstantOutOfRange):
            sd.validate_exponent(np.diag([0.5]), 1.0)
        with pytest.raises(ScalingConstantOutOfRange):
            sd.validate_exponent(np.diag([0.5]), 0.5)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            sd.validate_exponent(np.zeros((2, 3)), 2.0)

    def test_json_round_trip(self):
        spec = sd.validate_exponent(np.diag([0.5, 1.0]), 2.0)
        again = sd.ExponentSpec.from_json(spec.to_json())
        assert np.array_equal(again.matrix, spec.matrix)
        assert again.c == spec.c


class TestDecompose:
    def test_diagonal_two_blocks(self):
        dec = sd.decompose(sd.validate_exponent(np.diag([0.5, 1.0]), 2.0))
        assert dec.p == 2
        assert [(b.a, b.alpha, b.d) for b in dec.blocks] == [(0.5, 2.0, 1), (1.0, 1.0, 1)]

    def test_jordan_single_block(self):
        dec = sd.decompose(sd.validate_exponent(JORDAN_HALF, 2.0))
        assert dec.p == 1
        assert (dec.blocks[0].a, dec.blocks[0].alpha, dec.blocks[0].d) == (0.5, 2.0, 2)

    def test_rotation_single_block(self):
        dec = sd.decompose(sd.validate_exponent(ROTATION, 3.0))
        assert dec.p == 1
        b = dec.blocks[0]
        assert b.d == 2
        assert abs(b.alpha - 4.0 / 3.0) < 1e-12

    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            e = random_valid_exponent(rng)
            spec = sd.validate_exponent(e, 2.0)
            dec = sd.decompose(spec)
            block = scipy.linalg.block_diag(*[b.matrix for b in dec.blocks])
            recon = dec.change_of_basis @ block @ dec.change_of_basis_inv
            assert np.max(np.abs(recon - e)) < 1e-10
            alphas = dec.alphas
            assert all(a > b for a, b in zip(alphas, alphas[1:]))
            assert all(0 < a <= 2.0 + 1e-12 for a in alphas)
            assert sum(dec.block_dims) == spec.d

    def test_invariant_subspaces(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            e = random_valid_exponent(rng)
            spec = sd.validate_exponent(e, 2.0)
            dec = sd.decompose(spec)
            for j in range(dec.p):
                proj = dec.projector(j)
                leak = (np.eye(spec.d) - proj) @ e @ proj
                assert np.max(np.abs(leak)) < 1e-10 * max(1.0, np.max(np.abs(e)))


    @pytest.mark.parametrize("name", sorted(sd.builtin_scenarios()))
    def test_builtin_decompositions_bitwise(self, name):
        # every builtin exponent is block diagonal already: its basis is the
        # unit basis and its blocks are its own diagonal blocks, bit for bit,
        # which keeps every report and random stream as it is
        spec = sd.builtin_scenarios()[name].spec
        dec = spec.decomposition
        assert dec.change_of_basis.tobytes() == np.eye(spec.d).tobytes()
        start = 0
        for b in dec.blocks:
            assert b.matrix.tobytes() == spec.matrix[start : start + b.d, start : start + b.d].tobytes()
            start += b.d

    @pytest.mark.parametrize(
        "m",
        [
            [[1e300, 1e300], [0.0, 0.5]],
            [[0.5, 1e300], [0.0, 1e300]],
            [[0.5, 1e300], [0.0, 0.75]],
            [[0.5, 1e300, 1e300], [0.0, 1e300, 1e300], [0.0, 0.0, 2e300]],
            [[1e300, 1e300, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 0.5]],
            rotated([[0.6, 1e6, 0.3], [0.0, 0.7, 0.2], [0.0, 0.0, 1.3]], 1),
            rotated([[0.6, 1e3, 0.3], [0.0, 0.7, 0.2], [0.0, 0.0, 1.3]], 1),
            *[rotated_triangular(seed, 4, coupling) for seed in range(4) for coupling in (1.0, 30.0)],
        ],
    )
    def test_hostile_magnitudes_decouple_or_raise(self, m):
        e = np.array(m)
        spec = sd.validate_exponent(e, 2.0)
        try:
            dec = sd.decompose(spec)
        except IllConditionedBasis:
            return
        for j in range(dec.p):
            proj = dec.projector(j)
            leak = (np.eye(spec.d) - proj) @ e @ proj
            assert np.max(np.abs(leak)) < 1e-10 * max(1.0, np.max(np.abs(e)))

    def test_decomposition_lazy_and_kept(self):
        # close real parts joined by a large coupling: the basis is too
        # ill-conditioned, which only the decomposition itself reports
        spec = sd.validate_exponent(np.array([[0.6, 1e6], [0.0, 0.6 + 1e-7]]), 2.0)
        with pytest.raises(IllConditionedBasis):
            spec.decomposition
        spec = sd.validate_exponent(np.diag([0.5, 1.0]), 2.0)
        assert spec.decomposition is spec.decomposition


class TestScalingOperator:
    def test_identity_at_one(self):
        spec = sd.validate_exponent(np.diag([0.5, 1.0]), 2.0)
        assert np.array_equal(sd.scaling_operator(spec, 1.0), np.eye(2))

    def test_diagonal_powers(self):
        spec = sd.validate_exponent(np.diag([0.5, 1.0]), 2.0)
        assert np.allclose(sd.scaling_operator(spec, 4.0), np.diag([2.0, 4.0]), atol=1e-12)

    def test_matches_eigendecomposition_oracle(self):
        # independent oracle: V diag(s^lambda) V^{-1} for a matrix with
        # distinct real eigenvalues
        rng = np.random.default_rng(3)
        v = rng.normal(size=(3, 3))
        while np.linalg.cond(v) > 10:
            v = rng.normal(size=(3, 3))
        lam = np.array([0.6, 1.1, 1.7])
        e = v @ np.diag(lam) @ np.linalg.inv(v)
        s = 2.7
        oracle = v @ np.diag(s**lam) @ np.linalg.inv(v)
        assert np.max(np.abs(sd.scaling_operator(e, s) - oracle)) < 1e-9

    def test_series_oracle(self):
        for s in (0.5, 1.3, 2.0):
            got = sd.scaling_operator(ROTATION, s)
            ref = scaling_operator_series(ROTATION, s)
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_semigroup(self):
        rng = np.random.default_rng(4)
        spec = sd.validate_exponent(random_valid_exponent(rng, 4), 2.0)
        for s, t in [(0.002, 700.0), (3.0, 5.0), (0.1, 0.1)]:
            lhs = sd.scaling_operator(spec, s) @ sd.scaling_operator(spec, t)
            rhs = sd.scaling_operator(spec, s * t)
            rel = np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs)))
            assert rel < 1e-9

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            sd.scaling_operator(ROTATION, 0.0)


class TestNormGrowthFit:
    GRID = np.geomspace(1e-6, 1.0, 40)

    def test_scalar_block_exact(self):
        fit = sd.norm_growth_fit(np.array([[0.5]]), self.GRID)
        assert abs(fit.slope - 0.5) < 1e-9

    def test_rotation_block(self):
        fit = sd.norm_growth_fit(ROTATION, self.GRID)
        assert abs(fit.slope - 0.75) < 0.02

    def test_jordan_block_logarithmic_bias(self):
        fit = sd.norm_growth_fit(JORDAN_HALF, self.GRID)
        assert 0.4 <= fit.slope <= 0.52

    def test_degenerate_grid(self):
        with pytest.raises(DegenerateGrid):
            sd.norm_growth_fit(ROTATION, np.array([0.5, 0.5]))
        with pytest.raises(DegenerateGrid):
            sd.norm_growth_fit(ROTATION, np.geomspace(0.01, 1.0, 40))  # < 4 decades
