import collections
import hashlib
import json
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.stats

from semidim import (
    BlockLaw,
    LawKind,
    derive_rng,
    get_scenario,
    run_scenario,
    sample_isotropic_stable_2d,
    sample_one_sided_stable,
    sample_semistable_increment,
    sample_stable_increment,
)
from semidim.errors import AlphaOutOfRange, BudgetExceeded, DegenerateSample, TruncationTooCoarse
from semidim.laws import (
    CHUNK,
    DEFAULT_K_MIN,
    PathBuffers,
    _guide,
    _invert,
    _step_plan,
    _Table,
    check_truncation,
    compensation_std,
    semistable_atom_range,
)
from semidim.paths import sample_marginal, simulate_path
from semidim.spectral import validate_exponent


def reference_semistable_increment(alpha, c, dt, rng, k_min, n):
    """The former Poisson-plus-binomial kernel: per atom k a Poisson(dt*c^-k)
    jump count, split into signs by a Binomial(count, 1/2) draw."""
    ks, lam = semistable_atom_range(c, dt, k_min, n_samples=n)
    heights = np.power(float(c), ks.astype(float) / alpha)
    common = lam >= 1e-3
    h_common = heights[common]
    lam_common = lam[common]
    out = np.zeros(n)
    chunk = max(1, 2**22 // max(1, h_common.size))
    for i in range(0, n, chunk):
        m = min(chunk, n - i)
        if h_common.size:
            counts = rng.poisson(lam_common, size=(m, h_common.size))
            net = np.zeros_like(counts)
            nz = counts.nonzero()
            net[nz] = 2 * rng.binomial(counts[nz], 0.5) - counts[nz]
            out[i : i + m] = net @ h_common
        for k_idx in np.flatnonzero(~common):
            total = rng.poisson(m * lam[k_idx])
            if total:
                where = rng.integers(i, i + m, size=total)
                signs = 2 * rng.integers(0, 2, size=total) - 1
                np.add.at(out, where, signs * heights[k_idx])
    out += compensation_std(alpha, c, dt, k_min) * rng.standard_normal(n)
    return out


def textbook_cms(u, w, alpha, shift):
    """The CMS expression sin(alpha (u + shift)) / cos(u)^(1/alpha)
    * (cos((1 - alpha) u - alpha shift) / w)^((1 - alpha)/alpha), one
    temporary per operation, in the dtype of u and w."""
    alpha, shift = u.dtype.type(alpha), u.dtype.type(shift)
    return np.sin(alpha * (u + shift)) / np.cos(u) ** (1 / alpha) * (np.cos((1 - alpha) * u - alpha * shift) / w) ** ((1 - alpha) / alpha)


def reference_stable_increment(alpha, scale, rng, size):
    u = rng.uniform(-math.pi / 2, math.pi / 2, size=size)
    w = rng.exponential(1.0, size=size)
    return scale * textbook_cms(u, w, alpha, 0.0)


def reference_one_sided_stable(gamma, rng, size):
    u = rng.uniform(-math.pi / 2, math.pi / 2, size=size)
    w = rng.exponential(1.0, size=size)
    return textbook_cms(u, w, gamma, math.pi / 2)


def tangent_pair(r, u):
    """r (1 - tau^2, 2 tau) / (1 + tau^2), tau = tan(pi (u - 1/2)), shape
    (size, 2): the tangent Box-Muller pair of radius r, one temporary per
    operation."""
    tau = np.tan(math.pi * (u - 0.5))
    q = r / (1.0 + tau * tau)
    return np.stack([(1.0 - tau * tau) * q, 2.0 * tau * q], axis=-1)


def reference_isotropic_stable_2d(alpha, scale, rng, size):
    a = 1.0 if alpha == 2.0 else reference_one_sided_stable(alpha / 2.0, rng, size)
    w = rng.exponential(1.0, size=size)
    r = 2.0 * scale * np.sqrt(a * w)
    return tangent_pair(r, rng.random(size))


# rows of a chunk of the CMS kernel, whose scratch takes 4 values a row; a
# slot grows by half as many values, CHUNK // 8
CMS_ROWS = CHUNK // 4
# a few draws, a slot grain and one more, a chunk of the in-place chains and
# one more, and several grains and chunks
IN_PLACE_SIZES = [1, 5, CMS_ROWS // 2 + 1, CMS_ROWS + 1, 3 * CMS_ROWS // 2 - 7, 3 * CMS_ROWS - 7]


def per_row_steps(size):
    return 0.1 + derive_rng(7, f"test/in-place/steps/{size}").random(size)


def step_scales(scale, alpha, steps):
    """The scale of each variate of a draw at ``scale`` with one time step
    per variate in ``steps``, or ``scale`` itself when ``steps`` is None."""
    return scale if steps is None else scale * steps ** (1 / alpha)


# The kernel takes its sines and cosines from tangents, so a draw matches the
# textbook expression on the same stream to a few ulps, amplified by the
# exponents 1/alpha and (1 - alpha)/alpha and by angles near +-pi/2; a
# different draw would miss by far more.
CMS_RTOL = 1e-12


class TestInPlaceSamplers:
    """The in-place samplers draw the textbook's stream to within
    ``CMS_RTOL``, and bit for bit the same values on fresh arrays and on
    buffers left dirty by a larger draw."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 2.0])
    @pytest.mark.parametrize("size", IN_PLACE_SIZES)
    def test_stable_increment(self, alpha, size):
        buffers = PathBuffers()
        sample_stable_increment(0.7, 1.0, derive_rng(1, "dirty"), size=4 * CMS_ROWS, _buffers=buffers)
        for steps in (None, per_row_steps(size)):
            want = reference_stable_increment(alpha, step_scales(1.7, alpha, steps), derive_rng(1, f"cms/{alpha}"), size)
            fresh = sample_stable_increment(alpha, 1.7, derive_rng(1, f"cms/{alpha}"), size=size, _steps=steps)
            np.testing.assert_allclose(fresh, want, rtol=CMS_RTOL, atol=0.0)
            lent = sample_stable_increment(alpha, 1.7, derive_rng(1, f"cms/{alpha}"), size=size, _buffers=buffers, _steps=steps)
            assert lent.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("gamma", [0.25, 0.6, 0.95])
    @pytest.mark.parametrize("size", IN_PLACE_SIZES)
    def test_one_sided_stable(self, gamma, size):
        buffers = PathBuffers()
        sample_one_sided_stable(0.5, derive_rng(1, "dirty"), size=4 * CMS_ROWS, _buffers=buffers)
        want = reference_one_sided_stable(gamma, derive_rng(2, f"one-sided/{gamma}"), size)
        fresh = sample_one_sided_stable(gamma, derive_rng(2, f"one-sided/{gamma}"), size=size)
        np.testing.assert_allclose(fresh, want, rtol=CMS_RTOL, atol=0.0)
        lent = sample_one_sided_stable(gamma, derive_rng(2, f"one-sided/{gamma}"), size=size, _buffers=buffers)
        assert lent.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 2.0])
    @pytest.mark.parametrize("size", IN_PLACE_SIZES)
    def test_isotropic_stable_2d(self, alpha, size):
        buffers = PathBuffers()
        sample_isotropic_stable_2d(0.7, 1.0, derive_rng(1, "dirty"), size=4 * CMS_ROWS, _buffers=buffers)
        for steps in (None, per_row_steps(size)):
            want = reference_isotropic_stable_2d(alpha, step_scales(1.7, alpha, steps), derive_rng(3, f"iso/{alpha}"), size)
            fresh = sample_isotropic_stable_2d(alpha, 1.7, derive_rng(3, f"iso/{alpha}"), size=size, _steps=steps)
            np.testing.assert_allclose(fresh, want, rtol=CMS_RTOL, atol=0.0)
            lent = sample_isotropic_stable_2d(alpha, 1.7, derive_rng(3, f"iso/{alpha}"), size=size, _buffers=buffers, _steps=steps)
            assert lent.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.SFC64])
    @pytest.mark.parametrize(
        "size", [CMS_ROWS // 2 - 1, CMS_ROWS // 2, CMS_ROWS // 2 + 1, CMS_ROWS - 1, CMS_ROWS, CMS_ROWS + 1, CMS_ROWS + 3, 2 * CMS_ROWS + 3]
    )
    @pytest.mark.parametrize(
        "sampler, reference",
        [
            (lambda rng, size: sample_stable_increment(1.2, 1.7, rng, size=size), lambda rng, size: reference_stable_increment(1.2, 1.7, rng, size)),
            (lambda rng, size: sample_one_sided_stable(0.6, rng, size=size), lambda rng, size: reference_one_sided_stable(0.6, rng, size)),
            (lambda rng, size: sample_isotropic_stable_2d(1.2, 1.7, rng, size=size), lambda rng, size: reference_isotropic_stable_2d(1.2, 1.7, rng, size)),
        ],
        ids=["stable", "one-sided", "isotropic"],
    )
    def test_chunked_draws_keep_the_stream(self, sampler, reference, size, bit_generator):
        # a sampler draws its exponentials, and the isotropic one then its
        # pairs' exponentials and uniforms, a chunk at a time; its values and
        # the generator's next draw are those of the textbook order (all
        # uniforms, then all exponentials, then all the pairs' exponentials,
        # then all their uniforms), whatever the bit generator
        got_rng, want_rng = (np.random.Generator(bit_generator(12345)) for _ in range(2))
        got, want = sampler(got_rng, size), reference(want_rng, size)
        np.testing.assert_allclose(got, want, rtol=CMS_RTOL, atol=0.0)
        assert got_rng.random() == want_rng.random()

    def test_public_draws_are_the_callers(self):
        first = sample_stable_increment(1.2, 1.0, derive_rng(5, "own"), size=100)
        kept = first.copy()
        sample_stable_increment(1.2, 1.0, derive_rng(6, "own"), size=100)
        assert first.tobytes() == kept.tobytes()


class ForcedDraws:
    """Stands in for a Generator in the CMS samplers and the isotropic
    sampler's pairs: ``random`` hands out the uniforms r and
    ``standard_exponential`` the exponentials w, each in successive slices,
    as a generator's stream would."""

    def __init__(self, r, w):
        self.r, self.w = r, w
        self.at_r = self.at_w = 0

    def random(self, out):
        out[...] = self.r[self.at_r : self.at_r + out.size].reshape(out.shape)
        self.at_r += out.size
        return out

    def standard_exponential(self, out):
        out[...] = self.w[self.at_w : self.at_w + out.size].reshape(out.shape)
        self.at_w += out.size
        return out


def forced_draws():
    """The uniforms at and next to 0 and 1 (angles at and next to +-pi/2),
    each beside extreme and plain exponentials, then 4096 random pairs."""
    r_tail = np.array([0.0, 2.0**-53, 2.0**-52, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
    w_tail = np.array([2.0**-53, 1e-6, 1.0, 36.7])
    rng = derive_rng(8, "test/cms/accuracy")
    r = np.concatenate([np.repeat(r_tail, w_tail.size), rng.random(4096)])
    w = np.concatenate([np.tile(w_tail, r_tail.size), rng.standard_exponential(4096)])
    return r, w


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant, reason="longdouble is float64 here")
@pytest.mark.parametrize(
    "alpha, shift",
    [(a, 0.0) for a in (0.05, 0.2, 0.5, 1.0, 1.2, 1.9, 2.0)] + [(g, math.pi / 2) for g in (0.05, 0.1, 0.25, 0.6, 0.95)],
)
def test_cms_accuracy_against_the_longdouble_textbook(alpha, shift):
    # the samplers' largest relative error against the textbook expression
    # evaluated in 80-bit long double on the same float64 draws is at most 3x
    # that of the same expression evaluated in float64, tail draws included
    r, w = forced_draws()
    u = -math.pi / 2 + math.pi * r  # numpy's uniform(-pi/2, pi/2)
    with np.errstate(all="ignore"):
        if shift:
            got = sample_one_sided_stable(alpha, ForcedDraws(r, w), size=r.size)
        else:
            got = sample_stable_increment(alpha, 1.0, ForcedDraws(r, w), size=r.size)
        exact = textbook_cms(u.astype(np.longdouble), w.astype(np.longdouble), alpha, shift)
        textbook = textbook_cms(u, w, alpha, shift)
    # where float64 gets the textbook's zeros and finite values, so do the samplers
    assert np.all(got[(exact == 0) & (textbook == 0)] == 0)
    inside = (np.abs(exact) >= np.finfo(np.float64).tiny) & (np.abs(exact) <= np.finfo(np.float64).max)
    inside &= np.isfinite(textbook)
    assert np.isfinite(got[inside]).all()

    def worst(x, keep):
        return float(np.max(np.abs((x[keep] - exact[keep]) / exact[keep])))

    # over all draws, and over the random ones alone, whose error the tails
    # (near u = -pi/2 both evaluations of the one-sided law miss by O(1)) hide
    bulk = inside & (np.arange(r.size) >= r.size - 4096)
    assert worst(got, inside) <= 3.0 * worst(textbook, inside)
    assert worst(got, bulk) <= 3.0 * worst(textbook, bulk)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant, reason="longdouble is float64 here")
def test_tangent_pairs_against_the_longdouble_cosine_and_sine():
    # at alpha = 2 (A = 1) the sampler's vectors are 2 sqrt(W') (cos theta,
    # sin theta), theta = pi (2 U' - 1); against that form evaluated in 80-bit
    # long double on the same float64 draws, each row misses by at most
    # 1e-14 |X|.  A bound per component cannot hold: near a zero component the
    # rounding of theta is a large share of it
    r, w = forced_draws()
    got = sample_isotropic_stable_2d(2.0, 1.0, ForcedDraws(r, w), size=r.size)
    pi = 4 * np.arctan(np.longdouble(1))
    theta = pi * (2 * r.astype(np.longdouble) - 1)
    exact = 2 * np.sqrt(w.astype(np.longdouble))[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    miss = np.hypot(*(got - exact).T.astype(np.float64))
    assert np.all(miss <= 1e-14 * np.hypot(*exact.T.astype(np.float64)))


def test_float64_tan_within_4_ulps_of_math_tan():
    # the CMS kernel takes every sine and cosine from np.tan, so its accuracy
    # rests on this; the points include the 64 floats below pi/2 and their negatives
    below = [math.pi / 2]
    for _ in range(64):
        below.append(math.nextafter(below[-1], 0.0))
    x = np.concatenate(
        [below, np.negative(below), np.linspace(-math.pi / 2, math.pi / 2, 10001), derive_rng(9, "tan").uniform(-math.pi / 2, math.pi / 2, 10**5), [0.0, 5e-324, 1e-300, 1e-8]]
    )
    want = np.array([math.tan(v) for v in x.tolist()])
    ulps = np.abs(np.tan(x) - want) / np.spacing(np.abs(want))
    assert np.all(np.isfinite(want)) and ulps.max() <= 4.0


@pytest.mark.parametrize("alpha", [0.05, 0.2])
def test_small_alpha_draws_raise_no_warning(alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(4):
            rng = derive_rng(seed, f"test/cms/warnings/{alpha}")
            sample_stable_increment(alpha, 1.0, rng, size=2**16)
            sample_one_sided_stable(alpha, rng, size=2**16)
            sample_isotropic_stable_2d(alpha, 1.0, rng, size=2**16)


class CountingGenerator:
    """A Generator whose method calls are counted by name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, collections.Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


class TestStableSampler:
    def test_gaussian_variance(self):
        # moment oracle: scale-1 CMS at alpha=2 is N(0, 2)
        rng = derive_rng(1, "test/cms/gauss")
        x = sample_stable_increment(2.0, 1.0, rng, size=10**6)
        assert abs(x.var() - 2.0) < 0.02
        assert abs(x.mean()) < 0.01

    def test_cauchy_quartiles(self):
        # quantile oracle: standard Cauchy quartiles at +-1
        rng = derive_rng(1, "test/cms/cauchy")
        x = sample_stable_increment(1.0, 1.0, rng, size=10**6)
        q1, q3 = np.quantile(x, [0.25, 0.75])
        assert abs(q1 + 1.0) < 0.01
        assert abs(q3 - 1.0) < 0.01

    def test_heavy_tail_index(self):
        # tail-index regression oracle over x in [10, 1e4]
        rng = derive_rng(1, "test/cms/tail")
        x = sample_stable_increment(0.7, 1.0, rng, size=10**6)
        grid = np.array([10.0, 100.0, 1000.0, 10000.0])
        tails = np.array([(np.abs(x) > g).mean() for g in grid])
        slope = np.polyfit(np.log(grid), np.log(tails), 1)[0]
        assert abs(slope + 0.7) < 0.05

    def test_scale_parameter(self):
        rng = derive_rng(1, "test/cms/scale")
        x = sample_stable_increment(2.0, 3.0, rng, size=10**5)
        assert abs(x.var() - 18.0) < 0.5

    def test_alpha_range(self):
        rng = derive_rng(1, "x")
        with pytest.raises(AlphaOutOfRange):
            sample_stable_increment(2.5, 1.0, rng, size=1)
        with pytest.raises(AlphaOutOfRange):
            sample_stable_increment(0.0, 1.0, rng, size=1)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda scale, rng: sample_stable_increment(1.5, scale, rng, size=3),
            lambda scale, rng: sample_isotropic_stable_2d(1.5, scale, rng, size=3),
        ],
        ids=["stable", "isotropic"],
    )
    def test_scale_must_be_finite_and_positive(self, draw, scale):
        # a NaN or infinite scale would make NaN or infinite variates; the
        # one-sided sampler takes no scale, and BlockLaw's check is the same
        with pytest.raises(ValueError):
            draw(scale, derive_rng(1, "x"))


class TestOneSidedStable:
    def test_laplace_transform(self):
        # oracle: E exp(-lam A) = exp(-lam^gamma)
        rng = derive_rng(2, "test/onesided")
        for gamma in (0.4, 0.75):
            a = sample_one_sided_stable(gamma, rng, size=4 * 10**5)
            assert np.all(a > 0)
            for lam in (0.5, 1.0, 2.0):
                got = np.mean(np.exp(-lam * a))
                want = np.exp(-(lam**gamma))
                assert abs(got - want) < 0.004


class TestIsotropicSampler:
    def test_marginal_matches_cms(self):
        rng = derive_rng(3, "test/iso")
        v = sample_isotropic_stable_2d(1.5, 1.0, rng, size=2 * 10**5)
        w = sample_stable_increment(1.5, 1.0, rng, size=2 * 10**5)
        ks = scipy.stats.ks_2samp(v[:, 0], w).statistic
        assert ks < 1.36 * np.sqrt(2.0 / (2 * 10**5)) * 2.0

    def test_rotation_invariance(self):
        rng = derive_rng(3, "test/iso/rot")
        v = sample_isotropic_stable_2d(1.2, 1.0, rng, size=2 * 10**5)
        theta = 0.73
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        ks = scipy.stats.ks_2samp((v @ rot.T)[:, 0], v[:, 0]).statistic
        assert ks < 1.36 * np.sqrt(2.0 / (2 * 10**5)) * 2.0

    def test_alpha_two_is_gaussian(self):
        rng = derive_rng(3, "test/iso/g")
        v = sample_isotropic_stable_2d(2.0, 1.0, rng, size=10**5)
        assert abs(v[:, 0].var() - 2.0) < 0.05
        assert abs(v[:, 1].var() - 2.0) < 0.05

    def test_alpha_two_pairs_are_exponential_radii_at_uniform_angles(self):
        # oracle for the pair kernel: at alpha = 2, X = 2 scale sqrt(W') (cos, sin)
        # of an angle uniform on (-pi, pi), so |X|^2 / (4 scale^2) ~ Exp(1), and
        # the two components are uncorrelated
        n, scale = 10**5, 1.7
        v = sample_isotropic_stable_2d(2.0, scale, derive_rng(3, "test/iso/pairs"), size=n)
        # the KS statistics' critical value at level 0.001, 1.95 / sqrt(n)
        radius = np.sum(v * v, axis=1) / (4.0 * scale**2)
        assert scipy.stats.kstest(radius, "expon").statistic < 1.95 / math.sqrt(n)
        angle = np.arctan2(v[:, 1], v[:, 0])
        assert scipy.stats.kstest(angle, "uniform", args=(-math.pi, 2.0 * math.pi)).statistic < 1.95 / math.sqrt(n)
        # the standard error of a sample correlation of independent components is 1 / sqrt(n)
        assert abs(np.corrcoef(v[:, 0], v[:, 1])[0, 1]) < 4.0 / math.sqrt(n)


class TestSemistableSampler:
    def test_discrete_scaling_identity(self):
        # KS oracle on X(c*dt) =d c^(1/alpha) X(dt) at alpha=1, c=2
        rng = derive_rng(4, "test/semi/ks")
        a = sample_semistable_increment(1.0, 2.0, 1.0, rng, size=10**5)
        b = sample_semistable_increment(1.0, 2.0, 0.5, rng, size=10**5)
        ks = scipy.stats.ks_2samp(a, 2.0 * b).statistic
        assert ks < 0.02

    def test_truncation_depth_stability(self):
        # deepening k_min from -20 to -30 moves the 99% quantile by < 0.5%;
        # both depths draw from the same stream, so the atoms they share get
        # identical draws and only the truncation differs
        u = sample_semistable_increment(
            1.0, 2.0, 1.0, derive_rng(4, "test/semi/kmin"), k_min=-20, size=10**5
        )
        v = sample_semistable_increment(
            1.0, 2.0, 1.0, derive_rng(4, "test/semi/kmin"), k_min=-30, size=10**5
        )
        q20 = np.quantile(np.abs(u), 0.99)
        q30 = np.quantile(np.abs(v), 0.99)
        assert abs(q20 - q30) / q30 < 0.005

    @pytest.mark.parametrize("dt", [2.0**-14, 1.0])
    def test_matches_reference_kernel(self, dt):
        # two-sample KS of the two-Poisson kernel against the former
        # Poisson-plus-binomial one, which samples the same law
        n = 2 * 10**5
        a = sample_semistable_increment(1.0, 2.0, dt, derive_rng(4, "test/semi/new"), size=n)
        b = reference_semistable_increment(
            1.0, 2.0, dt, derive_rng(4, "test/semi/reference"), k_min=DEFAULT_K_MIN, n=n
        )
        ks = scipy.stats.ks_2samp(a, b).statistic
        assert ks < 1.36 * np.sqrt(2.0 / n) * 2.0

    @pytest.mark.parametrize("draw_size", [2**16, 20], ids=["table", "two-poisson"])
    def test_each_branch_matches_reference_kernel(self, draw_size):
        # at dt = 2^-16 one draw of 2^16 inverts every frequent atom's net
        # count on its table; draws of 20 are too small for a table, so every
        # frequent atom draws two Poisson vectors
        n, dt = 2**16, 2.0**-16
        rng = derive_rng(4, f"test/semi/branch/{draw_size}")
        a = np.concatenate([sample_semistable_increment(1.0, 2.0, dt, rng, size=draw_size) for _ in range(-(-n // draw_size))])
        b = reference_semistable_increment(1.0, 2.0, dt, derive_rng(4, "test/semi/branch/reference"), k_min=DEFAULT_K_MIN, n=n)
        ks = scipy.stats.ks_2samp(a, b).statistic
        assert ks < 1.36 * np.sqrt(1.0 / a.size + 1.0 / n) * 2.0

    def test_rare_atoms_in_runs_match_reference_kernel(self):
        # at c = 1.25 the rare intensities sum to about 4.1, so the rare atoms
        # are drawn in three runs (one Poisson total each) of about 2n jumps
        n, c, dt, k_min = 2**16, 1.25, 2.0**-8, -40
        rng = CountingGenerator(derive_rng(4, "test/semi/runs"))
        a = sample_semistable_increment(1.0, c, dt, rng, k_min=k_min, size=n)
        assert rng.calls["poisson"] == 3
        b = reference_semistable_increment(1.0, c, dt, derive_rng(4, "test/semi/runs/reference"), k_min=k_min, n=n)
        assert scipy.stats.ks_2samp(a, b).statistic < 1.36 * np.sqrt(2.0 / n) * 2.0

    @pytest.mark.parametrize("size", [2**16, 20])
    def test_generator_calls_scale_with_frequent_atoms(self, size):
        # one Poisson total for all rare atoms, then one uniform vector per
        # group of table atoms (one group of all ten on the lattice
        # c^(1/alpha) = 2) or one Poisson vector of 2n (two counts) per
        # frequent atom; a walk over the rare atoms one by one would make
        # more calls than this
        dt = 2.0**-16
        _, lam = semistable_atom_range(2.0, dt, DEFAULT_K_MIN, n_samples=size)
        frequent = int(np.count_nonzero(lam >= 1.0))
        rng = CountingGenerator(derive_rng(4, "test/semi/calls"))
        sample_semistable_increment(1.0, 2.0, dt, rng, size=size)
        table = size == 2**16
        assert frequent == 10 and lam.size - frequent > frequent + 4
        assert rng.calls["poisson"] == (1 if table else 1 + frequent)
        assert rng.calls["random"] == (1 + 1 if table else 1)
        assert sum(rng.calls.values()) <= frequent + 4

    def test_per_row_steps_take_one_set_of_generator_calls(self):
        # one draw for all the steps: two or 500 distinct steps between the
        # same shortest and longest make the same generator calls
        n, law = 1000, BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0)
        calls = []
        for dt in (np.where(np.arange(n) % 2, 1.0, 2.0**-8), np.geomspace(2.0**-8, 1.0, n // 2).repeat(2)):
            rng = CountingGenerator(derive_rng(4, "test/semi/rows/calls"))
            law.sample_increments(dt, n, rng)
            calls.append(rng.calls)
        assert calls[0] == calls[1]

    @pytest.mark.parametrize("k_min", [DEFAULT_K_MIN, -12])
    def test_per_row_steps_match_scalar_draws_and_reference_kernel(self, k_min):
        # rows at three interleaved steps in one draw; each step's rows are
        # increments over that step, as a scalar draw and the reference say.
        # k_min = -12 is as shallow as the shortest step allows: there the
        # compensation Gaussian is half the increment scale at that step
        n, steps = 2 * 10**4, (2.0**-10, 2.0**-4, 1.0)
        dt = np.tile(steps, n)
        rows = sample_semistable_increment(1.0, 2.0, dt, derive_rng(4, "test/semi/rows"), k_min=k_min, size=dt.size)
        threshold = 1.36 * np.sqrt(2.0 / n) * 2.0
        for step in steps:
            scalar = sample_semistable_increment(1.0, 2.0, step, derive_rng(4, f"test/semi/rows/{step}"), k_min=k_min, size=n)
            reference = reference_semistable_increment(
                1.0, 2.0, step, derive_rng(4, f"test/semi/rows/reference/{step}"), k_min=k_min, n=n
            )
            assert scipy.stats.ks_2samp(rows[dt == step], scalar).statistic < threshold, step
            assert scipy.stats.ks_2samp(rows[dt == step], reference).statistic < threshold, step

    def test_per_row_rare_atoms_in_runs(self):
        # at c = 1.25 the rare atoms at the longest step 2^-8 make three runs,
        # one Poisson total each, with per-row steps as with a scalar one;
        # every frequent atom draws one Poisson vector of two counts a row
        # (the shorter step, 0.75 * 2^-8, is as short as k_min = -40 allows)
        n, c, k_min = 2**16, 1.25, -40
        dt = np.where(np.arange(n) % 2, 2.0**-8, 0.75 * 2.0**-8)
        _, lam = semistable_atom_range(c, 2.0**-8, k_min, n_samples=n)
        rng = CountingGenerator(derive_rng(4, "test/semi/rows/runs"))
        a = sample_semistable_increment(1.0, c, dt, rng, k_min=k_min, size=n)
        assert rng.calls["poisson"] == 3 + np.count_nonzero(lam >= 1.0)
        b = reference_semistable_increment(1.0, c, 2.0**-8, derive_rng(4, "test/semi/rows/runs/reference"), k_min=k_min, n=n // 2)
        assert scipy.stats.ks_2samp(a[dt == 2.0**-8], b).statistic < 1.36 * np.sqrt(4.0 / n) * 2.0

    def test_rare_atoms_symmetric(self):
        # at dt = 2^-14 the atoms of height >= 1/16 fire below intensity 1e-3
        # and take the sparse branch; about 390 of them land in 2*10^5
        # samples, too few for the KS test, so check their signs directly
        x = sample_semistable_increment(
            1.0, 2.0, 2.0**-14, derive_rng(4, "test/semi/rare"), size=2 * 10**5
        )
        tail = x[np.abs(x) > 0.05]
        assert tail.size > 200
        assert abs(np.count_nonzero(tail > 0) - tail.size / 2) < 2.0 * np.sqrt(tail.size)

    def test_rejects_zero_dt(self):
        rng = derive_rng(4, "x")
        with pytest.raises(ValueError):
            sample_semistable_increment(1.0, 2.0, 0.0, rng, size=1)

    @pytest.mark.parametrize("dt", [-1.0, float("nan"), float("inf"), np.array([0.5, np.nan])])
    def test_rejects_bad_dt(self, dt):
        # a NaN step is a bad input, not a truncation too coarse for it
        rng = derive_rng(4, "x")
        with pytest.raises(ValueError):
            sample_semistable_increment(1.0, 2.0, dt, rng, size=2)

    def test_truncation_too_coarse(self):
        rng = derive_rng(4, "x")
        with pytest.raises(TruncationTooCoarse):
            sample_semistable_increment(1.0, 2.0, 2.0**-10, rng, k_min=-5, size=4)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("c", [1.5, 2.0, 10.0])
    def test_truncation_guard_matches_the_direct_test(self, alpha, c):
        # sigma > dt^(1/alpha) / 2, tested in log space, decides as the direct
        # comparison does wherever that one is computable
        for k_min in range(-60, 5):
            for e in range(0, 40, 3):
                dt = 2.0**-e
                direct = compensation_std(alpha, c, dt, k_min) > 0.5 * dt ** (1.0 / alpha)
                try:
                    check_truncation(alpha, c, dt, k_min)
                    guarded = False
                except TruncationTooCoarse:
                    guarded = True
                assert guarded == direct, (k_min, e)

    @pytest.mark.parametrize(
        "alpha, c, k_min, error",
        [
            (1.0, 2.0, 10**6, TruncationTooCoarse),  # q^k_min beyond float64
            (1.0, 2.0, -(10**400), BudgetExceeded),  # k_min beyond float64
            (1.0, 2.0, -(10**12), BudgetExceeded),  # atom means beyond numpy's Poisson limit
            (1.0, 1.0 + 2**-40, -(10**14), BudgetExceeded),  # c near 1: as deep, past the Poisson limit
            (1.0, 1.0 + 2**-40, -(4 * 10**13), BudgetExceeded),  # c near 1: passes both k_min tests, then 10^14 atoms
            (1e-300, 2.0, -25, DegenerateSample),  # c^(k/alpha) beyond float64
        ],
    )
    def test_extreme_laws_raise_input_errors(self, alpha, c, k_min, error):
        # an error may come at load, from the law, or from the sampler
        spec = validate_exponent(np.array([[1.0 / alpha]]), c)
        with pytest.raises(error):
            law = BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=alpha, c=c, k_min=k_min)
            simulate_path(spec, (law,), 4, seed=0)

    def test_poisson_limit_checked_at_load_and_in_the_sampler(self):
        # the atom k_min fires dt c^(-k_min) / 2 times on average, which
        # numpy's Poisson sampler draws up to about 9.2e18 = 2^63 - 3e10
        spec = validate_exponent(np.array([[1.0]]), 2.0)
        with pytest.raises(BudgetExceeded):
            BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0, k_min=-64)
        law = BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0, k_min=-63)
        assert np.isfinite(sample_marginal(spec, (law,), 1.0, 20, seed=1)).all()
        with pytest.raises(BudgetExceeded):
            sample_semistable_increment(1.0, 2.0, 2.0, derive_rng(1, "x"), k_min=-63, size=20)

    def test_alpha_strictly_below_two(self):
        rng = derive_rng(4, "x")
        with pytest.raises(AlphaOutOfRange):
            sample_semistable_increment(2.0, 2.0, 1.0, rng, size=1)


def table_atoms(alpha, c, dt, k_min, n):
    """The frequent atoms of a draw of n at step dt, from the largest height
    down: (height, mean of each Poisson count), as the sampler sets them."""
    ks, lam = semistable_atom_range(c, dt, k_min, n_samples=n)
    frequent = lam >= 1.0
    return list(zip(np.power(float(c), ks.astype(float) / alpha)[frequent], 0.5 * lam[frequent]))[::-1]


def group_atoms(alpha, c, dt, k_min, n):
    """Each group of the plan of a draw of n at step dt, with its atoms from
    the largest height down, matched by the group's value range."""
    atoms, out = table_atoms(alpha, c, dt, k_min, n), []
    for group in _step_plan(alpha, c, dt, k_min, n, True).groups:
        if not isinstance(group, _Table):
            out.append((group, [atoms.pop(0)]))
            continue
        # the group's atoms run down to the one whose height is its unit
        unit = group.values[group.values.size // 2 + 1]
        size = next(i for i, (height, _) in enumerate(atoms) if height == unit) + 1
        out.append((group, atoms[:size]))
        del atoms[:size]
    assert not atoms
    return out


# (alpha, c): c^(1/alpha) = 2, 4 and 3 make a lattice
LATTICE_LAWS = [(1.0, 2.0), (0.5, 2.0), (1.0, 3.0)]
# (alpha, c, dt): c^(1/alpha) = 2^(2/3) and 1.25 make none; frequent atoms at dt
NON_LATTICE_LAWS = [(1.5, 2.0, 2.0**-16), (1.0, 1.25, 2.0**-8)]
# SHA-256 of non-lattice draws recorded before frequent atoms were grouped
# (every group has one atom): (alpha, c, dt, k_min, n) -> digest of a draw
# on derive_rng(5, f"test/semi/pin/{alpha}/{c}/{n}")
NON_LATTICE_PINS = {
    (1.5, 2.0, 2.0**-16, -40, 2**16): "1717334843059d99cedebac84438617c7c34499dba542f68f3835fdd70fb8dfd",
    (1.0, 1.25, 2.0**-8, -40, 2**16): "07d9fab8de5c8f5072eb3db95c6a30e41434b5af2098de4207ed94c0daa6a9b2",
    (1.5, 2.0, 2.0**-10, -40, 2**10): "3226240ee8c44cb6ec2266accf65ab42ccca48053814b9b2db1043ba07586e11",
}


class TestGroupedDraw:
    @pytest.mark.parametrize("alpha, c, dt, n", [(0.5, 2.0, 2.0**-10, 2**10)] + [(*law, 2**16) for law in NON_LATTICE_LAWS])
    def test_a_group_of_one_is_the_net_count_table(self, alpha, c, dt, n):
        # at (0.5, 2, 2^-10) a draw of 2^10 groups its four table atoms as
        # three and one, and that one is a group of one
        singles = 0
        for group, atoms in group_atoms(alpha, c, dt, -40, n):
            if isinstance(group, _Table) and len(atoms) == 1:
                (height, mu), singles = atoms[0], singles + 1
                # less the ends, symmetric, whose CDF is below 1e-30
                pmf = net_count_pmf(mu)
                cut = int(np.searchsorted(np.cumsum(pmf), 1e-30))
                cdf = np.cumsum(pmf[cut : pmf.size - cut])
                top = cdf.size // 2
                assert cut > 0 and np.array_equal(group.cum, cdf)
                assert np.array_equal(group.values, height * np.arange(-top, top + 1))
        assert singles >= 1
        if (alpha, c, dt) in NON_LATTICE_LAWS:
            assert all(len(atoms) == 1 for _, atoms in group_atoms(alpha, c, dt, -40, n))

    @pytest.mark.parametrize("alpha, c", LATTICE_LAWS)
    @pytest.mark.parametrize("dt", [2.0**-16, 2.0**-10])
    def test_group_pmf_is_the_convolution_of_its_atoms(self, alpha, c, dt):
        # brute force: each atom's net-count pmf spread out to its spacing
        # (zero-stuffed) in units of the group's smallest height, convolved;
        # the group's table leaves out ends that hold below 1e-30 a trim, one
        # after each join and one at the end
        q, joined = round(c ** (1.0 / alpha)), 0
        for group, atoms in group_atoms(alpha, c, dt, -40, 2**16):
            if not isinstance(group, _Table):
                continue
            joined += len(atoms) > 1
            pmf = np.ones(1)
            for m, (_, mu) in enumerate(atoms[::-1]):
                atom = np.diff(net_count_table(mu), prepend=0.0)
                spread = np.zeros(q**m * (atom.size - 1) + 1)
                spread[:: q**m] = atom
                pmf = np.convolve(pmf, spread)
            cut = (pmf.size - group.cum.size) // 2
            assert pmf.size - group.cum.size == 2 * cut >= 0
            assert pmf[:cut].sum() < 1e-30 * len(atoms) and pmf[pmf.size - cut :].sum() < 1e-30 * len(atoms)
            np.testing.assert_allclose(np.diff(group.cum, prepend=0.0), pmf[cut : pmf.size - cut], rtol=0.0, atol=1e-15)
            top = group.cum.size // 2
            assert np.array_equal(group.values, atoms[-1][0] * np.arange(-top, top + 1))
            assert not any(array.flags.writeable for array in group)
        assert joined >= 1

    @pytest.mark.parametrize("alpha, c", LATTICE_LAWS)
    @pytest.mark.parametrize("dt", [2.0**-16, 2.0**-10])
    @pytest.mark.parametrize("n", [2**10, 2**16, 2**20])
    def test_group_tables_hold_at_most_the_entry_cap(self, alpha, c, dt, n):
        # a group grows while its joined table, before its trim, holds at
        # most min(n, 2^15) entries; a trim only shortens it
        tables = [group for group in _step_plan(alpha, c, dt, DEFAULT_K_MIN, n, True).groups if isinstance(group, _Table)]
        assert tables and all(table.cum.size <= min(n, 2**15) for table in tables)

    def test_stpetersburg_plan_is_one_table(self):
        # the builtin's draws of 2^16 at dt = 2^-16: its ten frequent atoms
        # make one group
        law = get_scenario("stpetersburg-interval").laws[0]
        plan = _step_plan(law.alpha, law.c, 2.0**-16, law.k_min, 2**16, True)
        assert len(plan.groups) == 1 and plan.groups[0].cum.size == 25057
        assert len(group_atoms(law.alpha, law.c, 2.0**-16, law.k_min, 2**16)[0][1]) == 10

    @pytest.mark.parametrize("alpha, c, dt, k_min, n", sorted(NON_LATTICE_PINS))
    def test_non_lattice_draws_pinned(self, alpha, c, dt, k_min, n):
        x = sample_semistable_increment(alpha, c, dt, derive_rng(5, f"test/semi/pin/{alpha}/{c}/{n}"), k_min=k_min, size=n)
        assert hashlib.sha256(x.tobytes()).hexdigest() == NON_LATTICE_PINS[alpha, c, dt, k_min, n]

    @pytest.mark.parametrize("alpha, c", LATTICE_LAWS)
    @pytest.mark.parametrize("dt", [2.0**-16, 2.0**-10])
    def test_lattice_draws_match_reference_kernel(self, alpha, c, dt):
        n = 2**16
        tag = f"{alpha}/{c}/{dt}"
        a = sample_semistable_increment(alpha, c, dt, derive_rng(4, f"test/semi/lattice/{tag}"), size=n)
        b = reference_semistable_increment(alpha, c, dt, derive_rng(4, f"test/semi/lattice/reference/{tag}"), k_min=DEFAULT_K_MIN, n=n)
        assert scipy.stats.ks_2samp(a, b).statistic < 1.36 * np.sqrt(2.0 / n) * 2.0

    def test_threads_share_the_plans(self):
        # the box paths' workers draw on one cache of read-only plans, built
        # afresh here by whichever worker asks first; a short switch interval
        # interleaves the workers' builds and draws
        sc = get_scenario("stpetersburg-interval")
        reports, interval = [], sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for threads in (1, 3):
                _step_plan.cache_clear()
                report = run_scenario(sc, 20260809, threads=threads).as_dict()
                report.pop("runtime_seconds")
                reports.append(json.dumps(report, sort_keys=True))
        finally:
            sys.setswitchinterval(interval)
        assert reports[0] == reports[1]


class TestBlockLaw:
    @pytest.mark.parametrize("kind", list(LawKind))
    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf"), np.array([0.5, np.nan]), np.array([0.5, -0.5]), np.ones(3)])
    def test_bad_steps_rejected(self, kind, dt):
        # every law raises one ValueError for a step that is not positive and
        # finite, or not one per increment
        law = BlockLaw(kind, alpha=1.5, c=2.0)
        with pytest.raises(ValueError):
            law.sample_increments(dt, 2, derive_rng(5, "x"))

    def test_dict_round_trip(self):
        law = BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0, k_min=-20)
        again = BlockLaw.from_dict(law.as_dict())
        assert again == law

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0)  # missing c
        with pytest.raises(AlphaOutOfRange):
            BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=2.0, c=2.0)
        with pytest.raises(ValueError):
            BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.0, scale=0.0)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            (LawKind.STABLE_SYMMETRIC, "scale", float("nan")),
            (LawKind.STABLE_SYMMETRIC, "scale", float("inf")),
            (LawKind.SEMISTABLE_DISCRETE, "c", float("nan")),
            (LawKind.SEMISTABLE_DISCRETE, "c", float("inf")),
        ],
    )
    def test_non_finite_scale_and_c_rejected(self, kind, field, value):
        # NaN fails both ``scale <= 0`` and ``c <= 1``; the law must still not load
        fields = {"alpha": 1.0, "c": 2.0} | {field: value}
        with pytest.raises(ValueError):
            BlockLaw(kind, **fields)

    def test_increment_shapes(self):
        rng = derive_rng(5, "test/shapes")
        semistable = BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.5, c=2.0)
        for dt in (0.1, np.array([0.1, 0.2, 0.1, 0.05, 0.1, 0.2, 0.4])):  # one step, or one per increment
            assert BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.5).sample_increments(dt, 7, rng).shape == (7,)
            assert BlockLaw(LawKind.STABLE_ISOTROPIC_2D, alpha=1.5).sample_increments(dt, 7, rng).shape == (7, 2)
            assert semistable.sample_increments(dt, 7, rng).shape == (7,)


def net_count_pmf(mu):
    """pmf of N+ - N- for independent N+, N- ~ Poisson(mu), each over the
    counts mu +- (12 sqrt(mu) + 30), as the sampler built each frequent
    atom's table before the atoms were grouped: the reference of a group of
    one."""
    reach = 12.0 * np.sqrt(mu) + 30.0
    lo, hi = int(max(np.floor(mu - reach), 0.0)), int(np.ceil(mu + reach))
    log_p = np.concatenate(([0.0], np.cumsum(np.log(mu / np.arange(lo + 1, hi + 1)))))
    p = np.exp(log_p - log_p.max())
    p /= p.sum()
    return np.convolve(p, p[::-1])


def net_count_table(mu):
    """The CDF of a frequent atom's net count at mean mu, ends and all."""
    return np.cumsum(net_count_pmf(mu))


def probes(cum):
    """u at every edge and one ulp either side, 0, just below and at the top,
    and uniforms, all inside [0, cum[-1]]."""
    top = cum[-1]
    edges = cum[:-1]
    u = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [0.0, np.nextafter(top, 0.0), top]]
    )
    u = np.concatenate([u, derive_rng(6, "test/invert").random(10**4) * top])
    return u[(u >= 0.0) & (u <= top)]


class TestGuideInversion:
    @pytest.mark.parametrize("mu", [0.5 * 2**k for k in range(10)])
    def test_equals_searchsorted_on_net_count_tables(self, mu):
        cdf = net_count_table(mu)
        u = probes(cdf)
        assert np.array_equal(_invert(cdf, u, _guide(cdf)), np.searchsorted(cdf[:-1], u, side="right"))

    @pytest.mark.parametrize("c, dt", [(2.0, 2.0**-16), (2.0, 1.0), (1.25, 2.0**-8), (10.0, 0.5)])
    def test_equals_searchsorted_on_rare_intensities(self, c, dt):
        _, lam = semistable_atom_range(c, dt, DEFAULT_K_MIN, n_samples=2**16)
        cum = np.cumsum(lam[lam < 1.0][::-1])
        u = probes(cum)
        assert np.array_equal(_invert(cum, u, _guide(cum)), np.searchsorted(cum[:-1], u, side="right"))

    @pytest.mark.parametrize("alpha, c", LATTICE_LAWS)
    @pytest.mark.parametrize("dt, n", [(2.0**-16, 2**16), (2.0**-10, 2**16), (2.0**-10, 2**10)])
    def test_prebuilt_guide_equals_searchsorted_on_group_tables(self, alpha, c, dt, n):
        plan = _step_plan(alpha, c, dt, DEFAULT_K_MIN, n, True)
        for table in plan.rare + tuple(group for group in plan.groups if isinstance(group, _Table)):
            u = probes(table.cum)
            assert np.array_equal(_invert(table.cum, u, table.guide), np.searchsorted(table.cum[:-1], u, side="right"))

    @pytest.mark.parametrize(
        "cum",
        [
            [0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 5.0],
            [1e-300, 1e-300, 0.5, 0.5, 1.0, 1.0],
            [7.0],
        ],
    )
    def test_equals_searchsorted_with_repeated_entries(self, cum):
        cum = np.array(cum)
        u = probes(cum)
        assert np.array_equal(_invert(cum, u, _guide(cum)), np.searchsorted(cum[:-1], u, side="right"))


class TestSeedDerivation:
    def test_deterministic_and_name_separated(self):
        a = derive_rng(1, "path/0").standard_normal(4)
        b = derive_rng(1, "path/0").standard_normal(4)
        c = derive_rng(1, "path/1").standard_normal(4)
        d = derive_rng(2, "path/0").standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
