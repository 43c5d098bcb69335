"""The package's numpy special functions and its month-order recursion, with
scipy as the oracle.

Each bound is stated before the comparison it guards, from the error the
operations can make: EPS is the unit roundoff of float64 doubled (one ulp at
1), and a bound scales with the size of the terms that cancel.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg.blas import dtbsv

from dynpois.filtering import _discount_solve
from dynpois.kernels import betaln, digamma, expit, lgamma, logit, logsumexp, trigamma

EPS = np.finfo(float).eps

# scipy's gammaln overflows to inf for subnormal x, where -log(x) is
# log Gamma(x) to double precision (the next term, -0.577 x, is below 1e-307)
def _gammaln(x):
    ref = special.gammaln(x)
    return np.where(np.isfinite(ref), ref, -np.log(x))


class TestLgamma:
    # over (0, 1e7]: 4e-15 max(|log Gamma(x)|, 1)
    BOUND = 4e-15

    def _check(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lgamma(x)
        ref = _gammaln(x)
        assert np.all(np.abs(got - ref) <= self.BOUND * np.maximum(np.abs(ref), 1.0)), (x, got, ref)

    @given(x=st.lists(st.floats(min_value=0.0, max_value=1e7, exclude_min=True), min_size=1, max_size=50))
    @example(x=[5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 1e7])
    @settings(max_examples=300, deadline=None)
    def test_matches_gammaln(self, x):
        self._check(np.array(x))

    @given(n=st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=300, deadline=None)
    def test_integers_match_gammaln(self, n):
        self._check(np.array([float(n)]))

    def test_dense_grids_and_integers(self):
        x = np.concatenate([np.linspace(1e-3, 10.0, 100_001), np.geomspace(5e-324, 1e7, 100_001),
                            np.arange(1.0, 10_001.0)])
        self._check(x)

    def test_edges_and_shapes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = lgamma(np.array([0.0, np.inf, np.nan]))
        assert edges[0] == np.inf and edges[1] == np.inf and np.isnan(edges[2])
        assert isinstance(lgamma(0.5), float) and lgamma(np.ones((2, 3))).shape == (2, 3)

    def test_stack_entries_equal_their_own_calls(self):
        x = np.random.default_rng(0).uniform(0.0, 400.0, size=(3, 257))
        assert np.array_equal(lgamma(x)[1], lgamma(x[1]))
        assert np.array_equal(lgamma(x)[:, 5], np.array([lgamma(v) for v in x[:, 5]]))


class TestDigammaTrigamma:
    # over (0, 1e7]: digamma within 1e-14 max(|psi(x)|, 1), where the shift
    # sum and psi(x + 10) cancel near psi's root at 1.46 and are each at most
    # about 3 there; trigamma within 1e-14 psi'(x), a sum of positive terms.
    # Below about 1e-154 trigamma is inf, like scipy's polygamma(1, x)
    BOUND = 1e-14

    def _check(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi, psi1 = digamma(x), trigamma(x)
        ref, ref1 = special.digamma(x), special.polygamma(1, x)
        assert np.array_equal(np.isinf(psi), np.isinf(ref)) and np.array_equal(np.isinf(psi1), np.isinf(ref1))
        finite, finite1 = np.isfinite(ref), np.isfinite(ref1)
        err = np.abs(psi[finite] - ref[finite])
        assert np.all(err <= self.BOUND * np.maximum(np.abs(ref[finite]), 1.0)), (x, psi, ref)
        assert np.all(np.abs(psi1[finite1] - ref1[finite1]) <= self.BOUND * ref1[finite1]), (x, psi1, ref1)

    @given(x=st.lists(st.floats(min_value=0.0, max_value=1e7, exclude_min=True), min_size=1, max_size=50))
    @example(x=[5e-324, 1e-310, 1e-160, 1e-150, 0.5, 1.0, 1.4616321449683622, 2.0, 9.999999999, 10.0, 1e7])
    @settings(max_examples=300, deadline=None)
    def test_match_scipy(self, x):
        self._check(np.array(x))

    @given(n=st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=300, deadline=None)
    def test_integers_match_scipy(self, n):
        self._check(np.array([float(n)]))

    def test_dense_grids(self):
        self._check(np.concatenate([np.linspace(1e-3, 20.0, 100_001), np.geomspace(5e-324, 1e7, 100_001)]))

    def test_scalars_and_shapes(self):
        assert isinstance(digamma(0.5), float) and isinstance(trigamma(0.5), float)
        assert digamma(np.ones((2, 3))).shape == (2, 3) and trigamma(np.ones((2, 3))).shape == (2, 3)


_special_or_finite = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


class TestLogsumexp:
    # about the maximum the sum has n terms in [0, 1], each within an ulp, so
    # log(sum) is within (n + 2) EPS and the result within that of max(|ref|, 1)
    @staticmethod
    def _bound(n, ref):
        return 2 * (n + 2) * EPS * np.maximum(np.abs(ref), 1.0)

    @given(
        a=st.integers(min_value=1, max_value=20).flatmap(
            lambda n: st.lists(st.lists(_special_or_finite, min_size=n, max_size=n), min_size=1, max_size=20)
        )
    )
    @example(a=[[-np.inf, np.inf, np.nan, -np.inf], [-np.inf, 1.0, 2.0, np.inf]])
    @example(a=[[1e3, -1e3], [1e3, -1e3]])
    @settings(max_examples=300, deadline=None)
    def test_axis_0_matches_scipy(self, a):
        a = np.array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = special.logsumexp(a, axis=0)
        assert got.shape == ref.shape
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        finite = np.isfinite(ref)
        assert np.array_equal(got[~finite & ~np.isnan(ref)], ref[~finite & ~np.isnan(ref)])
        assert np.all(np.abs(got[finite] - ref[finite]) <= self._bound(len(a), ref[finite]))

    @given(a=st.lists(_special_or_finite, min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_all_entries_match_scipy(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = float(logsumexp(np.array(a)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = float(special.logsumexp(np.array(a)))
        if math.isfinite(ref):
            assert abs(got - ref) <= self._bound(len(a), ref)
        else:
            assert got == ref or (math.isnan(got) and math.isnan(ref))


class TestExpitLogit:
    # expit: an exp, an add and a divide, each within a few ulps: 8 EPS relative;
    # logit: a divide and a log of a ratio near 1 at p = 1/2: 8 EPS max(|ref|, 1)
    BOUND = 8 * EPS

    def test_edges(self):
        x = np.array([-800.0, 0.0, 800.0, -np.inf, np.inf, np.nan])
        p = np.array([0.0, 0.5, 1.0, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(expit(x), special.expit(x), equal_nan=True)
            assert np.array_equal(logit(p), special.logit(p), equal_nan=True)
            # DM5 under a fixed gamma = 1 proposes on the logit scale from logit(1) = inf
            assert expit(logit(1.0)) == 1.0
            assert expit(logit(np.array([1.0])))[0] == 1.0

    @given(x=st.lists(st.floats(min_value=-800.0, max_value=800.0), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_expit_matches_scipy(self, x):
        x = np.array(x)
        ref = special.expit(x)
        assert np.all(np.abs(expit(x) - ref) <= self.BOUND * ref)

    @given(p=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=40))
    @example(p=[0.5, 0.5 + 2.0**-53, 0.3, 0.65, 5e-324, 1.0 - 2.0**-53])
    @settings(max_examples=300, deadline=None)
    def test_logit_matches_scipy(self, p):
        p = np.array(p)
        ref = special.logit(p)
        assert np.all(np.abs(logit(p) - ref) <= self.BOUND * np.maximum(np.abs(ref), 1.0))


class TestBetaln:
    # three lgamma terms, each within a few ulps: 8 EPS of their summed size
    @given(a=st.floats(min_value=1e-3, max_value=1e4), b=st.floats(min_value=1e-3, max_value=1e4))
    @example(a=1.0, b=1.0)
    @example(a=0.5, b=0.5)
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, a, b):
        size = abs(special.gammaln(a)) + abs(special.gammaln(b)) + abs(special.gammaln(a + b)) + 1.0
        assert abs(betaln(a, b) - special.betaln(a, b)) <= 8 * EPS * size


def _dtbsv_row(g, row):
    """Solve one row's unit lower-bidiagonal system (subdiagonal -g) by BLAS."""
    band = np.empty((2, len(row)))
    band[0], band[1] = 1.0, -g
    band[1, -1] = 0.0
    return dtbsv(1, band, np.array(row, dtype=float), lower=1, diag=1)


class TestRecursionAgainstBandedSolve:
    # x_t sums nonnegative terms, so each of at most 2L roundings here and L in
    # BLAS (one per step with FMA) moves it by EPS relative: 3 L EPS
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.just(1.0), st.just(5e-324), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
                st.booleans(),  # an overflowing row
            ),
            min_size=1,
            max_size=6,
        ),
        L=st.integers(min_value=1, max_value=200),
        K=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_match_dtbsv(self, rows, L, K, seed):
        gen = np.random.default_rng(seed)
        # rows of 1e308 at gamma >= 0.9 overflow from the second month on
        gamma = np.array([max(g, 0.9) if big else g for g, big in rows])
        rhs = np.exp(gen.normal(0.0, 3.0, size=(K, len(rows), L)))
        for j, (_, big) in enumerate(rows):
            if big:
                rhs[:, j] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _discount_solve(gamma, rhs)
        assert x.shape == rhs.shape
        for k in range(K):
            for j, g in enumerate(gamma):
                ref = _dtbsv_row(g, rhs[k, j])
                assert np.array_equal(np.isinf(x[k, j]), np.isinf(ref))
                finite = np.isfinite(ref)
                assert np.all(np.abs(x[k, j][finite] - ref[finite]) <= 3 * L * EPS * ref[finite])
                if g == 1.0 or L == 1:
                    # no product rounds: both add the same terms in the same order
                    assert np.array_equal(x[k, j], ref)
                # every row equals its own one-row solve
                assert np.array_equal(x[k, j], _discount_solve(gamma[j : j + 1], rhs[k : k + 1, j : j + 1])[0, 0])
