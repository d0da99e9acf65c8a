import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ncspectral.diophantine import (
    bv_search,
    cf_expand,
    classify_matrix,
    exp_profile,
    golden_ratio,
    irrationality_exponent_estimate,
    jarnik_construct,
    liouville_fraction,
    power_log_profile,
    power_profile,
)
from ncspectral.weyl import DeformationMatrix


class TestCfExpand:
    def test_golden_ratio_all_ones(self):
        x = golden_ratio(200)
        cf = cf_expand(x, 40, dps=200)
        assert cf.quotients[0] == 1
        assert all(a == 1 for a in cf.quotients[1:])
        assert cf.trusted_depth == 40

    def test_integer(self):
        cf = cf_expand(3, 10)
        assert cf.quotients == [3]
        assert cf.exact

    def test_sqrt_two_periodic(self):
        with mpmath.workdps(200):
            x = mpmath.sqrt(2)
        cf = cf_expand(x, 30, dps=200)
        assert cf.quotients[0] == 1
        assert all(a == 2 for a in cf.quotients[1:])

    def test_rational_terminates_exactly(self):
        cf = cf_expand(Fraction(355, 113), 20)
        assert cf.exact
        val_lo, val_hi = cf.value_bounds()
        assert val_lo == val_hi == Fraction(355, 113)

    def test_precision_exhaustion_reported(self):
        # only ~15 digits available: depth must saturate well below request
        cf = cf_expand(float(1 + 5 ** 0.5) / 2, 200, dps=15)
        assert cf.trusted_depth < 60

    def test_convergent_identities(self):
        with mpmath.workdps(120):
            x = mpmath.pi
        cf = cf_expand(x, 25, dps=120)
        cf.check_invariants()  # recurrences and determinant identity, exact ints
        # first quotients of pi are well known
        assert cf.quotients[:5] == [3, 7, 15, 1, 292]


class TestBvSearch:
    def test_golden_ratio_clean(self):
        rep = bv_search([golden_ratio(80)], delta=1.0, c=0.2, qmax=100_000, dps=80)
        assert rep.verdict == "no-violation-up-to-Q"
        assert rep.exhaustive

    def test_rational_violates(self):
        rep = bv_search([Fraction(7, 31)], delta=1.0, c=0.2, qmax=200)
        assert rep.verdict == "violations-found"
        qs = [w[0][0] for w in rep.witnesses]
        assert 31 in qs  # the exact hit at the denominator

    def test_liouville_violations_at_convergents(self):
        x = liouville_fraction(5)
        rep = bv_search([x], delta=2.0, c=1.0, qmax=10 ** 7, dps=200)
        assert rep.verdict == "violations-found"
        # denominators of the ultra-sharp approximants are powers of ten
        assert any(w[0][0] in (10 ** 2, 10 ** 6) for w in rep.witnesses)

    def test_degenerate_directions_skipped(self):
        # a zero component spans lattice vectors probing nothing
        rep = bv_search([0.0, float(golden_ratio(50))], delta=1.0, c=0.2, qmax=30)
        assert rep.skipped_degenerate > 0
        assert rep.verdict == "no-violation-up-to-Q"

    def test_monotone_in_height(self):
        x = liouville_fraction(5)
        big = bv_search([x], delta=2.0, c=1.0, qmax=10 ** 7, dps=200)
        small = bv_search([x], delta=2.0, c=1.0, qmax=10 ** 3, dps=200)
        small_qs = {w[0] for w in small.witnesses}
        big_qs = {w[0] for w in big.witnesses}
        assert small_qs <= big_qs


class TestClassifyMatrix:
    def test_golden_block_certified(self):
        g = float(golden_ratio(50)) - 1.0
        theta = DeformationMatrix.standard_block(2, 2 * math.pi * g)
        rep = classify_matrix(theta, delta=1.0, c=0.1, qmax=2000)
        assert rep.verdict == "certified-up-to-Q"
        assert rep.u is not None

    def test_zero_matrix_fails(self):
        rep = classify_matrix(DeformationMatrix.zero(2), delta=1.0, c=0.1, qmax=100)
        assert rep.verdict == "no-certificate-found"

    def test_rational_block_fails(self):
        theta = DeformationMatrix.standard_block(2, 2 * math.pi * 0.5)
        rep = classify_matrix(theta, delta=1.0, c=0.05, qmax=500)
        assert rep.verdict == "no-certificate-found"

    def test_liouville_row_fails(self):
        # three factorial terms put the ultra-sharp approximant at q = 100,
        # well inside an exhaustive planar scan
        x = float(liouville_fraction(3))
        theta = DeformationMatrix([[0.0, x], [-x, 0.0]])
        row = bv_search([0.0, x], delta=2.0, c=1.0, qmax=500, dps=60)
        assert row.verdict == "violations-found"
        assert any(w[0][1] == 100 for w in row.witnesses)
        rep = classify_matrix(theta, delta=2.0, c=1.0, qmax=500, dps=60)
        assert rep.verdict == "no-certificate-found"


class TestJarnik:
    def test_cubic_profile_certificates(self):
        res = jarnik_construct(power_profile(3), depth=8)
        assert all(c.ok for c in res.certificates)
        for c in res.certificates:
            assert c.gap_bound < c.target  # exact rational comparison

    def test_dirichlet_regime(self):
        res = jarnik_construct(power_profile(2), depth=10)
        assert all(c.ok for c in res.certificates)
        assert max(res.cf.quotients[1:]) <= 2  # bounded quotients suffice here

    def test_exponential_profile_quotients_explode(self):
        res = jarnik_construct(exp_profile(), depth=4)
        assert all(c.ok for c in res.certificates)
        qs = res.cf.quotients
        assert qs[-1] > qs[-2] ** 2  # super-exponential growth
        # one more depth would need an unrepresentable quotient
        with pytest.raises(ValueError):
            jarnik_construct(exp_profile(), depth=5)

    def test_bad_profile_rejected(self):
        profile = power_log_profile(1.0)
        profile.check_admissible()  # fine
        with pytest.raises(ValueError):
            power_profile(1.5)

    def test_constructed_number_fools_bv_scan(self):
        res = jarnik_construct(power_profile(4), depth=5)
        lo, hi = res.cf.value_bounds()
        mid = (lo + hi) / 2
        rep = bv_search([mid], delta=2.0, c=1.0, qmax=2000, dps=200)
        assert rep.verdict == "violations-found"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.lists(st.integers(1, 50), min_size=2, max_size=12))
def test_convergent_identities_random_quotients(a0, tail):
    # build the value of the prescribed expansion exactly and re-expand it
    value = Fraction(tail[-1])
    for a in reversed(tail[:-1]):
        value = a + 1 / value
    value = a0 + 1 / value
    cf = cf_expand(value, len(tail) + 1)
    cf.check_invariants()  # recurrences and determinant identity, exact ints
    lo, hi = cf.value_bounds()
    assert lo <= value <= hi


class TestExponentEstimate:
    def test_golden_is_two(self):
        cf = cf_expand(golden_ratio(120), 30, dps=120)
        est = irrationality_exponent_estimate(cf)
        assert not est.divergent
        assert est.estimate == pytest.approx(2.0, abs=1e-9)

    def test_jarnik_cubic_is_three(self):
        res = jarnik_construct(power_profile(3), depth=10)
        est = irrationality_exponent_estimate(res.cf)
        assert est.estimate == pytest.approx(3.0, abs=0.1)

    def test_rational_divergent(self):
        cf = cf_expand(Fraction(355, 113), 10)
        est = irrationality_exponent_estimate(cf)
        assert est.divergent and est.estimate is None

    def test_depth_precondition(self):
        cf = cf_expand(Fraction(1, 2), 10)
        with pytest.raises(ValueError):
            irrationality_exponent_estimate(cf)
