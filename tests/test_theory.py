import math

import numpy as np
import pytest

from cgankd import rng
from cgankd.theory import (DiscreteJoint, _draw_points, _loss_matrix,
                           bayes_risk, bound_rhs, empirical_rademacher,
                           exact_risk, filter_joint, mixture, standard_setup,
                           threshold_rules, tv_distance, verify_bound,
                           zero_one_loss)


def two_point(p0, labels=((0, 0), (1, 0))):
    return DiscreteJoint(labels, (p0, 1.0 - p0))


def exact_rademacher(hypotheses, samples, loss, c_l):
    """Oracle for `empirical_rademacher`: the expectation over all 2**n sign
    vectors, enumerated exactly (n <= 16)."""
    L = _loss_matrix(hypotheses, samples, loss, c_l)
    n = L.shape[1]
    assert n <= 16, "exact enumeration is limited to n <= 16"
    codes = np.arange(2 ** n, dtype=np.uint64)
    bits = (codes[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    sigma = 2.0 * bits.astype(np.float64) - 1.0
    return float((np.abs(sigma @ L.T).max(axis=1) / n).mean())


def test_tv_identical_is_zero():
    p = two_point(0.3)
    assert tv_distance(p, p) == 0.0


def test_tv_disjoint_supports_is_one():
    p = DiscreteJoint(((0, 0),), (1.0,))
    q = DiscreteJoint(((1, 1),), (1.0,))
    assert tv_distance(p, q) == 1.0


def test_tv_hand_example():
    assert tv_distance(two_point(0.9), two_point(0.5)) == pytest.approx(0.4)


def test_tv_properties_random():
    g = np.random.default_rng(0)
    pts = tuple((i, 0) for i in range(6))
    for _ in range(50):
        a, b, c = (g.dirichlet(np.ones(6)) for _ in range(3))
        p = DiscreteJoint(pts, tuple(a))
        q = DiscreteJoint(pts, tuple(b))
        r = DiscreteJoint(pts, tuple(c))
        assert 0.0 <= tv_distance(p, q) <= 1.0
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


def test_exact_risk_zero_loss_predictor():
    joint = two_point(0.5, labels=((0, 0), (1, 1)))
    f = {0: 0, 1: 1}
    assert exact_risk(f, joint, zero_one_loss, 1.0) == 0.0


def test_exact_risk_half():
    joint = two_point(0.5, labels=((0, 0), (1, 1)))
    f = {0: 0, 1: 0}  # wrong on the second point
    assert exact_risk(f, joint, zero_one_loss, 1.0) == pytest.approx(0.5)


def test_exact_risk_matches_monte_carlo():
    g = np.random.default_rng(1)
    pts = tuple((i % 4, i // 4) for i in range(8))
    probs = g.dirichlet(np.ones(8))
    joint = DiscreteJoint(pts, tuple(probs))
    f = {0: 1, 1: 0, 2: 1, 3: 1}
    exact = exact_risk(f, joint, zero_one_loss, 1.0)
    idx = g.choice(8, size=100_000, p=probs)
    draws = np.array([zero_one_loss(f[pts[i][0]], pts[i][1]) for i in idx])
    sigma = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - exact) < 3 * max(sigma, 1e-4)


def test_exact_risk_rejects_unbounded_loss():
    joint = two_point(0.5, labels=((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="range"):
        exact_risk({0: 0, 1: 0}, joint, lambda p, y: 5.0, 1.0)


def test_rademacher_zero_loss_is_zero():
    H = ({0: 0},)
    samples = [(0, 0)] * 10
    est, se = empirical_rademacher(H, samples, zero_one_loss, 1.0, seed=0)
    assert est == 0.0 and se == 0.0


def test_rademacher_constant_loss_matches_binomial_closed_form():
    # one predictor, constant loss c: estimate = (c / C_L) * E|sum sigma| / n
    n, c = 12, 0.5
    H = ({0: 1},)
    samples = [(0, 0)] * n
    loss = lambda p, y: c
    expected = c * sum(math.comb(n, k) * abs(2 * k - n)
                       for k in range(n + 1)) / (2 ** n * n)
    est, se = empirical_rademacher(H, samples, loss, 1.0, n_mc=4000, seed=1)
    assert abs(est - expected) < 3 * se
    assert exact_rademacher(H, samples, loss, 1.0) == pytest.approx(expected)


def test_rademacher_estimate_agrees_with_exact_enumeration():
    H = threshold_rules(range(4))
    samples = [(i % 4, int((i * 5) % 3 == 0)) for i in range(14)]
    est, se = empirical_rademacher(H, samples, zero_one_loss, 1.0,
                                   n_mc=4000, seed=4)
    assert abs(est - exact_rademacher(H, samples, zero_one_loss, 1.0)) < 3 * se


def test_rademacher_needs_two_sign_vectors_for_its_standard_error():
    H = threshold_rules(range(4))
    samples = [(i % 4, i % 2) for i in range(10)]
    with pytest.raises(ValueError, match="n_mc must be at least 2"):
        empirical_rademacher(H, samples, zero_one_loss, 1.0, n_mc=1)
    est, se = empirical_rademacher(H, samples, zero_one_loss, 1.0, n_mc=2)
    assert math.isfinite(est) and math.isfinite(se)


def test_rademacher_duplicate_hypothesis_invariance():
    base = threshold_rules(range(4))
    doubled = base + base[:2]
    samples = [(i % 4, i % 2) for i in range(10)]
    a, _ = empirical_rademacher(base, samples, zero_one_loss, 1.0, seed=2)
    b, _ = empirical_rademacher(doubled, samples, zero_one_loss, 1.0, seed=2)
    assert a == b


def test_rademacher_monotone_under_enlargement():
    small = threshold_rules(range(4))[:3]
    big = threshold_rules(range(4))
    samples = [(i % 4, (i * 7) % 2) for i in range(12)]
    a, _ = empirical_rademacher(small, samples, zero_one_loss, 1.0, seed=3)
    b, _ = empirical_rademacher(big, samples, zero_one_loss, 1.0, seed=3)
    assert 0.0 <= a <= b <= 1.0


def test_bound_rhs_hand_example():
    report = bound_rhs(r_hat=0.05, c_l=1.0, n=1000, delta=0.1, theta=0.4,
                       tv=0.1, approx_gap=0.0)
    assert report.complexity_term == pytest.approx(0.2)
    assert report.gap_term == pytest.approx(0.24)
    assert abs(report.rhs - 0.65893) < 1e-4
    assert report.rhs == pytest.approx(report.complexity_term
                                       + report.statistical_term
                                       + report.gap_term + report.approx_term)


def test_bound_rhs_theta_one_kills_gap():
    report = bound_rhs(0.05, 1.0, 1000, 0.1, theta=1.0, tv=0.9, approx_gap=0.0)
    assert report.gap_term == 0.0


def test_bound_rhs_monotonicities():
    base = dict(r_hat=0.05, c_l=1.0, n=1000, delta=0.1, theta=0.4, tv=0.1,
                approx_gap=0.02)
    r0 = bound_rhs(**base)
    assert bound_rhs(**{**base, "n": 4000}).statistical_term \
        < r0.statistical_term
    assert bound_rhs(**{**base, "tv": 0.2}).rhs > r0.rhs
    assert bound_rhs(**{**base, "theta": 0.2}).gap_term > r0.gap_term


def test_bound_rhs_rejects_bad_delta():
    with pytest.raises(ValueError, match="delta"):
        bound_rhs(0.05, 1.0, 1000, 1.5, 0.4, 0.1, 0.0)


def test_filter_joint_rho_one_is_identity():
    setup = standard_setup()
    out = filter_joint(setup.p_gen, setup.teacher, 1.0)
    assert tv_distance(out, setup.p_gen) < 1e-12


def test_filter_joint_drops_high_error_mass():
    # two x-points per class; the teacher is confident the label is wrong on
    # one of them, so a 0.5 quantile keeps only the consistent point
    points = ((0, 0), (1, 0))
    joint = DiscreteJoint(points, (0.5, 0.5))
    teacher = {0: (0.9, 0.1), 1: (0.1, 0.9)}
    out = filter_joint(joint, teacher, 0.5)
    assert out.points == ((0, 0),)
    assert out.probs == (1.0,)


def test_filter_joint_renormalizes():
    setup = standard_setup()
    out = filter_joint(setup.p_gen, setup.teacher, 0.8)
    assert abs(sum(out.probs) - 1.0) < 1e-12


def test_verify_perfect_pipeline_always_holds():
    setup = standard_setup(n_real=400, n_fake=400, rho=1.0, m1_mode="exact")
    report = verify_bound(setup, trials=50, delta=0.1, seed=0, n_mc=500)
    assert report.tv == 0.0
    assert report.holds_fraction == 1.0


def test_verify_standard_setup_holds_mostly():
    report = verify_bound(standard_setup(), trials=200, delta=0.1, seed=1)
    assert report.holds_fraction >= 0.9
    assert report.bound.approx_term == pytest.approx(0.0)


def test_verify_deterministic():
    a = verify_bound(standard_setup(), trials=20, delta=0.1, seed=2, n_mc=200)
    b = verify_bound(standard_setup(), trials=20, delta=0.1, seed=2, n_mc=200)
    assert a.lhs_values == b.lhs_values
    assert a.bound.rhs == b.bound.rhs


def test_verify_mg_growth_shifts_terms():
    small = verify_bound(standard_setup(n_fake=100), trials=5, delta=0.1,
                         seed=3, n_mc=200)
    big = verify_bound(standard_setup(n_fake=900), trials=5, delta=0.1,
                       seed=3, n_mc=200)
    assert (1 - big.theta) > (1 - small.theta)
    assert big.bound.statistical_term < small.bound.statistical_term


def test_mixture_arithmetic():
    p = two_point(1.0)
    q = two_point(0.0)
    m = mixture(p, q, 0.25)
    assert dict(zip(m.points, m.probs))[(0, 0)] == pytest.approx(0.25)


def test_bayes_risk_standard_setup():
    setup = standard_setup(real_label_noise=0.15)
    assert bayes_risk(setup.p_real, zero_one_loss, 1.0) == pytest.approx(0.15)


def test_inverse_cdf_draws_stay_in_range_when_the_cdf_falls_short_of_1():
    cdf = np.cumsum([0.1] * 10)
    assert cdf[-1] < 1.0  # rounding
    key = rng.derive_key("inverse-cdf")
    u = rng.uniforms(key, np.arange(20_000))
    # Halving the CDF leaves half the draws above its last value.
    for scale in (1.0, 0.5):
        got = _draw_points(cdf * scale, key, 20_000)
        assert got.min() >= 0 and got.max() == 9
        want = np.minimum(np.sum(cdf * scale <= u[:, None], axis=1), 9)
        assert np.array_equal(got, want)


def test_inverse_cdf_never_draws_a_point_of_probability_0():
    got = _draw_points(np.cumsum([0.5, 0.0, 0.5]), rng.derive_key("zero"),
                       5000)
    assert set(np.unique(got)) == {0, 2}
