"""Numerical check of the generalization bound on finite discrete problems.

Everything here is exact except the Rademacher expectation, which is a
Monte-Carlo estimate.
The bound under test reads

    V(erm) - V(best) <= 4*C_L*R + 2*C_L*sqrt((4/N)*log(2/delta))
                        + 4*C_L*(1-theta)*TV(p_real, p_filtered)
                        + (V(best-in-class) - V(best))

where R is the empirical Rademacher complexity of the hypothesis class on N
mixture samples, theta is the real-sample fraction of the training mixture,
and TV is the total variation distance between the real joint and the
filtered generator joint.  ``verify_bound`` draws repeated training sets,
runs exact empirical-risk minimization over an explicit finite class, and
reports how often the inequality holds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng

_PROB_TOL = 1e-12
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class DiscreteJoint:
    """Exact finite joint over (x, y) points."""
    points: tuple               # tuple of (x, y) pairs, no duplicates
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        object.__setattr__(self, "probs", tuple(float(v) for v in self.probs))
        if len(self.points) != len(self.probs) or not self.points:
            raise ValueError("points and probs must be non-empty and aligned")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate support points")
        if min(self.probs) < -_PROB_TOL:
            raise ValueError("negative probability")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1")

    def as_dict(self) -> dict:
        return dict(zip(self.points, self.probs))

    @property
    def labels(self) -> tuple:
        return tuple(sorted({y for _, y in self.points}))


@dataclass
class BoundReport:
    r_hat: float
    complexity_term: float
    statistical_term: float
    gap_term: float
    approx_term: float
    rhs: float


def tv_distance(p: DiscreteJoint, q: DiscreteJoint) -> float:
    """Half-L1 distance on the union support (zero-padded)."""
    dp, dq = p.as_dict(), q.as_dict()
    keys = set(dp) | set(dq)
    return 0.5 * sum(abs(dp.get(k, 0.0) - dq.get(k, 0.0)) for k in keys)


def mixture(p: DiscreteJoint, q: DiscreteJoint, theta: float) -> DiscreteJoint:
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    dp, dq = p.as_dict(), q.as_dict()
    keys = sorted(set(dp) | set(dq))
    probs = [theta * dp.get(k, 0.0) + (1.0 - theta) * dq.get(k, 0.0)
             for k in keys]
    return DiscreteJoint(tuple(keys), tuple(probs))


def exact_risk(f, joint: DiscreteJoint, loss, c_l: float) -> float:
    """Exact expected loss of f under the joint; loss must stay within c_l."""
    total = 0.0
    for (x, y), prob in zip(joint.points, joint.probs):
        value = loss(f[x], y)
        if not 0.0 <= value <= c_l:
            raise ValueError("loss leaves the [0, c_l] range on the support")
        total += prob * value
    return total


def bayes_risk(joint: DiscreteJoint, loss, c_l: float) -> float:
    """Risk of the unrestricted best predictor (pointwise minimizer)."""
    labels = joint.labels
    by_x = {}
    for (x, y), prob in zip(joint.points, joint.probs):
        by_x.setdefault(x, []).append((y, prob))
    total = 0.0
    for x, pairs in by_x.items():
        best = min(sum(prob * loss(pred, y) for y, prob in pairs)
                   for pred in labels)
        if best < -_PROB_TOL or best > c_l * sum(p for _, p in pairs) + _PROB_TOL:
            raise ValueError("loss leaves the [0, c_l] range on the support")
        total += best
    return total


def _loss_matrix(hypotheses: tuple, samples, loss, c_l: float) -> np.ndarray:
    """(|H|, n) matrix of losses normalized by c_l."""
    if not samples:
        raise ValueError("empty sample set")
    out = np.empty((len(hypotheses), len(samples)))
    for i, f in enumerate(hypotheses):
        for j, (x, y) in enumerate(samples):
            out[i, j] = loss(f[x], y)
    if out.min() < 0.0 or out.max() > c_l:
        raise ValueError("loss leaves the [0, c_l] range on the samples")
    return out / c_l


def empirical_rademacher(hypotheses: tuple, samples, loss, c_l: float,
                         n_mc: int = 2000, seed: int = 0):
    """Estimate E_sigma[ sup_f (1/n)|sum_i sigma_i loss(f(x_i), y_i)/c_l| ].

    Returns (estimate, standard error) over n_mc random sign vectors; the
    standard error needs at least two.
    """
    if n_mc < 2:
        raise ValueError("n_mc must be at least 2")
    L = _loss_matrix(hypotheses, samples, loss, c_l)
    n = L.shape[1]
    key = rng.derive_key("rademacher", seed)
    u = rng.uniforms(key, np.arange(n_mc * n, dtype=np.uint64))
    sigma = np.where(u < 0.5, -1.0, 1.0).reshape(n_mc, n)
    sups = np.abs(sigma @ L.T).max(axis=1) / n
    return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(n_mc))


def bound_rhs(r_hat: float, c_l: float, n: int, delta: float, theta: float,
              tv: float, approx_gap: float) -> BoundReport:
    """Assemble the four bound terms and their sum."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if min(r_hat, c_l, n, tv, approx_gap) < 0:
        raise ValueError("bound inputs must be nonnegative")
    complexity = 4.0 * c_l * r_hat
    statistical = 2.0 * c_l * math.sqrt((4.0 / n) * math.log(2.0 / delta))
    gap = 4.0 * c_l * (1.0 - theta) * tv
    rhs = complexity + statistical + gap + approx_gap
    return BoundReport(r_hat=r_hat, complexity_term=complexity,
                       statistical_term=statistical, gap_term=gap,
                       approx_term=approx_gap, rhs=rhs)


def filter_joint(joint: DiscreteJoint, teacher: dict, rho: float) -> DiscreteJoint:
    """Exact per-class quantile filtering of a discrete joint.

    ``teacher`` maps each x to a tuple of label probabilities.  For each
    class the threshold is the smallest error value whose cumulative
    class-conditional mass reaches rho; mass at or below it survives.  The
    survivors are renormalized into a joint.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1] for exact filtering")
    errors = {}
    for x, y in joint.points:
        p = max(teacher[x][y], _LOG_FLOOR)
        errors[(x, y)] = -math.log(p)
    kept_points, kept_probs = [], []
    for c in joint.labels:
        rows = [(errors[(x, y)], (x, y), prob)
                for (x, y), prob in zip(joint.points, joint.probs) if y == c]
        mass = sum(prob for _, _, prob in rows)
        if mass <= 0.0:
            continue
        rows.sort(key=lambda r: r[0])
        cum = 0.0
        alpha = rows[-1][0]
        for err, _, prob in rows:
            cum += prob / mass
            if cum >= rho - _PROB_TOL:
                alpha = err
                break
        for err, point, prob in rows:
            if err <= alpha:
                kept_points.append(point)
                kept_probs.append(prob)
    total = sum(kept_probs)
    if total <= 0.0:
        raise ValueError("filtering removed all probability mass")
    return DiscreteJoint(tuple(kept_points),
                         tuple(p / total for p in kept_probs))


@dataclass(frozen=True)
class VerifySetup:
    """A fully specified discrete verification problem."""
    p_real: DiscreteJoint
    p_gen: DiscreteJoint
    teacher: dict               # x -> tuple of label probabilities
    hypotheses: tuple           # predictors, each a dict {x: prediction}
    loss: object                # callable (prediction, label) -> loss
    c_l: float
    n_real: int
    n_fake: int
    rho: float
    m1_mode: str = "none"       # "exact": subsampling recovers p_real

    def __post_init__(self):
        if self.m1_mode not in ("none", "exact"):
            raise ValueError(f"unknown m1 mode {self.m1_mode!r}")
        if self.n_real < 1 or self.n_fake < 0:
            raise ValueError("bad sample counts")


@dataclass
class VerifyReport:
    bound: BoundReport
    theta: float
    tv: float
    r_hat_stderr: float
    lhs_values: list = field(default_factory=list)
    holds_flags: list = field(default_factory=list)

    @property
    def holds_fraction(self) -> float:
        return sum(self.holds_flags) / len(self.holds_flags)


def _draw_points(cdf: np.ndarray, key: int, n: int) -> np.ndarray:
    """n support indices drawn by inverse CDF from counters 0..n-1; a draw
    above a rounded-down last CDF value takes the last index."""
    return np.minimum(np.searchsorted(cdf, rng.uniforms(key, np.arange(n)),
                                      side="right"), len(cdf) - 1)


def verify_bound(setup: VerifySetup, trials: int, delta: float,
                 seed: int, n_mc: int = 2000) -> VerifyReport:
    """Repeatedly draw training mixtures, run exact ERM, check LHS <= RHS."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p_m1 = setup.p_real if setup.m1_mode == "exact" else setup.p_gen
    p_filtered = filter_joint(p_m1, setup.teacher, setup.rho)
    theta = setup.n_real / (setup.n_real + setup.n_fake)
    p_mix = mixture(setup.p_real, p_filtered, theta)
    tv = tv_distance(setup.p_real, p_filtered)
    n_total = setup.n_real + setup.n_fake

    real_risks = np.array([exact_risk(f, setup.p_real, setup.loss, setup.c_l)
                           for f in setup.hypotheses])
    v_star = bayes_risk(setup.p_real, setup.loss, setup.c_l)
    approx_gap = float(real_risks.min()) - v_star

    cdf = np.cumsum(p_mix.probs)
    ref = [p_mix.points[i] for i in _draw_points(
        cdf, rng.derive_key("theory-ref", seed), n_total)]
    r_hat, r_se = empirical_rademacher(setup.hypotheses, ref, setup.loss,
                                       setup.c_l, n_mc=n_mc, seed=seed)
    bound = bound_rhs(r_hat, setup.c_l, n_total, delta, theta, tv, approx_gap)

    mix_loss = _loss_matrix(setup.hypotheses, list(p_mix.points), setup.loss,
                            setup.c_l)
    report = VerifyReport(bound=bound, theta=theta, tv=tv, r_hat_stderr=r_se)
    for t in range(trials):
        counts = np.bincount(_draw_points(
            cdf, rng.derive_key("theory-trial", seed, t), n_total),
            minlength=len(cdf))
        emp = mix_loss @ (counts / n_total)
        f_hat = int(np.argmin(emp))
        lhs = float(real_risks[f_hat]) - v_star
        report.lhs_values.append(lhs)
        report.holds_flags.append(lhs <= bound.rhs)
    return report


def threshold_rules(xs) -> tuple:
    """All step rules on an ordered support: 1[x >= t] and its complement."""
    xs = list(xs)
    predictors = []
    for t in xs:
        up = {x: int(x >= t) for x in xs}
        predictors.append(up)
        predictors.append({x: 1 - v for x, v in up.items()})
    return tuple(predictors)


def zero_one_loss(prediction, label) -> float:
    return float(prediction != label)


def standard_setup(n_real: int = 100, n_fake: int = 300, rho: float = 0.9,
                   m1_mode: str = "none", real_label_noise: float = 0.15,
                   gen_label_noise: float = 0.35,
                   gen_skew: float = 0.7) -> VerifySetup:
    """Eight x-points, two labels, sixteen threshold rules.

    The real joint is uniform in x with the true label 1[x >= 4] flipped
    with probability ``real_label_noise``; the generator joint skews the
    x-marginal geometrically and uses a higher flip rate.  The teacher is
    the exact posterior of the real joint, so the Bayes rule lies in the
    hypothesis class and the approximation gap is zero.
    """
    xs = list(range(8))
    points, real_probs, gen_probs = [], [], []
    skew = np.array([gen_skew ** x for x in xs])
    skew = skew / skew.sum()
    for x in xs:
        true = int(x >= 4)
        for y in (0, 1):
            points.append((x, y))
            flip_r = real_label_noise if y != true else 1.0 - real_label_noise
            flip_g = gen_label_noise if y != true else 1.0 - gen_label_noise
            real_probs.append(flip_r / len(xs))
            gen_probs.append(float(skew[x]) * flip_g)
    teacher = {x: ((1.0 - real_label_noise, real_label_noise) if x < 4
                   else (real_label_noise, 1.0 - real_label_noise))
               for x in xs}
    return VerifySetup(
        p_real=DiscreteJoint(tuple(points), tuple(real_probs)),
        p_gen=DiscreteJoint(tuple(points), tuple(gen_probs)),
        teacher=teacher, hypotheses=threshold_rules(xs),
        loss=zero_one_loss, c_l=1.0, n_real=n_real, n_fake=n_fake,
        rho=rho, m1_mode=m1_mode)
