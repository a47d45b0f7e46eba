"""Finite-block security statistics for single-photon-source BB84.

Provides the concentration inequalities (multiplicative Chernoff closed
forms, a without-replacement sampling correction) and the finite-size
extractable-key evaluation that consumes observed per-basis counts and
error rates.  All count-valued bounds are kept as real numbers; rounding
happens once, at the final key length (floor), to avoid compounding
pessimism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import SecurityBudget, _require, binary_entropy

__all__ = [
    "DegenerateBlockError",
    "FiniteBlockInput",
    "FiniteKeyReport",
    "chernoff_upper",
    "chernoff_lower",
    "serfling_correction",
    "nonmultiphoton_lower",
    "phase_error_upper",
    "ec_leakage",
    "finite_skb_per_pulse",
]


class DegenerateBlockError(ValueError):
    """A statistical bound was requested on an empty or one-sided block."""


# ---------------------------------------------------------------------------
# concentration inequalities
# ---------------------------------------------------------------------------

def _check_tail_args(mean: float, eps: float) -> float:
    _require(mean >= 0.0, "mean", "must be non-negative")
    _require(0.0 < eps <= 1.0, "eps", "must lie in (0, 1]")
    return math.log(1.0 / eps)


def chernoff_upper(mean: float, eps: float) -> float:
    """Upper tail bound for a sum of independent indicator variables.

    Returns U such that a sum with expectation ``mean`` exceeds U with
    probability at most ``eps``:  U = mean + β/2 + sqrt(2·β·mean + β²/4)
    with β = ln(1/eps).
    """
    beta = _check_tail_args(mean, eps)
    return mean + 0.5 * beta + math.sqrt(2.0 * beta * mean + 0.25 * beta**2)


def chernoff_lower(mean: float, eps: float) -> float:
    """Lower tail bound companion to :func:`chernoff_upper`.

    Returns L = max(0, mean − sqrt(2·β·mean)) such that the sum falls
    below L with probability at most ``eps``.
    """
    beta = _check_tail_args(mean, eps)
    return max(0.0, mean - math.sqrt(2.0 * beta * mean))


def serfling_correction(sample_size: float, target_size: float, eps: float) -> float:
    """Deviation allowance when extrapolating a sampled error rate.

    For ``sample_size`` bits drawn uniformly without replacement from a
    population of ``sample_size + target_size`` bits, the mean of the
    unsampled remainder exceeds the observed sample mean by more than the
    returned value with probability at most ``eps``.  Closed form obtained
    by rearranging the without-replacement tail bound of R. J. Serfling,
    Ann. Statist. 2 (1974) 39-48, onto the remainder's mean:

        gamma = sqrt( (n + k) * (n + 1) * ln(1/eps) / (2 * k * n^2) )

    with k the sample size and n the remainder (target) size.
    """
    _require(sample_size >= 1, "sample_size", "must be >= 1")
    _require(target_size >= 1, "target_size", "must be >= 1")
    _require(0.0 < eps < 1.0, "eps", "must lie in (0, 1)")
    k = float(sample_size)
    n = float(target_size)
    beta = math.log(1.0 / eps)
    return math.sqrt((n + k) * (n + 1.0) * beta / (2.0 * k * n * n))


# ---------------------------------------------------------------------------
# finite-block evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FiniteBlockInput:
    """Observed quantities of one finite acquisition block.

    n_x, n_z
        Received (sifted) counts per basis, in bits.
    observed_error_x, observed_error_z
        Error rates measured in each basis, in [0, 0.5].
    n_sent
        Number of clock pulses emitted during the block.
    budget
        Security failure-probability allocations.
    f_ec
        Reconciliation inefficiency multiplier (≥ 1).
    clock_rate, acquisition_time
        Block timing; ``clock_rate * acquisition_time`` must cover
        ``n_sent``.
    multiphoton_prob
        Per-pulse probability of a multiphoton emission at the channel
        input, used for the adversarial-count upper bound.
    """

    n_x: float
    n_z: float
    observed_error_x: float
    observed_error_z: float
    n_sent: float
    budget: SecurityBudget
    f_ec: float = 1.16
    clock_rate: float = 228e6
    acquisition_time: float = 1800.0
    multiphoton_prob: float = 0.0

    def __post_init__(self) -> None:
        _require(self.n_x >= 0, "n_x", "must be non-negative")
        _require(self.n_z >= 0, "n_z", "must be non-negative")
        for name in ("observed_error_x", "observed_error_z"):
            value = getattr(self, name)
            _require(0.0 <= value <= 0.5, name, "must lie in [0, 0.5]")
        _require(self.n_sent >= 1, "n_sent", "must be >= 1")
        _require(
            self.n_x + self.n_z <= self.n_sent,
            "n_sent",
            "received counts cannot exceed pulses sent",
        )
        _require(self.f_ec >= 1.0, "f_ec", "must be >= 1")
        _require(self.clock_rate > 0.0, "clock_rate", "must be positive")
        _require(
            self.acquisition_time > 0.0,
            "acquisition_time",
            "must be positive",
        )
        _require(
            self.clock_rate * self.acquisition_time >= self.n_sent * (1.0 - 1e-12),
            "acquisition_time",
            "clock_rate * acquisition_time must cover n_sent",
        )
        _require(
            0.0 <= self.multiphoton_prob < 1.0,
            "multiphoton_prob",
            "must lie in [0, 1)",
        )

    @property
    def n_sift(self) -> float:
        return self.n_x + self.n_z

    @property
    def sift_probability_estimate(self) -> float:
        """Sifting ratio inferred from the per-basis counts.

        Matched-basis counts scale with the squared basis probabilities,
        so the bias estimate is sqrt(n_x) / (sqrt(n_x) + sqrt(n_z)).
        Falls back to the balanced value 0.5 when either basis is empty.
        """
        if self.n_x <= 0 or self.n_z <= 0:
            return 0.5
        rx = math.sqrt(self.n_x)
        rz = math.sqrt(self.n_z)
        p = rx / (rx + rz)
        return p * p + (1.0 - p) * (1.0 - p)


@dataclass(frozen=True, slots=True)
class FiniteKeyReport:
    """Finite-size evaluation result for one block."""

    n_nmp_lower: float
    phase_error_upper: float
    lambda_ec: float
    skb_per_pulse: float
    final_key_length: int
    positive: bool


def nonmultiphoton_lower(block: FiniteBlockInput) -> float:
    """Lower bound on the non-multiphoton fraction of the sifted block.

    The adversary is assumed to deliver every multiphoton emission that
    survives basis sifting, so the multiphoton count inside the block is
    upper-bounded by the Chernoff tail of n_sent * multiphoton_prob *
    sift_probability at half the parameter-estimation budget; the bound
    is the received total minus that count, clamped at zero.
    """
    if block.multiphoton_prob == 0.0:
        # the multiphoton count is exactly zero, not merely concentrated
        return block.n_sift
    expected_multi = (
        block.n_sent * block.multiphoton_prob * block.sift_probability_estimate
    )
    multi_upper = chernoff_upper(expected_multi, block.budget.eps_PE / 2.0)
    return max(0.0, block.n_sift - multi_upper)


def phase_error_upper(block: FiniteBlockInput) -> float:
    """Phase-error-rate upper bound for the kept key, at eps_PE/2.

    Extrapolates the error rate observed on the diagonal-basis sample to
    the rectilinear remainder via the without-replacement correction,
    capped at 0.5.
    """
    if block.n_x < 1 or block.n_z < 1:
        raise DegenerateBlockError(
            "phase-error bound needs at least one bit in each basis"
        )
    gamma = serfling_correction(
        block.n_x, block.n_z, block.budget.eps_PE / 2.0
    )
    return min(0.5, block.observed_error_x + gamma)


def ec_leakage(n: float, qber: float, f_ec: float) -> float:
    """Reconciliation leakage model: f_ec * h(qber) * n bits.

    The verification tag is not part of it: the extractable-length
    formula accounts that separately.
    """
    _require(n >= 1, "n", "must be >= 1")
    _require(0.0 <= qber <= 0.5, "qber", "must lie in [0, 0.5]")
    _require(f_ec >= 1.0, "f_ec", "must be >= 1")
    return n * f_ec * binary_entropy(qber)


def finite_skb_per_pulse(
    block: FiniteBlockInput, lambda_ec: float | None = None
) -> FiniteKeyReport:
    """Extractable secret bits per clock pulse for one finite block.

    The extractable length is

        L = n_nmp * (1 - h(phase_bound)) - lambda_ec
            - log2(2/eps_cor) - 2*log2(1/(2*eps_PA))

    clamped at zero, where ``phase_bound`` is the sampled phase-error
    bound rescaled onto the non-multiphoton subset (all errors are
    conservatively attributed to it, mirroring the asymptotic treatment).
    ``lambda_ec`` defaults to the f_ec * h(qber) model on the full sifted
    block with the count-weighted error rate; pass a measured leakage to
    account an actual reconciliation transcript.
    """
    budget = block.budget
    n_sift = block.n_sift
    n_nmp = nonmultiphoton_lower(block)
    if n_sift < 2 or n_nmp <= 0.0:
        return FiniteKeyReport(
            n_nmp_lower=n_nmp,
            phase_error_upper=0.5,
            lambda_ec=0.0,
            skb_per_pulse=0.0,
            final_key_length=0,
            positive=False,
        )
    sampled_bound = phase_error_upper(block)
    phase_bound = min(0.5, sampled_bound * n_sift / n_nmp)
    if lambda_ec is None:
        weighted_qber = (
            block.n_x * block.observed_error_x
            + block.n_z * block.observed_error_z
        ) / n_sift
        lambda_ec = ec_leakage(n_sift, weighted_qber, block.f_ec)
    verification_bits = math.log2(2.0 / budget.eps_cor)
    pa_bits = 2.0 * math.log2(1.0 / (2.0 * budget.eps_PA))
    extractable = (
        n_nmp * (1.0 - binary_entropy(phase_bound))
        - lambda_ec
        - verification_bits
        - pa_bits
    )
    extractable = max(0.0, extractable)
    pulses = block.clock_rate * block.acquisition_time
    return FiniteKeyReport(
        n_nmp_lower=n_nmp,
        phase_error_upper=phase_bound,
        lambda_ec=lambda_ec,
        skb_per_pulse=extractable / pulses,
        final_key_length=int(math.floor(extractable)),
        positive=extractable > 0.0,
    )
