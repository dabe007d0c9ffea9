"""Statistical backing for the experiment tables.

Performance profiles summarise *point* comparisons; this module adds the
uncertainty quantification a careful reader asks for:

* :func:`bootstrap_ci` — percentile bootstrap confidence interval of any
  statistic of one sample (e.g. the mean overhead of an algorithm);
* :func:`paired_permutation_test` — sign-flip permutation test for the
  mean paired difference (does algorithm A really beat B on this
  dataset, or is it seed noise?);
* :func:`wilcoxon_signed_rank` — the classical nonparametric paired test
  (scipy), with the zero-difference degenerate case handled;
* :func:`win_tie_loss` / :func:`pairwise_comparison` — the head-to-head
  tables printed in EXPERIMENTS.md.

All resampling takes an explicit seed: reports must be reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "bootstrap_ci",
    "paired_permutation_test",
    "wilcoxon_signed_rank",
    "win_tie_loss",
    "PairwiseComparison",
    "pairwise_comparison",
]


def bootstrap_ci(
    values: Sequence[float],
    *,
    statistic: Callable[[np.ndarray], float] = np.mean,
    n_boot: int = 2000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap ``(1 - alpha)`` CI of ``statistic(values)``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if arr.size == 1:
        return (float(arr[0]), float(arr[0]))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    boots = np.apply_along_axis(statistic, 1, arr[idx])
    lo, hi = np.quantile(boots, [alpha / 2, 1 - alpha / 2])
    return (float(lo), float(hi))


def paired_permutation_test(
    a: Sequence[float],
    b: Sequence[float],
    *,
    n_perm: int = 5000,
    seed: int = 0,
) -> float:
    """Two-sided sign-flip permutation p-value for ``mean(a - b) != 0``.

    Exact under the null that the paired differences are symmetric around
    zero; it makes no distributional assumption, which matters because
    I/O overheads are heavily skewed.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in length: {a.shape} vs {b.shape}")
    diff = a - b
    observed = abs(diff.mean())
    if np.allclose(diff, 0):
        return 1.0
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(n_perm, diff.size))
    null = np.abs((signs * diff).mean(axis=1))
    # +1 smoothing: the observed statistic is one of the permutations.
    return float((np.sum(null >= observed - 1e-15) + 1) / (n_perm + 1))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Wilcoxon signed-rank p-value (1.0 when all pairs tie)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in length: {a.shape} vs {b.shape}")
    if np.allclose(a, b):
        return 1.0
    from scipy import stats

    return float(stats.wilcoxon(a, b, zero_method="zsplit").pvalue)


def win_tie_loss(
    a: Sequence[float], b: Sequence[float], *, tol: float = 1e-12
) -> tuple[int, int, int]:
    """``(wins, ties, losses)`` of ``a`` against ``b`` (lower is better)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in length: {a.shape} vs {b.shape}")
    wins = int(np.sum(a < b - tol))
    losses = int(np.sum(a > b + tol))
    return wins, int(a.size - wins - losses), losses


@dataclass(frozen=True)
class PairwiseComparison:
    """One head-to-head row of the EXPERIMENTS.md comparison tables."""

    first: str
    second: str
    wins: int
    ties: int
    losses: int
    mean_diff: float
    mean_diff_ci: tuple[float, float]
    p_permutation: float
    p_wilcoxon: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_permutation < alpha


def pairwise_comparison(
    io_volumes: Mapping[str, Sequence[float]],
    *,
    seed: int = 0,
) -> list[PairwiseComparison]:
    """All ordered head-to-head comparisons between algorithms.

    ``io_volumes[alg][i]`` is algorithm ``alg``'s I/O (or performance) on
    instance ``i``; lower is better.  One row per unordered pair.
    """
    names = sorted(io_volumes)
    rows: list[PairwiseComparison] = []
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            a = np.asarray(io_volumes[first], dtype=float)
            b = np.asarray(io_volumes[second], dtype=float)
            wins, ties, losses = win_tie_loss(a, b)
            diff = a - b
            ci = bootstrap_ci(diff, seed=seed) if diff.size > 1 else (diff[0], diff[0])
            rows.append(
                PairwiseComparison(
                    first=first,
                    second=second,
                    wins=wins,
                    ties=ties,
                    losses=losses,
                    mean_diff=float(diff.mean()),
                    mean_diff_ci=ci,
                    p_permutation=paired_permutation_test(a, b, seed=seed),
                    p_wilcoxon=wilcoxon_signed_rank(a, b),
                )
            )
    return rows
