"""Circular m-spacings of a sorted sample and the spacings statistics.

Conventions: sample X_1 <= ... <= X_(n-1) in [0, 1] with X_0 = 0, X_n = 1 and
the circular extension X_k = 1 + X_(k-n) for k > n.  Overlapping m-spacings
are D_k = X_(k+m) - X_k for k = 0..n-1 (n of them, total mass m); disjoint
m-spacings take every m-th start index (n/m of them, total mass 1).

A null sample needs no order statistics: with n iid standard exponentials
Y_0..Y_(n-1) and S their sum, D_k is the circular window sum
Y_k + ... + Y_(k+m-1) over S (Pyke 1965), so the simulations form the
spacings straight from the draws (``scaled_spacings_from_draws``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpacingError, DomainError
from .special_math import _validate_m
from .tuning import TuningFunction


@dataclass(frozen=True)
class SortedSample:
    """n-1 sorted observations in [0, 1]; n is the sample parameter."""

    values: np.ndarray
    has_ties: bool = False

    @property
    def n(self) -> int:
        return self.values.size + 1


@dataclass(frozen=True)
class SpacingsPlan:
    """Which statistic to build: order m, overlapping/disjoint starts, and
    whether spacings are scaled by n or by n/m (the latter requires m | n,
    as does disjoint mode)."""

    m: int
    mode: str = "overlapping"
    scaling: str = "by_n"

    def __post_init__(self):
        if self.mode not in ("overlapping", "disjoint"):
            raise DomainError(f"mode must be overlapping|disjoint, got {self.mode!r}")
        if self.scaling not in ("by_n", "normalized"):
            raise DomainError(f"scaling must be by_n|normalized, got {self.scaling!r}")
        _validate_m(self.m)

    def validate_for(self, n: int):
        if not 1 <= self.m < n:
            raise DomainError(f"need 1 <= m < n, got m={self.m}, n={n}")
        if (self.mode == "disjoint" or self.scaling == "normalized") and n % self.m:
            raise DomainError(
                f"m={self.m} does not divide n={n}, required for "
                f"{'disjoint mode' if self.mode == 'disjoint' else 'normalized scaling'}")

    def scale_factor(self, n: int) -> float:
        return float(n) if self.scaling == "by_n" else n / self.m


def validate_sample(raw) -> SortedSample:
    """Sort (if needed), range-check, and wrap a raw sequence of reals.

    The sample parameter is n = count + 1.  Ties are allowed but flagged:
    they are a probability-zero event for continuous data and make log-type
    statistics degenerate.
    """
    x = np.asarray(list(raw), dtype=float)
    if x.size < 1:
        raise DomainError("need at least 1 observation")
    bad = np.where((x < 0.0) | (x > 1.0) | ~np.isfinite(x))[0]
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"observation {i + 1} = {float(x[i])} outside [0, 1]")
    if np.any(np.diff(x) < 0):
        x = np.sort(x)
    ties = bool(np.any(np.diff(x) == 0.0))
    return SortedSample(values=x, has_ties=ties)


def read_sample_file(path) -> SortedSample:
    """Read one observation per line; '# n=<int>' header asserts intended n."""
    expected_n = None
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                body = s[1:].strip()
                if body.startswith("n="):
                    try:
                        expected_n = int(body[2:])
                    except ValueError:
                        raise DomainError(f"{path}: line {lineno}: header n "
                                          f"is not an integer: {s!r}")
                continue
            try:
                vals.append(float(s))
            except ValueError:
                raise DomainError(f"{path}: line {lineno}: not a number: {s!r}")
    sample = validate_sample(vals)
    if expected_n is not None and sample.n != expected_n:
        raise DomainError(
            f"{path}: header asserts n={expected_n} but file has "
            f"{len(vals)} observations (n={sample.n})")
    return sample


def _extended(values: np.ndarray, m: int) -> np.ndarray:
    # X_0..X_n plus the circular continuation X_(n+i) = 1 + X_i, i < m,
    # along the last axis
    n = values.shape[-1] + 1
    base = np.empty(values.shape[:-1] + (n + m,))
    base[..., 0] = 0.0
    base[..., 1:n] = values
    base[..., n] = 1.0
    if m > 1:
        base[..., n + 1:] = 1.0 + values[..., : m - 1]
    return base


def _spacings(values: np.ndarray, m: int, mode: str) -> np.ndarray:
    """m-spacings of each sorted sample along the last axis of ``values``
    (n-1 observations each): n overlapping or n/m disjoint ones."""
    n = values.shape[-1] + 1
    if mode == "overlapping":
        ext = _extended(values, m)
        return ext[..., m: m + n] - ext[..., :n]
    ext = _extended(values, 1)
    return ext[..., m:: m] - ext[..., :-1: m]


def spacings(s: SortedSample, m: int, mode: str) -> np.ndarray:
    """The circular m-spacings of a sample: all n overlapping ones
    X_(k+m) - X_k, k = 0..n-1, which sum to m, or the n/m disjoint ones,
    which sum to 1.

    The plan's checks apply, with one exception: disjoint mode allows m = n
    (one spacing covering the whole interval), although plans that build
    statistics still require m < n.
    """
    plan = SpacingsPlan(m, mode)
    if not (mode == "disjoint" and m == s.n):
        plan.validate_for(s.n)
    return _spacings(s.values, m, mode)


def sum_h(d: np.ndarray, h: TuningFunction) -> np.ndarray:
    """The sum of h over each row of scaled spacings d, NaN for a row with a
    zero spacing under an h that is not defined at zero.

    Each row is reduced on its own by numpy's pairwise summation (error
    O(eps log n)), so a sample's statistic does not depend on how many
    samples are stacked with it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sum(h.eval_fn(d), axis=-1)
    return out if h.defined_at_zero else \
        np.where((d <= 0.0).any(axis=-1), np.nan, out)


def scaled_spacings(values: np.ndarray, plan: SpacingsPlan) -> np.ndarray:
    """c * D_k, c = n or n/m, over the planned spacings of each sorted sample
    along the last axis of ``values`` (n-1 observations each; n is
    validated against the plan by the caller)."""
    n = values.shape[-1] + 1
    d = _spacings(values, plan.m, plan.mode)
    d *= plan.scale_factor(n)
    return d


def _gap_sums(y: np.ndarray, m: int, mode: str) -> np.ndarray:
    """The m-spacings of the null samples that the rows of exponential draws
    y represent, times each row's total: block sums of m draws (disjoint),
    or circular window sums as differences of one cumulative sum over the
    row extended by its first m-1 draws (overlapping; at m = 1 the windows
    are the draws themselves)."""
    n = y.shape[-1]
    if mode == "disjoint" or m == 1:
        return np.add.reduceat(y, np.arange(0, n, m), axis=-1)
    c = np.empty(y.shape[:-1] + (n + m,))
    c[..., 0] = 0.0
    c[..., 1: n + 1] = y
    c[..., n + 1:] = y[..., : m - 1]
    np.cumsum(c[..., 1:], axis=-1, out=c[..., 1:])
    return c[..., m:] - c[..., :n]


def scaled_spacings_from_draws(y: np.ndarray, plan: SpacingsPlan) -> np.ndarray:
    """``scaled_spacings`` of the null samples that the rows of y represent:
    row y_0..y_(n-1) of standard exponentials stands for the sorted sample
    of its n-1 partial sums over the row total S, whose m-spacings are sums
    of m draws over S (n along the last axis; validated by the caller).

    Agrees with ``scaled_spacings`` on those partial sums to rounding, not
    bit for bit: differences of partial sums lose digits that sums of draws
    keep.  S is numpy's pairwise sum along the row, so a row's spacings do
    not depend on how many rows are stacked with it.
    """
    d = _gap_sums(y, plan.m, plan.mode)
    d *= plan.scale_factor(y.shape[-1]) / y.sum(axis=-1, keepdims=True)
    return d


def statistic(s: SortedSample, plan: SpacingsPlan, h: TuningFunction) -> float:
    """The statistic of one sample: the sum of h(c * D_k) over the planned
    spacings, c = n or n/m.

    A zero spacing combined with an h that is singular (or undefined) at
    zero raises a degenerate-spacing error naming the first offending index.
    """
    plan.validate_for(s.n)
    d = scaled_spacings(s.values, plan)
    value = float(sum_h(d, h))
    if math.isnan(value) and not h.defined_at_zero:
        zero = np.flatnonzero(d <= 0.0)
        if zero.size:
            k = int(zero[0])
            raise DegenerateSpacingError(
                f"zero spacing at index {k} with tuning function {h.name}, "
                f"which is not defined at 0 (tied observations?)", index=k)
    return value
