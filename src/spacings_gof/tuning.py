"""Registry of tuning functions h that define the spacings statistics.

Built-ins: greenwood (x^2), moran (-log x), entropy (x log x), rao (|x - m|),
plus the power-divergence family psi_d(x) = (x^(d+1) - 1) / (d (d+1)) for
finite d >= -1, whose d -> 0 and d -> -1 members are the entropy and moran
forms.

A ``TuningFunction`` is immutable and carries h, but no derivative (no
statistic or moment uses h'), with the numerical metadata the moment
machinery needs: whether the function is singular at zero (log-type), an
exact power form A x^a + B when one exists and its moments can be finite,
and the spacing order h is built for where it depends on one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import ClassVar
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .special_math import _validate_m

#: |d| (or |d+1|) below this evaluates through the analytic limit form plus
#: d-corrections; the raw closed form loses all precision near the removable
#: singularities of d (d+1).
PD_LIMIT_BAND = 1e-6

BUILTIN_NAMES = ("greenwood", "moran", "entropy", "rao")

_NONLINEAR_FAMILIES = frozenset(BUILTIN_NAMES) | {"power_divergence"}


@dataclass(frozen=True, eq=False)
class TuningFunction:
    """A function applied to each scaled spacing and summed into a statistic.

    ``eval_fn`` is h, vectorized over numpy arrays; it must not write into
    its argument, which the statistics on one spacings plan share.
    ``power`` is (A, a, B) with h = A x^a + B, A and B Fractions and a >= 2
    an integer, when h is such a polynomial and its moments can be finite,
    enabling exact rational moment computations.  ``m`` is the spacing order h is
    built for, where it depends on one: rao's |x - m|.  ``inner_mean`` is
    a read-only class attribute, always None: no moment route reads it, but
    the benchmark's traced pass (``bench/layers.py``) does.
    """

    name: str
    family: str
    eval_fn: object
    d: float | None = None
    m: int | None = None
    defined_at_zero: bool = False
    log_singular_at_zero: bool = False
    power: tuple | None = None
    inner_mean: ClassVar[None] = None

    def __post_init__(self):
        # affine h makes every standardized statistic degenerate; the named
        # families are non-linear by construction, anything else is checked
        if self.family not in _NONLINEAR_FAMILIES:
            _check_not_affine(self.eval_fn)

    def __repr__(self):
        return f"TuningFunction({self.name!r})"


def _check_not_affine(fn):
    # an affine h makes the statistic a deterministic function of the total
    # mass.  On the geometric grid x_k = 1e-4 q^k up to 1e4, h(x_k) minus its
    # chord through x_(k-1), x_(k+1) is a positive multiple of a second
    # divided difference; h is refused when every finite one is roundoff
    q = 10 ** (1 / 12)
    with np.errstate(all="ignore"):
        f = np.asarray(fn(1e-4 * q ** np.arange(97)), dtype=float)
        dev = np.abs((1 + q) * f[1:-1] - q * f[:-2] - f[2:])
        scale = np.abs(f[:-2]) + np.abs(f[1:-1]) + np.abs(f[2:])
    finite = np.isfinite(dev)
    if np.all(dev[finite] <= 1e-11 * scale[finite]):
        raise DomainError("tuning function is affine on (0, 1e4]; affine h "
                          "gives a degenerate statistic")


def evaluate(h: TuningFunction, x: float) -> float:
    """Evaluate h at a point, honoring its domain."""
    x = float(x)
    if x < 0 or (x == 0 and not h.defined_at_zero):
        raise DomainError(f"{h.name} requires x > 0, got {x}")
    return float(h.eval_fn(np.asarray(x)))


# ---------------------------------------------------------------------------
# Power-divergence family
# ---------------------------------------------------------------------------

def _pd_raw(d):
    c = d * (d + 1.0)

    def ev(x):
        return (np.power(x, d + 1.0) - 1.0) / c

    return ev


def _entropy_eval(x):
    x = np.asarray(x, dtype=float)
    return x * np.log(x)


def _moran_eval(x):
    return -np.log(x)


def _pd_near_zero(d):
    # limit form x log x plus d-corrections of the zero-anchored
    # representative; exact to O(d^3)
    def ev(x):
        L = np.log(x)
        c1 = x * L * L / 2.0 - x * L + (x - 1.0)
        c2 = x * L ** 3 / 6.0 - x * L * L / 2.0 + x * L - (x - 1.0)
        return x * L + d * c1 + d * d * c2

    return ev


def _pd_near_neg_one(d):
    e = d + 1.0

    def ev(x):
        L = np.log(x)
        return -L - e * (L + L * L / 2.0) - e * e * (L + L * L / 2.0 + L ** 3 / 6.0)

    return ev


def make_power_divergence(d: float) -> TuningFunction:
    """Member psi_d of the power-divergence family, finite d >= -1.

    psi_d(x) = (x^(d+1) - 1)/(d (d+1)) for d outside {-1, 0}; psi_0 = x log x
    and psi_(-1) = -log x by continuity, so those two are the entropy and
    moran functions: their ``family`` says so, and their name and d stay
    their own.  For 0 < |d| < 1e-6 (resp. |d + 1| < 1e-6) evaluation goes
    through the analytic limit form plus d-corrections to avoid the
    catastrophic cancellation of the raw form.
    The second derivative at 1 is 1 for every d (the normal-limit scale
    parameter of the whole family).

    Integer d >= 1 gives a polynomial, kept as ``power`` unless no order m
    has finite moments: with the monic degree-k orthogonal polynomial of
    Gamma(m), whose squared norm is k! (m)_k, sigma*^2 >= c^2 k! (m)_k for
    leading coefficient c and degree k, and at m = 1 this is (c k!)^2.
    """
    d = float(d)
    if not (math.isfinite(d) and d >= -1):
        raise DomainError(f"power divergence requires finite d >= -1, got {d}")
    name = "pd:" + repr(d).removesuffix(".0")
    power = None
    family = "power_divergence"
    sing, dz = True, False  # the log-type members
    if d == 0:
        family, ev = "entropy", _entropy_eval
    elif d == -1:
        family, ev = "moran", _moran_eval
    elif abs(d) < PD_LIMIT_BAND:
        ev = _pd_near_zero(d)
    elif abs(d + 1.0) < PD_LIMIT_BAND:
        ev = _pd_near_neg_one(d)
    else:
        ev = _pd_raw(d)
        # non-integer d has a branch-point at 0 (fractional power); d <= 0 is
        # singular outright
        sing = (d <= 0) or (d != int(d))
        dz = d > 0
        k = int(d) + 1
        try:  # past d = 2.5e305 log k! overflows: no m has finite moments
            finite = d == int(d) and d >= 1 and math.lgamma(k + 1.0) \
                - math.log((k - 1) * k) <= math.log(sys.float_info.max) / 2
        except OverflowError:
            finite = False
        if finite:
            c = Fraction(1, (k - 1) * k)
            power = (c, k, -c)
    return TuningFunction(
        name=name, family=family, eval_fn=ev, d=d,
        defined_at_zero=dz, log_singular_at_zero=sing, power=power,
    )


# ---------------------------------------------------------------------------
# Named built-ins
# ---------------------------------------------------------------------------

def builtin(name: str, m: int | None = None) -> TuningFunction:
    """Return a named built-in tuning function.

    moran and entropy are psi_(-1) and psi_0 of ``make_power_divergence``
    under their own names.  ``m`` is required for (and only for) rao, whose
    h(x) = |x - m| depends on the spacing order; rao has no derivative at
    x = m and is outside the smooth theory (the CLT conditions assume a
    continuous h'), so ``test`` reports on it carry a warning while its
    moments are still well-defined.
    """
    if name == "greenwood":
        return TuningFunction(
            name="greenwood", family="greenwood",
            eval_fn=lambda x: np.asarray(x, dtype=float) ** 2,
            defined_at_zero=True,
            power=(Fraction(1), 2, Fraction(0)),
        )
    if name in ("moran", "entropy"):
        return replace(make_power_divergence(-1.0 if name == "moran" else 0.0),
                       name=name)
    if name == "rao":
        if m is None:
            raise DomainError("rao requires the spacing order m")
        mi = _validate_m(m)

        def ev(x):
            return np.abs(np.asarray(x, dtype=float) - mi)

        return TuningFunction(
            name=f"rao(m={mi})", family="rao", eval_fn=ev, m=mi,
            defined_at_zero=True,
        )
    raise DomainError(f"unknown tuning function {name!r}; "
                      f"choose from {BUILTIN_NAMES} or pd:<d>")


def from_name(name: str, m: int | None = None) -> TuningFunction:
    """Parse a CLI-style name: greenwood | moran | entropy | rao | pd:<d>."""
    if name.startswith("pd:"):
        try:
            d = float(name[3:])
        except ValueError:
            raise DomainError(f"bad power-divergence index in {name!r}")
        return make_power_divergence(d)
    return builtin(name, m=m)
