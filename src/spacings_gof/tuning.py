"""Registry of tuning functions h that define the spacings statistics.

Built-ins: greenwood (x^2), moran (-log x), entropy (x log x), rao (|x - m|),
plus the power-divergence family psi_d(x) = (x^(d+1) - 1) / (d (d+1)) for
d >= -1, whose d -> 0 and d -> -1 members are the entropy and moran forms.

A ``TuningFunction`` is immutable and carries the numerical metadata the
moment machinery needs: whether the function is singular at zero (log-type),
the location of an interior kink, an exact polynomial representation when one
exists, and an optional closed form for the conditional mean E h(A + b) used
by the lagged-covariance quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.special import gammainc

from .errors import DerivativeUndefinedError, DomainError

#: |d| (or |d+1|) below this evaluates through the analytic limit form plus
#: d-corrections; the raw closed form loses all precision near the removable
#: singularities of d (d+1).
PD_LIMIT_BAND = 1e-6

BUILTIN_NAMES = ("greenwood", "moran", "entropy", "rao")

_NONLINEAR_FAMILIES = frozenset(BUILTIN_NAMES) | {"power_divergence"}


@dataclass(frozen=True, eq=False)
class TuningFunction:
    """A function applied to each scaled spacing and summed into a statistic.

    ``eval_fn``/``deriv_fn`` are vectorized over numpy arrays.  ``poly`` is an
    exact coefficient tuple (Fractions, low degree first) when h is a
    polynomial, enabling exact rational moment computations.  ``inner_mean``
    optionally maps (shape j, offsets b) to E[h(A + b)] for A ~ Gamma(j).
    """

    name: str
    family: str
    eval_fn: object
    deriv_fn: object = None
    d: float | None = None
    m: int | None = None
    defined_at_zero: bool = False
    log_singular_at_zero: bool = False
    kink: float | None = None
    poly: tuple | None = None
    inner_mean: object = None
    #: set on affine/scale wrappers: family closed forms no longer apply
    derived: bool = False
    cache_key: tuple = field(default=())

    def __post_init__(self):
        if not self.cache_key:
            object.__setattr__(self, "cache_key", (self.family, self.name))
        # affine h makes every standardized statistic degenerate; the named
        # families are non-linear by construction, anything else is checked
        _check_not_affine(self.eval_fn, self.family in _NONLINEAR_FAMILIES)

    def __call__(self, x):
        return self.eval_fn(x)

    def __repr__(self):
        return f"TuningFunction({self.name!r})"


def _check_not_affine(fn, family_asserts: bool):
    # second difference at 1, 2, 3; affine h would make the statistic a
    # deterministic function of the total mass
    if family_asserts:
        return
    dd = float(fn(np.array(1.0)) + fn(np.array(3.0)) - 2.0 * fn(np.array(2.0)))
    if abs(dd) <= 1e-9:
        raise DomainError("tuning function is affine (h(1)+h(3) == 2 h(2)); "
                          "affine h gives a degenerate statistic")


def evaluate(h: TuningFunction, x: float) -> float:
    """Evaluate h at a point, honoring its domain."""
    x = float(x)
    if x < 0 or (x == 0 and not h.defined_at_zero):
        raise DomainError(f"{h.name} requires x > 0, got {x}")
    return float(h.eval_fn(np.asarray(x)))


def evaluate_derivative(h: TuningFunction, x: float) -> float:
    x = float(x)
    if x <= 0:
        raise DomainError(f"derivative of {h.name} requires x > 0, got {x}")
    if h.kink is not None and x == h.kink:
        raise DerivativeUndefinedError(
            f"{h.name} has no derivative at its kink x = {h.kink}")
    if h.deriv_fn is None:
        raise DerivativeUndefinedError(f"{h.name} has no registered derivative")
    return float(h.deriv_fn(np.asarray(x)))


# ---------------------------------------------------------------------------
# Power-divergence family
# ---------------------------------------------------------------------------

def _pd_raw(d):
    c = d * (d + 1.0)

    def ev(x):
        return (np.power(x, d + 1.0) - 1.0) / c

    def dv(x):
        return np.power(x, d) / d

    return ev, dv


def _entropy_eval(x):
    x = np.asarray(x, dtype=float)
    return x * np.log(x)


def _entropy_deriv(x):
    return np.log(x) + 1.0


def _moran_eval(x):
    return -np.log(x)


def _moran_deriv(x):
    return -1.0 / np.asarray(x, dtype=float)


def _pd_near_zero(d):
    # limit form x log x plus d-corrections of the zero-anchored
    # representative; exact to O(d^3)
    def ev(x):
        L = np.log(x)
        c1 = x * L * L / 2.0 - x * L + (x - 1.0)
        c2 = x * L ** 3 / 6.0 - x * L * L / 2.0 + x * L - (x - 1.0)
        return x * L + d * c1 + d * d * c2

    def dv(x):
        L = np.log(x)
        return (L + 1.0) + d * L * L / 2.0 + d * d * L ** 3 / 6.0

    return ev, dv


def _pd_near_neg_one(d):
    e = d + 1.0

    def ev(x):
        L = np.log(x)
        return -L - e * (L + L * L / 2.0) - e * e * (L + L * L / 2.0 + L ** 3 / 6.0)

    def dv(x):
        L = np.log(x)
        return (-1.0 - e * (1.0 + L) - e * e * (1.0 + L + L * L / 2.0)) / x

    return ev, dv


def pd_zero_anchored(d: float, x) -> np.ndarray:
    """The d-family member with its affine-in-x part removed, anchored so the
    value converges pointwise to x log x as d -> 0.

    The raw closed form contains the term (x - 1)(1 - d)/d, which diverges as
    d -> 0 even though it never affects a standardized statistic (affine parts
    of h are annihilated by the linear correction).  Subtracting it gives the
    representative along which continuity in d is meaningful.
    """
    x = np.asarray(x, dtype=float)
    if d == 0 or 0 < abs(d) < PD_LIMIT_BAND:
        return make_power_divergence(d).eval_fn(x)
    return make_power_divergence(d).eval_fn(x) - (x - 1.0) * (1.0 - d) / d


def make_power_divergence(d: float) -> TuningFunction:
    """Member psi_d of the power-divergence family, d >= -1.

    psi_d(x) = (x^(d+1) - 1)/(d (d+1)) for d outside {-1, 0}; psi_0 = x log x
    and psi_(-1) = -log x by continuity.  For 0 < |d| < 1e-6 (resp.
    |d + 1| < 1e-6) evaluation goes through the analytic limit form plus
    d-corrections to avoid the catastrophic cancellation of the raw form.
    The second derivative at 1 is 1 for every d (the normal-limit scale
    parameter of the whole family).
    """
    d = float(d)
    if d < -1:
        raise DomainError(f"power divergence requires d >= -1, got {d}")
    name = f"pd:{d:g}"
    poly = None
    if d == 0:
        ev, dv = _entropy_eval, _entropy_deriv
        sing, dz = True, False
    elif d == -1:
        ev, dv = _moran_eval, _moran_deriv
        sing, dz = True, False
    elif abs(d) < PD_LIMIT_BAND:
        ev, dv = _pd_near_zero(d)
        sing, dz = True, False
    elif abs(d + 1.0) < PD_LIMIT_BAND:
        ev, dv = _pd_near_neg_one(d)
        sing, dz = True, False
    else:
        ev, dv = _pd_raw(d)
        # non-integer d has a branch-point at 0 (fractional power); d <= 0 is
        # singular outright
        sing = (d <= 0) or (d != int(d))
        dz = d > 0
        if d == int(d) and d >= 1:
            k = int(d) + 1
            coeffs = [Fraction(0)] * (k + 1)
            coeffs[0] = -Fraction(1, int(d) * (int(d) + 1))
            coeffs[k] = Fraction(1, int(d) * (int(d) + 1))
            poly = tuple(coeffs)
    return TuningFunction(
        name=name, family="power_divergence", eval_fn=ev, deriv_fn=dv, d=d,
        defined_at_zero=dz, log_singular_at_zero=sing, poly=poly,
        cache_key=("pd", repr(d)),
    )


# ---------------------------------------------------------------------------
# Named built-ins
# ---------------------------------------------------------------------------

def _rao_inner_mean(M: float):
    # E |A + b - M| for A ~ Gamma(j): smooth in b, closed incomplete-gamma form
    def inner(j, b):
        b = np.asarray(b, dtype=float)
        c = np.maximum(M - b, 0.0)
        val = c * (2.0 * gammainc(j, c) - 1.0) + j * (1.0 - 2.0 * gammainc(j + 1, c))
        return np.where(M - b <= 0, j + b - M, val)

    return inner


def builtin(name: str, m: int | None = None) -> TuningFunction:
    """Return a named built-in tuning function.

    ``m`` is required for (and only for) rao, whose h(x) = |x - m| depends on
    the spacing order; rao has no derivative at x = m and is flagged as
    outside the smooth theory (the CLT conditions assume a continuous h'),
    so reports built on it carry a warning while its moments are still
    well-defined.
    """
    if name == "greenwood":
        return TuningFunction(
            name="greenwood", family="greenwood",
            eval_fn=lambda x: np.asarray(x, dtype=float) ** 2,
            deriv_fn=lambda x: 2.0 * np.asarray(x, dtype=float),
            defined_at_zero=True,
            poly=(Fraction(0), Fraction(0), Fraction(1)),
            cache_key=("greenwood",),
        )
    if name == "moran":
        return TuningFunction(
            name="moran", family="moran", eval_fn=_moran_eval,
            deriv_fn=_moran_deriv, log_singular_at_zero=True,
            cache_key=("moran",),
        )
    if name == "entropy":
        return TuningFunction(
            name="entropy", family="entropy", eval_fn=_entropy_eval,
            deriv_fn=_entropy_deriv, log_singular_at_zero=True,
            cache_key=("entropy",),
        )
    if name == "rao":
        if m is None:
            raise DomainError("rao requires the spacing order m")
        mi = int(m)

        def ev(x):
            return np.abs(np.asarray(x, dtype=float) - mi)

        def dv(x):
            return np.sign(np.asarray(x, dtype=float) - mi)

        return TuningFunction(
            name=f"rao(m={mi})", family="rao", eval_fn=ev, deriv_fn=dv, m=mi,
            defined_at_zero=True, kink=float(mi),
            inner_mean=_rao_inner_mean(float(mi)),
            cache_key=("rao", mi),
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


# ---------------------------------------------------------------------------
# Derived functions (internal: affine images and argument scaling)
# ---------------------------------------------------------------------------

def affine_shift(h: TuningFunction, a: float, b: float, c: float) -> TuningFunction:
    """a*h(x) + b*x + c.  Standardized statistics, mu and efficacies are
    invariant under this map (for a != 0); used to test exactly that."""
    if a == 0:
        raise DomainError("affine_shift with a == 0 would make h affine")

    def ev(x):
        x = np.asarray(x, dtype=float)
        return a * h.eval_fn(x) + b * x + c

    dv = None
    if h.deriv_fn is not None:
        def dv(x):  # noqa: E731 -- plain nested def
            return a * h.deriv_fn(x) + b

    inner = None
    if h.inner_mean is not None:
        def inner(j, t):
            return a * h.inner_mean(j, t) + b * (j + np.asarray(t, dtype=float)) + c

    poly = None
    if h.poly is not None:
        fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
        coeffs = [fa * p for p in h.poly]
        while len(coeffs) < 2:
            coeffs.append(Fraction(0))
        coeffs[0] += fc
        coeffs[1] += fb
        poly = tuple(coeffs)
    return replace(
        h, name=f"{a:g}*{h.name}{b:+g}*x{c:+g}", eval_fn=ev, deriv_fn=dv,
        poly=poly, inner_mean=inner, derived=True,
        cache_key=h.cache_key + ("affine", a, b, c),
    )


def scale_argument(h: TuningFunction, s: Fraction) -> TuningFunction:
    """h(s*x): the tuning function as seen through a different spacing
    scaling.  A statistic summing h((n/m) D) equals one summing h~(n D) with
    h~(x) = h(x/m), which is how the normalized scaling reuses the whole
    by-n moment theory."""
    sf = float(s)
    if sf <= 0:
        raise DomainError("argument scale must be positive")

    def ev(x):
        return h.eval_fn(sf * np.asarray(x, dtype=float))

    dv = None
    if h.deriv_fn is not None:
        def dv(x):
            return sf * h.deriv_fn(sf * np.asarray(x, dtype=float))

    inner = None
    if h.inner_mean is not None and h.family == "rao":
        # |s(A+t) - M| = s |A + t - M/s|
        def inner(j, t):
            base = _rao_inner_mean(float(h.m) / sf)
            return sf * base(j, t)

    poly = None
    if h.poly is not None:
        fs = s if isinstance(s, Fraction) else Fraction(s)
        poly = tuple(p * fs ** k for k, p in enumerate(h.poly))
    return replace(
        h, name=f"{h.name}@x*{sf:g}", eval_fn=ev, deriv_fn=dv,
        kink=None if h.kink is None else h.kink / sf, poly=poly,
        inner_mean=inner, derived=True,
        cache_key=h.cache_key + ("scale", repr(s)),
    )
