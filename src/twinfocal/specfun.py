"""Self-contained Bessel functions of the first kind and the Airy amplitude.

Everything downstream (the point spread functions and the coincidence
kernel) reduces to J0 and J1 of real argument, so the accuracy budget of
the whole model is set here.  The functions are evaluated from
scratch rather than delegated to an external special-function library,
at a fixed degree, so every value depends on its own argument alone:

* ``|x| <= 12``: with ``q = x^2/4``, ``J0(x) = 1 + q g_0(q)`` and
  ``2 J1(x)/x = 1 + q g_1(q)``, where ``g_n`` is a degree-18 polynomial
  in ``t = x^2/72 - 1`` evaluated by Horner's rule.  It is the Chebyshev
  interpolant of ``g_n`` converted exactly to the power basis of ``t``,
  whose coefficients sum to 1.06 (n = 0) and 0.50 (n = 1) in magnitude,
  so Horner's rule on ``|t| <= 1`` stays well conditioned.  The form
  keeps ``airy_amp(0) == 1`` exact and ``airy_amp <= 1`` near 0.
* ``|x| > 12``: Hankel's expansion
  ``J_n(x) = sqrt(2/(pi x)) [cos(w) P - sin(w) Q]``,
  ``w = x - (n/2 + 1/4) pi``, where ``P`` and ``x Q`` are polynomials in
  ``1/x^2`` (Horner's rule) that keep the terms up to ``1/x^24``.  At
  ``x = 12`` the smallest term is of order 24 or 25, so the truncation
  error is largest at the switchover and falls off beyond it.  Both
  trigonometric factors come from one tangent, ``t = tan(w/2)``, by the
  exact half-angle identities ``cos w = (1 - t^2)/(1 + t^2)`` and
  ``sin w = 2 t/(1 + t^2)``: one trig call per point instead of two.
  With numpy 2.4 on an AVX-512 CPU, ``tan`` costs about 2.5 ns per
  point and ``sin`` plus ``cos`` 30-55 ns; where numpy falls back to
  the C library's ``tan`` it is still one call, not two.  At the poles of
  ``t`` (``w`` an odd multiple of pi) ``t`` stays finite in floating
  point and the identities hold to rounding, so no point needs a
  second form.

The coefficient tables are written by ``scripts/make_specfun_tables.py``
from the 60-digit reference of the test suite (series coefficients)
and from exact rationals (Hankel coefficients).  Measured against that
reference on 2001 points of [0, 50] plus 12 and the doubles on either
side of it, the largest absolute errors are

    ============  ==========  ==========
    function      ``<= 12``   ``> 12``
    ============  ==========  ==========
    J0            1.3e-14     8.2e-13
    J1            5.5e-14     5.4e-13
    2 J1(x)/x     9.2e-15     9.1e-14
    ============  ==========  ==========

and both Hankel maxima sit at the first double above 12.

All functions accept floats or numpy arrays and return the matching kind.
An array is split between the branches by index (``np.flatnonzero``,
``take`` and indexed assignment), and not at all when one branch covers
it.  Each branch computes in place in arrays it allocated itself, so an
argument is never written and a value depends on its own argument alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_j0", "bessel_j1", "airy_amp"]

# Branch switchover: polynomial in t below, Hankel expansion above.
_SERIES_CUTOFF = 12.0

# Coefficient tables indexed by n, written by scripts/make_specfun_tables.py.
# _SERIES[n]: power-basis coefficients of g_n in t = x^2/72 - 1.
# _HANKEL_P[n], _HANKEL_Q[n]: coefficients of P and x Q in 1/x^2.
_SERIES = (
    (  # n = 0
        -0.053002331904983484,
        -0.011332200242488698,
        0.02052045346108097,
        0.1663576408356167,
        -0.3202985913861522,
        0.2752610669593338,
        -0.14536522627206264,
        0.053327730439552426,
        -0.014547156099315377,
        0.003084908409468578,
        -0.0005250003380865103,
        7.345175215695461e-05,
        -8.610615778765613e-06,
        8.589460600560983e-07,
        -7.381133945472156e-08,
        5.527245328096342e-09,
        -3.875557543034586e-10,
        2.3010926497590845e-11,
        4.149569576838985e-12,
    ),
    (  # n = 1
        -0.05198141488069601,
        0.05096049785640852,
        -0.08210684690585472,
        0.11631594702816514,
        -0.10380552357636938,
        0.060506910014432584,
        -0.02471455052286374,
        0.0074787397015644306,
        -0.0017476158636273438,
        0.00032544472521934864,
        -4.949834286451426e-05,
        6.270894707209132e-06,
        -6.725161951004796e-07,
        6.187873402563326e-08,
        -4.916743355909943e-09,
        3.419748928479293e-10,
        -3.4527480196108796e-11,
        2.1026143789034295e-12,
        3.0505968121966967e-12,
    ),
)
_HANKEL_P = (
    (  # n = 0
        1.0,
        -0.0703125,
        0.112152099609375,
        -0.5725014209747314,
        6.074042001273483,
        -110.01714026924674,
        3038.090510922384,
        -118838.42625678325,
        6252951.493434797,
        -425939216.5047669,
        36468400807.06556,
        -3833534661393.9443,
        485401468685290.06,
    ),
    (  # n = 1
        1.0,
        0.1171875,
        -0.144195556640625,
        0.6765925884246826,
        -6.883914268109947,
        121.59789187653587,
        -3302.2722944808525,
        127641.2726461746,
        -6656367.718817688,
        450278600.3050393,
        -38338575207.427895,
        4011838599133.1978,
        -506056850331472.6,
    ),
)
_HANKEL_Q = (
    (  # n = 0
        -0.125,
        0.0732421875,
        -0.22710800170898438,
        1.7277275025844574,
        -24.380529699556064,
        551.3358961220206,
        -18257.755474293175,
        832859.3040162893,
        -50069589.531988926,
        3836255180.2304335,
        -364901081884.98334,
        42189715702840.97,
    ),
    (  # n = 1
        0.375,
        -0.1025390625,
        0.2775764465332031,
        -1.993531733751297,
        27.248827311268542,
        -603.8440767050702,
        19718.37591223663,
        -890297.8767070678,
        53104110.10968523,
        -4043620325.107754,
        382701134659.8606,
        -44064814178522.79,
    ),
)


# ============================================================================
# evaluation (internal)
# ============================================================================

def _reduced(n: int, x) -> np.ndarray:
    """``J0(|x|)`` for n = 0, ``2 J1(|x|)/|x|`` for n = 1, as an array."""
    ax = np.abs(np.asarray(x, dtype=float))  # a new array, which the branches may overwrite
    # |x| >= 0, so its maximum is finite exactly when every element is (NaN propagates)
    if ax.size and not np.isfinite(ax.max()):
        raise ValueError("bessel argument must be finite")
    flat = ax.reshape(-1)
    large = flat > _SERIES_CUTOFF
    count = np.count_nonzero(large)
    if count == 0:
        flat = _series(n, flat)
    elif count == flat.size:
        flat = _hankel(n, flat)
    else:  # gather each branch's points by index, then scatter the values back
        hi, lo = np.flatnonzero(large), np.flatnonzero(~large)
        above = flat.take(hi)
        flat[lo] = _series(n, flat.take(lo))
        flat[hi] = _hankel(n, above)
    return flat.reshape(ax.shape)


def _series(n: int, a: np.ndarray) -> np.ndarray:
    """``1 + q g_n(q)``, ``q = a^2/4``, for ``0 <= a <= 12``; overwrites ``a``."""
    q = np.multiply(a, a, out=a)
    q *= 0.25
    t = q / 18.0
    t -= 1.0
    acc = _horner(_SERIES[n], t)
    acc *= q
    acc += 1.0
    return acc


def _hankel(n: int, a: np.ndarray) -> np.ndarray:
    """``J_n(a)``, divided by ``a/2`` for n = 1, by Hankel's expansion, for ``a > 12``."""
    y = np.multiply(a, a)
    np.divide(1.0, y, out=y)
    p = _horner(_HANKEL_P[n], y)
    qa = _horner(_HANKEL_Q[n], y)
    qa /= a
    # cos(w) P - sin(w) Q from the one tangent t = tan(w/2)
    t = np.subtract(a, (0.5 * n + 0.25) * np.pi, out=y)
    t *= 0.5
    np.tan(t, out=t)
    qa *= t
    qa *= 2.0
    tt = np.multiply(t, t, out=t)
    p *= 1.0 - tt
    p -= qa
    tt += 1.0
    p /= tt
    # times sqrt(2/(pi a))
    root = np.multiply(a, np.pi, out=qa)
    np.divide(2.0, root, out=root)
    p *= np.sqrt(root, out=root)
    if n == 1:
        p *= 2.0
        p /= a
    return p


def _horner(coeffs: tuple[float, ...], y: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k] y^k``, by Horner's rule, in a new array."""
    acc = y * coeffs[-1]
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= y
        acc += c
    return acc


# ============================================================================
# public API
# ============================================================================

def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Parameters
    ----------
    x : float or ndarray
        Finite real argument.

    Returns
    -------
    float or ndarray
        J0(x).  Even in ``x`` exactly: the sign is dropped before
        evaluation.  Absolute error <= 1e-12 for ``|x| <= 50``.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    out = _reduced(0, x)
    return float(out) if scalar else out


def bessel_j1(x):
    """Bessel function of the first kind, order one.

    Odd symmetry J1(-x) = -J1(x) holds exactly by construction: the
    value is ``x/2`` times the even ``2 J1(|x|)/|x|``.
    Absolute error <= 1e-12 for ``|x| <= 50``.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    arr = np.asarray(x, dtype=float)
    out = _reduced(1, arr)
    out *= 0.5 * arr
    return float(out) if scalar else out


def airy_amp(v):
    """Normalized amplitude of a uniformly lit circular aperture, 2 J1(v)/v.

    The peak is 1 at ``v = 0`` (exactly, by the removable-singularity
    limit) and the first zero sits at v = 3.83171.  Even in ``v``.

    Parameters
    ----------
    v : float or ndarray
        Finite real argument, typically ``(spatial frequency) * radius``.

    Returns
    -------
    float or ndarray
        2 J1(v)/v, bounded by 1 in magnitude.
    """
    scalar = np.isscalar(v) or np.ndim(v) == 0
    out = _reduced(1, v)
    return float(out) if scalar else out
