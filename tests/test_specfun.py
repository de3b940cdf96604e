"""Bessel and Airy-amplitude evaluation accuracy and identities."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_j0, reference_j0_far, reference_j1, reference_jn

from twinfocal import coincidence, specfun
from twinfocal.specfun import airy_amp, bessel_j0, bessel_j1

# Classic frozen values (series-verified to 50 digits by the reference
# oracle; literals kept for readability).
J0_AT_1 = 0.7651976865579666
J1_AT_1 = 0.4400505857449335
J0_FIRST_ZERO = 2.404825557695773
J1_FIRST_ZERO = 3.831705970207512


def test_frozen_point_values():
    assert bessel_j0(1.0) == pytest.approx(J0_AT_1, abs=1e-14)
    assert bessel_j1(1.0) == pytest.approx(J1_AT_1, abs=1e-14)
    assert reference_j0(1.0) == pytest.approx(J0_AT_1, abs=1e-15)
    assert reference_j1(1.0) == pytest.approx(J1_AT_1, abs=1e-15)


def test_first_zeros():
    assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-12
    assert abs(bessel_j1(J1_FIRST_ZERO)) < 1e-12
    # airy_amp shares J1's zeros
    assert abs(airy_amp(J1_FIRST_ZERO)) < 1e-12


def test_accuracy_against_reference_series_both_branches():
    """Absolute error <= 1e-12 across [0, 50], covering the series branch,
    the asymptotic branch, and the switchover at |x| = 12 with the doubles
    on either side of it."""
    xs = np.concatenate([
        np.linspace(0.0, 50.0, 2001),
        np.array([11.999999999, np.nextafter(12.0, 0.0), 12.0,
                  np.nextafter(12.0, 13.0), 12.000000001, 11.5, 12.5]),
    ])
    j0 = bessel_j0(xs)
    j1 = bessel_j1(xs)
    amp = airy_amp(xs)
    for x, v0, v1, a in zip(xs, j0, j1, amp):
        r1 = reference_j1(float(x))
        assert abs(v0 - reference_j0(float(x))) <= 1e-12
        assert abs(v1 - r1) <= 1e-12
        assert abs(a - (2.0 * r1 / x if x else 1.0)) <= 1e-12


def test_j0_accuracy_up_to_the_grating_bound():
    """Absolute error <= 1e-12 from 50 up to ``coincidence._MAX_BESSEL_ARG``,
    the largest ``q r`` at which a grating's twin transfer values call
    ``bessel_j0``, and at the bound itself."""
    bound = coincidence._MAX_BESSEL_ARG
    xs = np.concatenate([np.geomspace(50.0, bound, 2001), [np.nextafter(bound, 0.0)]])
    for x, value in zip(xs, bessel_j0(xs)):
        assert abs(value - reference_j0_far(float(x))) <= 1e-12


def test_accuracy_at_the_half_angle_poles():
    """The Hankel branch forms cos(w) and sin(w) from ``t = tan(w/2)``,
    which is infinite where ``w = (2m + 1) pi``: at ``x = (2m + 1) pi +
    pi/4`` for J0 and ``+ 3 pi/4`` for J1.  Every such ``x`` in (12, 50],
    with the 3 doubles on either side, stays finite and within 1e-12."""
    for fn, reference, shift in ((bessel_j0, reference_j0, 0.25 * math.pi),
                                 (bessel_j1, reference_j1, 0.75 * math.pi)):
        poles = [x for x in (k * math.pi + shift for k in range(1, 17, 2)) if 12.0 < x <= 50.0]
        assert len(poles) == 6
        for pole in poles:
            xs = [pole]
            for direction in (0.0, 100.0):
                x = pole
                for _ in range(3):
                    x = float(np.nextafter(x, direction))
                    xs.append(x)
            values = fn(np.array(xs))
            assert np.all(np.isfinite(values))
            for x, value in zip(xs, values):
                assert abs(value - reference(x)) <= 1e-12
                assert fn(x) == value


def test_recurrence_identity():
    """J0(x) + J2(x) = (2/x) J1(x) on a dense grid."""
    xs = np.linspace(0.1, 30.0, 500)
    j2 = np.array([reference_jn(2, float(x)) for x in xs])
    lhs = bessel_j0(xs) + j2
    rhs = 2.0 / xs * bessel_j1(xs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_derivative_identity():
    """J0'(x) = -J1(x), checked by central differences of J0.

    The step balances truncation against the ~5e-13 evaluation error
    (noise/h + h^2/6 is minimized near h = 1e-4, giving ~1e-8)."""
    xs = np.linspace(0.2, 40.0, 300)
    h = 1e-4
    deriv = (bessel_j0(xs + h) - bessel_j0(xs - h)) / (2.0 * h)
    assert np.max(np.abs(deriv + bessel_j1(xs))) <= 5e-8


def test_parity():
    xs = np.linspace(0.1, 49.0, 97)
    assert np.array_equal(bessel_j0(-xs), bessel_j0(xs))
    assert np.array_equal(bessel_j1(-xs), -bessel_j1(xs))
    assert np.array_equal(airy_amp(-xs), airy_amp(xs))


def test_airy_amp_basics():
    assert airy_amp(0.0) == 1.0
    for tiny in (5e-324, 1e-300, 1e-8, 1e-4):
        assert airy_amp(tiny) <= 1.0 and airy_amp(-tiny) <= 1.0
    vs = np.linspace(0.0, 100.0, 4001)
    vals = airy_amp(vs)
    assert np.all(np.abs(vals) <= 1.0)
    # interior values match 2 J1(v)/v
    inner = vs[1:]
    assert np.allclose(airy_amp(inner), 2.0 * bessel_j1(inner) / inner,
                       rtol=0.0, atol=1e-15)


def test_values_do_not_depend_on_the_array_around_them():
    """Fixed-degree evaluation: scalar, whole-array and chunked evaluation
    give identical bits, so scans are bit-identical for any chunking."""
    xs = np.linspace(0.0, 50.0, 20001)
    for fn in (airy_amp, bessel_j0, bessel_j1):
        whole = fn(xs)
        chunked = np.concatenate([fn(xs[:7919]), fn(xs[7919:])])
        scalars = np.array([fn(float(x)) for x in xs])
        assert whole.tobytes() == chunked.tobytes()
        assert whole.tobytes() == scalars.tobytes()


@pytest.mark.parametrize("xs", [
    np.linspace(0.0, 12.0, 997),
    np.linspace(np.nextafter(12.0, 13.0), 50.0, 997),
    np.linspace(-50.0, 50.0, 997),
], ids=["series", "hankel", "mixed"])
def test_values_do_not_depend_on_the_branch_split(xs):
    """The series and Hankel branches each take the whole array when it
    lies on one side of 12, and only their own indices otherwise.  Whole,
    chunked, reversed, two-dimensional (Fortran order), 0-d and scalar
    evaluation give identical bits in all three cases."""
    for fn in (airy_amp, bessel_j0, bessel_j1):
        whole = fn(xs)
        chunked = np.concatenate([fn(xs[:389]), fn(xs[389:])])
        scalars = np.array([fn(float(x)) for x in xs])
        zero_d = np.array([fn(np.array(x)) for x in xs])
        columns = fn(np.asfortranarray(np.stack([xs, xs[::-1]], axis=1)))
        for other in (chunked, scalars, zero_d, fn(xs[::-1])[::-1], columns[:, 0],
                      columns[::-1, 1]):
            assert whole.tobytes() == np.ascontiguousarray(other).tobytes()


def test_inputs_are_not_written():
    """Every branch works in arrays of its own: the argument keeps its bits."""
    for xs in (np.linspace(0.0, 12.0, 101), np.linspace(12.5, 50.0, 101),
               np.linspace(-50.0, 50.0, 101), np.array(3.0), np.array(30.0)):
        before = xs.copy()
        for fn in (airy_amp, bessel_j0, bessel_j1):
            fn(xs)
            assert xs.tobytes() == before.tobytes()


@pytest.mark.parametrize("xs", [
    np.linspace(0.0, 12.0, 997),
    np.linspace(np.nextafter(12.0, 13.0), 50.0, 997),
    np.linspace(-50.0, 50.0, 997),
    np.linspace(-50.0, 13.0, 997),
], ids=["series", "hankel", "mixed", "mostly_series"])
def test_workspace_values_equal_fresh_arrays(xs):
    """Inside a workspace, and written over the argument with ``out``,
    every function gives the bits of its allocating evaluation.  The
    result is the workspace's first array, the only one still held after
    the call."""
    work = specfun.Workspace(np.empty(64 * xs.size, dtype=np.uint8))
    for fn in (airy_amp, bessel_j0, bessel_j1):
        fresh = fn(xs)
        with work.use():
            held = fn(xs)
            assert np.shares_memory(held, work._buffer)
            assert held.tobytes() == fresh.tobytes()
            assert work.held == xs.nbytes
            work.clear()
    over = xs.copy()
    assert airy_amp(over, out=over) is over
    assert over.tobytes() == airy_amp(xs).tobytes()
    for bad in (np.empty(2 * xs.size)[::2], np.empty(xs.size, dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            airy_amp(xs, out=bad)


def test_workspace_alignment_give_back_and_overflow():
    """Arrays start 64 bytes apart at least and take the operands' broadcast
    shape; setting ``held`` back gives the later arrays back; an array that
    does not fit, like any array of a workspace without a buffer (every
    thread's outside ``use``), is left to numpy."""
    work = specfun.Workspace(np.empty(1024, dtype=np.uint8))
    first = work.out(np.zeros(3))
    held = work.held
    inner = work.out(np.zeros((2, 1)), np.zeros(2), dtype=complex)
    assert inner.shape == (2, 2) and inner.dtype == complex
    assert inner.ctypes.data - first.ctypes.data == 64
    work.held = held
    again = work.out(np.zeros(4), dtype=bool)
    assert again.ctypes.data == inner.ctypes.data
    assert work.out(np.zeros(200)) is None
    assert specfun._workspace().out(np.zeros(3)) is None
    with work.use():
        assert specfun._workspace() is work
    assert specfun._workspace() is not work


def test_tables_match_their_generator():
    """The committed series table is exactly what
    scripts/make_specfun_tables.py builds."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_specfun_tables.py"
    spec = importlib.util.spec_from_file_location("make_specfun_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert specfun._SERIES == module.build_tables()


def test_hankel_tables_match_the_closed_form():
    """Each Hankel coefficient is the double nearest Abramowitz & Stegun's
    closed form ``a_k = prod_{i<=k} (4 n^2 - (2i - 1)^2) / (k! 8^k)``
    (9.2.9-10), with ``P_j = (-1)^j a_2j`` and ``Q_j = (-1)^j a_(2j+1)``
    for k up to 24."""
    for n in (0, 1):
        a = [Fraction(math.prod(4 * n * n - (2 * i - 1) ** 2 for i in range(1, k + 1)),
                      math.factorial(k) * 8 ** k) for k in range(25)]
        assert specfun._HANKEL_P[n] == tuple(float((-1) ** j * a[2 * j]) for j in range(13))
        assert specfun._HANKEL_Q[n] == tuple(float((-1) ** j * a[2 * j + 1]) for j in range(12))


def test_scalar_and_array_return_types():
    assert isinstance(bessel_j0(0.5), float)
    assert isinstance(bessel_j1(np.float64(0.5)), float)
    assert isinstance(airy_amp(0.5), float)
    out = bessel_j0(np.array([0.5, 13.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_non_finite_input_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bessel_j0(bad)
        with pytest.raises(ValueError):
            bessel_j1(np.array([0.1, bad]))
        with pytest.raises(ValueError):
            airy_amp(bad)

