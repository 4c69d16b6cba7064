"""Signatures of piecewise-linear paths: Chen construction and invariances."""

import math

import numpy as np
import pytest

from sigcalc.signature import (
    PiecewisePath,
    is_grouplike,
    path_signature,
    segment_signature,
    time_extend,
)
from sigcalc.tensor import TensorCoeffs, all_words

from conftest import path_to_csv, random_path, random_tensor


def test_segment_signature_1d_closed_form():
    h = -0.8
    N = 7
    sig = segment_signature(np.array([h]), N)
    for k in range(N + 1):
        assert abs(sig[(1,) * k] - h**k / math.factorial(k)) < 1e-14


def test_segment_signature_multidim_closed_form(rng):
    d, N = 3, 4
    v = rng.normal(size=d)
    sig = segment_signature(v, N)
    for w in all_words(d, N):
        expect = 1.0
        for letter in w:
            expect *= v[letter - 1]
        expect /= math.factorial(len(w))
        assert abs(sig[w] - expect) < 1e-13


def test_chen_identity_against_split(rng):
    # signature of the whole path equals the product of the two halves
    d, N = 2, 4
    path = random_path(rng, d, n_segments=6)
    k = 3
    left = PiecewisePath(path.times[: k + 1], path.points[: k + 1])
    right = PiecewisePath(path.times[k:], path.points[k:])
    whole = path_signature(path, N)
    prod = path_signature(left, N).concat(path_signature(right, N))
    assert whole.allclose(prod, tol=1e-12)


def test_collinear_refinement_is_invisible(rng):
    # inserting a point on a straight segment does not change the signature
    d, N = 2, 5
    a = rng.normal(size=d)
    b = rng.normal(size=d)
    coarse = PiecewisePath(np.array([0.0, 1.0]), np.stack([a, b]))
    mid = 0.5 * (a + b)
    fine = PiecewisePath(np.array([0.0, 0.3, 1.0]), np.stack([a, mid, b]))
    assert path_signature(coarse, N).allclose(path_signature(fine, N), tol=1e-12)


def test_translation_invariance(rng):
    d, N = 2, 4
    path = random_path(rng, d)
    shifted = PiecewisePath(path.times, path.points + rng.normal(size=d))
    assert path_signature(path, N).allclose(path_signature(shifted, N), tol=1e-12)


def test_square_loop_level_structure():
    # unit square: level-1 increments vanish, antisymmetric level-2 part
    # equals twice the enclosed area
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    path = PiecewisePath(np.linspace(0.0, 1.0, 5), pts)
    sig = path_signature(path, 2)
    assert abs(sig[(1,)]) < 1e-14 and abs(sig[(2,)]) < 1e-14
    assert abs(sig[(1, 2)] - sig[(2, 1)] - 2.0 * 1.0) < 1e-13


def test_time_extension_pure_time_words(rng):
    d, N = 2, 4
    path = random_path(rng, d)
    ext = time_extend(path)
    assert ext.d == d + 1
    T = float(path.times[-1] - path.times[0])
    sig = path_signature(ext, N)
    for m in range(N + 1):
        assert abs(sig[(1,) * m] - T**m / math.factorial(m)) < 1e-12


def test_time_extension_mixed_word_oracle(rng):
    # <sig, (1, k+1)> = int (s - s_0) dx^k, computed directly per segment
    d, N = 2, 2
    path = random_path(rng, d)
    sig = path_signature(time_extend(path), N)
    t = path.times
    x = path.points
    for k in range(d):
        integral = 0.0
        for i in range(len(t) - 1):
            # dx is linear in s on the segment: int (s - t0) dx
            mid = 0.5 * (t[i] + t[i + 1]) - t[0]
            integral += mid * (x[i + 1, k] - x[i, k])
        assert abs(sig[(1, k + 2)] - integral) < 1e-12


def test_time_extend_twice_rejected(rng):
    path = random_path(rng, 2)
    ext = time_extend(path)
    with pytest.raises(ValueError):
        time_extend(ext)


def test_grouplike_accepts_signatures(rng):
    d, N = 2, 4
    for _ in range(10):
        sig = path_signature(random_path(rng, d), N)
        ok, worst = is_grouplike(sig)
        assert ok and worst < 1e-10


def test_grouplike_rejects_perturbation(rng):
    d, N = 2, 4
    sig = path_signature(random_path(rng, d), N)
    sig[(1, 2)] += 0.05
    ok, worst = is_grouplike(sig)
    assert not ok and worst > 1e-3
    bad = random_tensor(rng, d, N)
    bad[()] = 1.0
    assert not is_grouplike(bad)[0]


def test_grouplike_multiplicativity_witness(rng):
    # <a shuffle b, g> = <a, g><b, g> on signatures
    d, N = 2, 5
    g = path_signature(random_path(rng, d), N)
    for _ in range(10):
        a = random_tensor(rng, d, 2)
        b = random_tensor(rng, d, 2)
        lhs = a.with_truncation(N).shuffle(b.with_truncation(N)).pair(g)
        rhs = a.with_truncation(N).pair(g) * b.with_truncation(N).pair(g)
        assert abs(lhs - rhs) < 1e-10


def test_path_csv_roundtrip(rng):
    path = random_path(rng, 3)
    back = PiecewisePath.from_csv(path_to_csv(path))
    assert np.allclose(back.times, path.times)
    assert np.allclose(back.points, path.points)


def test_path_csv_without_samples_is_rejected():
    with pytest.raises(ValueError, match="at least two samples"):
        PiecewisePath.from_csv("t,x1,x2\n")


def test_path_csv_without_a_coordinate_column_is_rejected():
    # a header of t alone passed, and the signature then failed on an
    # alphabet of size 0
    with pytest.raises(ValueError, match="path header 't' has no coordinate column x1"):
        PiecewisePath.from_csv("t\n0\n1\n")


def test_path_csv_ragged_row_names_its_line():
    text = "t,x1,x2\n0,0,0\n\n1,2\n2,1,1\n"
    with pytest.raises(ValueError, match=r"line 4 has 2 fields, the header 3: '1,2'"):
        PiecewisePath.from_csv(text)


@pytest.mark.parametrize(
    "text", ["t,x1\n0,0\nnan,1\n2,3\n", "t,x1\n0,0\n1,nan\n2,3\n", "t,x1\n0,0\n1,inf\n2,3\n"],
    ids=["nan-time", "nan-point", "inf-point"],
)
def test_path_csv_with_a_non_finite_number_is_rejected(text):
    # a NaN time passed the increasing-times test (nan <= 0 is False), and
    # a NaN point went on into the signature and the report
    with pytest.raises(ValueError, match="must be finite numbers"):
        PiecewisePath.from_csv(text)
