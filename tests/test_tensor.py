"""Tensor-algebra layer: words, products, exp/log, shifts, norms."""

import itertools
import math

import numpy as np
import pytest

from sigcalc.tensor import (
    Partition,
    TensorCoeffs,
    all_words,
    index_word,
    level_offsets,
    n_words,
    shuffle_word_pair,
    tables,
    word_index,
    words_of_level,
)

from conftest import concat_exp, random_tensor, shift1, shift2, tables_reference


# -- word indexing -----------------------------------------------------------


@pytest.mark.parametrize("d,N", [(1, 6), (2, 5), (3, 4)])
def test_word_index_bijection(d, N):
    seen = set()
    for w in all_words(d, N):
        k = word_index(w, d)
        assert index_word(k, d) == w
        seen.add(k)
    assert seen == set(range(n_words(d, N)))


def test_level_layout():
    d, N = 3, 4
    offs = level_offsets(d, N)
    assert offs[0] == 0
    for n in range(N + 1):
        ws = list(words_of_level(d, n))
        assert len(ws) == d**n
        assert [word_index(w, d) for w in ws] == list(
            range(offs[n], offs[n] + d**n)
        )


@pytest.mark.parametrize(
    "d,N", [(1, 0), (1, 5), (2, 0), (2, 3), (2, 6), (3, 4), (4, 3)]
)
def test_tables_match_the_word_by_word_build(d, N):
    tab = tables(d, N)
    ref = tables_reference(d, N)
    assert len(ref) == 10
    for name, want in ref.items():
        got = getattr(tab, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


# -- shuffle product ---------------------------------------------------------


def oracle_shuffle(left, right):
    """Brute-force shuffle: sum over interleavings picked by position sets."""
    n, m = len(left), len(right)
    counts = {}
    for pos in itertools.combinations(range(n + m), n):
        word = [None] * (n + m)
        it_l = iter(left)
        it_r = iter(right)
        pos = set(pos)
        for i in range(n + m):
            word[i] = next(it_l) if i in pos else next(it_r)
        word = tuple(word)
        counts[word] = counts.get(word, 0) + 1
    return counts


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shuffle_words_match_bruteforce(rng, d):
    words = [w for w in all_words(d, 3)]
    for _ in range(60):
        a = words[rng.integers(len(words))]
        b = words[rng.integers(len(words))]
        got = dict(shuffle_word_pair(a, b))
        assert got == oracle_shuffle(a, b)


def test_shuffle_unit_and_grading(rng):
    d, N = 2, 4
    one = TensorCoeffs.unit(d, N)
    u = random_tensor(rng, d, N)
    assert one.shuffle(u).allclose(u)
    a = TensorCoeffs.basis(d, N, (1, 2))
    b = TensorCoeffs.basis(d, N, (2,))
    prod = a.shuffle(b)
    words = list(all_words(d, N))
    for k in np.flatnonzero(prod.coeffs):
        assert len(words[k]) == 3


def test_shuffle_commutative_associative(rng):
    d, N = 2, 4
    for _ in range(25):
        a = random_tensor(rng, d, N)
        b = random_tensor(rng, d, N)
        c = random_tensor(rng, d, N)
        assert a.shuffle(b).allclose(b.shuffle(a), tol=1e-12)
        assert a.shuffle(b).shuffle(c).allclose(a.shuffle(b.shuffle(c)), tol=1e-11)
        lhs = a.shuffle(b + c)
        assert lhs.allclose(a.shuffle(b) + a.shuffle(c), tol=1e-11)


def test_concat_associative_unit(rng):
    d, N = 3, 4
    one = TensorCoeffs.unit(d, N)
    for _ in range(25):
        a = random_tensor(rng, d, N)
        b = random_tensor(rng, d, N)
        c = random_tensor(rng, d, N)
        assert a.concat(b).concat(c).allclose(a.concat(b.concat(c)), tol=1e-11)
        assert one.concat(a).allclose(a)
        assert a.concat(one).allclose(a)


def test_symmetrization_identity(rng):
    d, N = 2, 5
    for word in [(1,), (1, 2), (2, 2), (1, 2, 2), (1, 1, 2, 2)]:
        prod = TensorCoeffs.unit(d, N)
        for letter in word:
            prod = prod.shuffle(TensorCoeffs.basis(d, N, (letter,)))
        # oracle: the product of the multiplicity factorials times the sum
        # over the distinct rearrangements of the word
        sym = TensorCoeffs.zero(d, N)
        for w in set(itertools.permutations(word)):
            sym[w] = 1.0
        mult = math.prod(math.factorial(word.count(l)) for l in set(word))
        assert prod.allclose(mult * sym, tol=1e-12)


# -- exp / log ---------------------------------------------------------------


def test_shuffle_exp_log_roundtrip(rng):
    d, N = 2, 5
    for _ in range(25):
        u = random_tensor(rng, d, N)
        assert u.shuffle_exp().shuffle_log().allclose(u, tol=1e-10)
        g = random_tensor(rng, d, N)
        g[()] = 1.0 + rng.uniform(0.2, 1.0)
        assert g.shuffle_log().shuffle_exp().allclose(g, tol=1e-10)


def test_shuffle_exp_is_multiplicative(rng):
    # shuffle is commutative, so exp(u+v) = exp(u) shuffle exp(v) always
    d, N = 2, 4
    for _ in range(10):
        u = random_tensor(rng, d, N)
        v = random_tensor(rng, d, N)
        assert (u + v).shuffle_exp().allclose(
            u.shuffle_exp().shuffle(v.shuffle_exp()), tol=1e-10
        )


def test_shuffle_exp_scalar_series():
    d, N = 1, 6
    u = TensorCoeffs.zero(d, N)
    u[()] = 0.7
    e = u.shuffle_exp()
    assert abs(e[()] - math.exp(0.7)) < 1e-14


def test_concat_exp_matches_segment_series():
    # concat-exp of a level-1 element reproduces v^{(x) k}/k!
    d, N = 2, 5
    v = TensorCoeffs.zero(d, N)
    v[(1,)] = 0.3
    v[(2,)] = -1.1
    e = concat_exp(v)
    for w in all_words(d, N):
        expect = 1.0
        for letter in w:
            expect *= 0.3 if letter == 1 else -1.1
        expect /= math.factorial(len(w))
        assert abs(e[w] - expect) < 1e-12


# -- shifts (the reference helpers in conftest), dilation, pairing -----------


def test_shift1_examples():
    d, N = 2, 3
    u = TensorCoeffs.basis(d, N, (1, 2))
    s = shift1(u)
    assert s[1].allclose(TensorCoeffs.basis(d, N - 1, (1,)))
    assert np.allclose(s[0].coeffs, 0.0)

    u2 = TensorCoeffs.basis(d, N, (2, 1)) + TensorCoeffs.basis(d, N, (1,))
    s2 = shift1(u2)
    expect = TensorCoeffs.basis(d, N - 1, (2,)) + TensorCoeffs.unit(d, N - 1)
    assert s2[0].allclose(expect)


def test_shift_pairing_adjoint(rng):
    # <shift1(u)[k], x> equals <u, x e_k> (append letter k+1 on the right)
    d, N = 2, 4
    for _ in range(20):
        u = random_tensor(rng, d, N)
        x = random_tensor(rng, d, N - 1)
        s = shift1(u)
        for k in range(d):
            rhs = 0.0 + 0.0j
            for w in all_words(d, N - 1):
                rhs += u[w + (k + 1,)] * x[w]
            assert abs(s[k].pair(x) - rhs) < 1e-12


def test_exp_shift_identities(rng):
    # right shifts of a shuffle exponential factor through the exponential
    d, N = 2, 5
    for _ in range(10):
        u = random_tensor(rng, d, N, zero_scalar=True)
        e = u.shuffle_exp()
        u1 = shift1(u)
        e1 = shift1(e)
        eN1 = e.with_truncation(N - 1)
        for k in range(d):
            assert e1[k].allclose(eN1.shuffle(u1[k]), tol=1e-10)
        u2 = shift2(u)
        e2 = shift2(e)
        eN2 = e.with_truncation(N - 2)
        u1s = [c.with_truncation(N - 2) for c in u1]
        for k in range(d):
            for l in range(d):
                rhs = eN2.shuffle(u2[k][l] + u1s[l].shuffle(u1s[k]))
                assert e2[k][l].allclose(rhs, tol=1e-10)


def test_dilation(rng):
    d, N = 2, 4
    u = random_tensor(rng, d, N)
    v = random_tensor(rng, d, N)
    lam = 0.7 - 0.2j
    scale = lam ** np.array([len(w) for w in all_words(d, N)])

    def dilate(x):
        return TensorCoeffs(d, N, x.coeffs * scale)

    # both products are graded, so dilation is an algebra homomorphism
    assert dilate(u.shuffle(v)).allclose(dilate(u).shuffle(dilate(v)), tol=1e-11)
    assert dilate(u.concat(v)).allclose(dilate(u).concat(dilate(v)), tol=1e-11)


def test_pair_bilinear(rng):
    d, N = 2, 4
    u = random_tensor(rng, d, N)
    v = random_tensor(rng, d, N)
    x = random_tensor(rng, d, N)
    assert abs((u + v).pair(x) - u.pair(x) - v.pair(x)) < 1e-12
    assert abs((2.5 * u).pair(x) - 2.5 * u.pair(x)) < 1e-12
    for w in [(), (2,), (1, 2, 1)]:
        assert abs(TensorCoeffs.basis(d, N, w).pair(x) - x[w]) < 1e-15


# -- seminorms ----------------------------------------------------------------


def test_seminorm_basics(rng):
    d, N = 2, 4
    x = random_tensor(rng, d, N)
    zero = TensorCoeffs.zero(d, N)
    assert zero.seminorm(x) == 0.0
    unit = TensorCoeffs.unit(d, N)
    # level 0 excluded by default, included on request
    assert unit.seminorm(unit) == 0.0
    assert unit.seminorm(unit, include_level0=True) == 1.0
    u = random_tensor(rng, d, N)
    v = random_tensor(rng, d, N)
    for p in Partition:
        tri = (u + v).seminorm(x, p) <= u.seminorm(x, p) + v.seminorm(x, p) + 1e-12
        assert tri
        assert abs((3.0 * u).seminorm(x, p) - 3.0 * u.seminorm(x, p)) < 1e-12
        # singleton refines the coarser partitions
        assert u.seminorm(x, p) <= u.seminorm(x, Partition.SINGLETON) + 1e-12


def test_seminorm_d1_partition_independent(rng):
    d, N = 1, 6
    for _ in range(20):
        u = random_tensor(rng, d, N)
        x = random_tensor(rng, d, N)
        vals = [u.seminorm(x, p) for p in Partition]
        assert max(vals) - min(vals) < 1e-12


def test_seminorm_shuffle_submultiplicative_on_grouplike(rng):
    # |u shuffle v|_x <= |u|_x |v|_x for shuffle-compatible partitions at
    # group-like x; verified on signatures of random paths
    from conftest import random_path
    from sigcalc.signature import path_signature

    d, N = 2, 4
    for _ in range(10):
        g = path_signature(random_path(rng, d), N)
        u = random_tensor(rng, d, N)
        v = random_tensor(rng, d, N)
        for p in (Partition.ORDERED, Partition.BY_LEVEL):
            lhs = u.shuffle(v).seminorm(g, p, include_level0=True)
            rhs = u.seminorm(g, p, include_level0=True) * v.seminorm(
                g, p, include_level0=True
            )
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


def test_l1_linear_path_series():
    from sigcalc.signature import PiecewisePath, path_signature

    v = -1.3
    N = 8
    path = PiecewisePath(np.array([0.0, 1.0]), np.array([[0.0], [v]]))
    g = path_signature(path, N)
    expect = sum(abs(v) ** k / math.factorial(k) for k in range(1, N + 1))
    assert abs(g.l1_norm() - expect) < 1e-12


def test_l1_grouplike_bound(rng):
    from conftest import random_path
    from sigcalc.signature import path_signature

    d, N = 2, 5
    for _ in range(10):
        g = path_signature(random_path(rng, d), N)
        level1 = sum(abs(g[(k + 1,)]) for k in range(d))
        assert g.l1_norm() <= math.exp(level1) + 1e-12


# -- misc ---------------------------------------------------------------------


def test_text_roundtrip(rng):
    d, N = 3, 3
    u = random_tensor(rng, d, N)
    back = TensorCoeffs.from_text(u.to_text(), d=d, N=N)
    assert back.allclose(u, tol=0.0)


def test_text_word_above_truncation_is_named():
    # a word longer than the requested N used to index past the array
    text = "word=1 re=0.5 im=0.0\nword=2,1,2 re=1.0 im=0.0\n"
    with pytest.raises(ValueError, match=r"word=2,1,2 has length 3.*N=2"):
        TensorCoeffs.from_text(text, d=2, N=2)
    assert TensorCoeffs.from_text(text, d=2).N == 3


@pytest.mark.parametrize("value", ["re=nan im=0", "re=1 im=inf", "re=-inf im=0"])
def test_text_non_finite_coefficient_is_rejected(value):
    # a NaN coefficient was read in as it stood
    with pytest.raises(ValueError, match="not a finite number: 'word=1 " + value):
        TensorCoeffs.from_text(f"word=1 {value}\n", d=2, N=1)


@pytest.mark.parametrize("line", ["word=1 im=2 re=3", "word=1 foo=2 bar=3", "word=1 re2 im=3"],
                         ids=["swapped", "unlabelled", "no-equals"])
def test_text_fields_are_read_by_their_labels(line):
    # the 2nd and 3rd fields were read as re and im whatever their labels
    # said: the swapped line read 2+3j and the unlabelled one was accepted
    with pytest.raises(ValueError, match="malformed coefficient line, not word=... re=... im=..."):
        TensorCoeffs.from_text(line + "\n", d=2, N=1)
    assert TensorCoeffs.from_text("word=1 re=3 im=2\n", d=2, N=1)[(1,)] == 3 + 2j


def test_truncation_and_support(rng):
    d, N = 2, 4
    u = TensorCoeffs.basis(d, N, (1, 2, 1))
    assert u.max_support_level() == 3
    cut = u.with_truncation(2)
    assert cut.N == 2 and np.allclose(cut.coeffs, 0.0)
    grown = u.with_truncation(5)
    assert grown[(1, 2, 1)] == 1.0
