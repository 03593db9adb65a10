from itertools import combinations
from math import comb

import numpy as np
import pytest

from lqphase.errors import DomainError, ParameterError, ResourceBudgetError
from lqphase.lemmas import (
    sparse_convex_decomposition,
    subset_sum_identities,
    tail_power_bound_check,
)
from lqphase.signals import lq_quasinorm


def test_subset_sums_small_examples():
    r = subset_sum_identities(3, 2, [1, 2, 3])
    # (1+2)+(1+3)+(2+3) = 12 = C(2,1)*6
    assert r.lhs1 == 12 and r.rhs1 == 12

    r = subset_sum_identities(2, 2, [1, 2])
    assert r.lhs1 == r.rhs1 == 3


def test_subset_sums_integer_exactness():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        l = int(rng.integers(1, k + 1))
        v = rng.integers(-50, 51, size=k)
        r = subset_sum_identities(k, l, v)
        assert r.lhs1 == r.rhs1
        assert r.lhs2 == r.rhs2
        assert isinstance(r.lhs1, int) and isinstance(r.rhs2, int)


def test_subset_sums_pair_identity_by_enumeration():
    v = [3, -1, 4, 1]
    r = subset_sum_identities(4, 2, v)
    lhs2 = 0
    for T in combinations(range(4), 2):
        lhs2 += sum(v[p] * q_ for p in T for q_ in [v[t] for t in T if t != p])
    assert r.lhs2 == lhs2
    total = sum(v[p] * v[q_] for p in range(4) for q_ in range(4) if p != q_)
    assert r.rhs2 == comb(2, 0) * total


def test_subset_sums_l_equal_one_pair_sum_vanishes():
    r = subset_sum_identities(3, 1, [5, 6, 7])
    assert r.lhs2 == 0 and r.rhs2 == 0


def test_subset_sums_guards():
    with pytest.raises(ParameterError):
        subset_sum_identities(3, 0, [1, 2, 3])
    with pytest.raises(ParameterError):
        subset_sum_identities(3, 4, [1, 2, 3])
    # C(40, 20) subsets of 400 terms each: refused before it enumerates
    with pytest.raises(ResourceBudgetError, match=r"^400 x C\(40,20\) = \d+ subset-sum terms exceed"):
        subset_sum_identities(40, 20, list(range(40)))


def _check_decomposition(x, k, alpha, q, dec):
    x = np.asarray(x, dtype=float)
    support = np.flatnonzero(x)
    r = support.size
    assert np.all(dec.weights > 0.0)
    assert abs(float(np.sum(dec.weights)) - 1.0) < 1e-12
    assert np.all(np.count_nonzero(dec.atoms, axis=1) <= k)
    assert np.linalg.norm(dec.reconstruct() - x) <= 1e-10 * max(1.0, np.linalg.norm(x))
    bound = min(
        (r / k) * float(np.sum(x**2)),
        alpha**q * float(np.sum(np.abs(x[support]) ** (2.0 - q))),
    )
    assert dec.weighted_energy() <= bound + 1e-9


def test_decomposition_already_sparse_is_single_atom():
    x = np.array([0.0, 2.0, -1.0])
    dec = sparse_convex_decomposition(x, 2, alpha=2.0, q=1.0)
    assert len(dec.weights) == 1 and dec.weights[0] == 1.0
    assert np.array_equal(dec.atoms[0], x)


def test_decomposition_two_entry_example():
    # x = [2, 1], k=1, alpha=3, q=1: bound min{2*5, 3*3} = 9
    x = np.array([2.0, 1.0])
    dec = sparse_convex_decomposition(x, 1, alpha=3.0, q=1.0)
    _check_decomposition(x, 1, 3.0, 1.0, dec)
    assert dec.weighted_energy() <= 9.0 + 1e-9
    # the alpha-branch construction puts both atoms at magnitude 3
    mags = sorted(np.max(np.abs(dec.atoms), axis=1))
    assert mags == pytest.approx([3.0, 3.0])
    assert sorted(dec.weights) == pytest.approx([1.0 / 3.0, 2.0 / 3.0])


def test_decomposition_flat_vector():
    # ||x||_1 = 4 needs k*alpha >= 4, so alpha=2 at k=2; both branches equal 8
    x = np.ones(4)
    dec = sparse_convex_decomposition(x, 2, alpha=2.0, q=1.0)
    _check_decomposition(x, 2, 2.0, 1.0, dec)
    assert dec.weighted_energy() <= 8.0 + 1e-9
    # with alpha=1 the quasi-norm budget ||x||_q^q <= k alpha^q fails
    with pytest.raises(DomainError, match="membership failed"):
        sparse_convex_decomposition(x, 2, alpha=1.0, q=1.0)


def test_decomposition_membership_errors_name_condition():
    with pytest.raises(DomainError, match=r"\|\|x\|\|_0"):
        sparse_convex_decomposition(np.array([1.0, 0.0]), 2, alpha=5.0, q=1.0)
    with pytest.raises(DomainError, match="inf"):
        sparse_convex_decomposition(np.array([1.2, 0.01, 0.01]), 2, alpha=1.0, q=0.5)
    with pytest.raises(ParameterError):
        sparse_convex_decomposition(np.array([1.0, 1.0]), 0, alpha=1.0, q=1.0)


def test_decomposition_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(300):
        r = int(rng.integers(2, 12))
        k = int(rng.integers(1, r + 1))
        q = float(rng.uniform(0.2, 1.0))
        x = np.zeros(14)
        supp = rng.choice(14, size=r, replace=False)
        vals = rng.standard_normal(r) * rng.uniform(0.2, 4.0)
        vals[np.abs(vals) < 1e-4] = 1e-4
        x[supp] = vals
        floor = max(np.max(np.abs(x)), (lq_quasinorm(x, q) / k) ** (1.0 / q))
        alpha = floor * (1.0 + float(rng.uniform(0.0, 1.5)))
        dec = sparse_convex_decomposition(x, k, alpha, q)
        _check_decomposition(x, k, alpha, q, dec)


def test_tail_bound_examples():
    r = tail_power_bound_check([2.0, 1.0], 1, 0.0, 2.0)
    assert r.lhs == 1.0 and r.rhs == pytest.approx(4.0) and r.holds

    r = tail_power_bound_check([5.0, 3.0], 2, 0.7, 1.5)  # empty tail
    assert r.lhs == 0.0 and r.holds

    b = [3.0, 2.0, 2.0, 1.0]
    r = tail_power_bound_check(b, 2, 0.5, 1.5)
    lhs = 2.0**1.5 + 1.0
    rhs = 2.0 * (((3.0**1.5 + 2.0**1.5) / 2.0) ** (1 / 1.5) + 0.25) ** 1.5
    assert r.lhs == pytest.approx(lhs) and r.rhs == pytest.approx(rhs) and r.holds


def test_tail_bound_guards():
    with pytest.raises(DomainError):
        tail_power_bound_check([1.0, 2.0], 1, 0.0, 2.0)  # not sorted
    with pytest.raises(DomainError):
        tail_power_bound_check([2.0, 1.0], 1, -0.1, 2.0)
    with pytest.raises(DomainError):
        tail_power_bound_check([1.0, 3.0, 3.0][::-1], 1, 0.0, 2.0)  # hypothesis fails
    with pytest.raises(ParameterError):
        tail_power_bound_check([2.0, 1.0], 1, 0.0, 0.5)


def test_tail_bound_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        r = int(rng.integers(1, 12))
        k = int(rng.integers(1, r + 1))
        b = np.sort(rng.uniform(0.0, 5.0, size=r))[::-1]
        omega = float(rng.uniform(1.0, 5.0))
        deficit = float(np.sum(b[k:]) - np.sum(b[:k]))
        d = max(0.0, deficit) + float(rng.uniform(0.0, 2.0))
        assert tail_power_bound_check(b, k, d, omega).holds
