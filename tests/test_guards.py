"""The input guards of linalg: every enumeration entry point refuses a
C(N, k) past its budget before it enumerates, and check_matrix is the one
rule for a raw A."""

from math import comb

import numpy as np
import pytest

from lqphase import nsp, rip, solver
from lqphase.errors import DimensionError, DomainError, ResourceBudgetError
from lqphase.frames import build_parseval_random
from lqphase.linalg import check_budget, check_matrix
from lqphase.measurement import build_problem
from lqphase.nsp import dictionary_sparse_distance, nsp_real_falsify
from lqphase.rip import drip_constant, sdrip_constants
from lqphase.signals import sample_dictionary_sparse
from lqphase.solver import solve_affine_lq_oracle, solve_oracle_noiseless

# n = 4, N = 7, m = 2, k = 2: C(7, 2) = 21 supports, and as many zero
# patterns for the oracles, whose m = 2 leaves n - m = 2 free coordinates
F = build_parseval_random(4, 7, seed=3)
A = np.random.default_rng(3).standard_normal((2, 4))
TRUTH = sample_dictionary_sparse(F, 2, seed=3)
P = build_problem(A, F, TRUTH, q=1.0)


def _falsify(budget, monkeypatch):
    monkeypatch.setattr(nsp, "SUPPORT_BUDGET", budget)
    return nsp_real_falsify(A, F, 2, 0.5, budget=50)


ENTRY_POINTS = {
    "drip": (lambda budget, _: drip_constant(A, F, 2, support_budget=budget), "supports"),
    "sdrip": (lambda budget, _: sdrip_constants(A, F, 2, support_budget=budget), "supports"),
    "distance": (lambda budget, _: dictionary_sparse_distance(TRUTH.x, F.D, 2, support_budget=budget),
                 "supports"),
    "falsify": (_falsify, "supports"),
    "oracle": (lambda budget, _: solve_oracle_noiseless(P, support_budget=budget), "zero patterns"),
    "affine oracle": (lambda budget, _: solve_affine_lq_oracle(A, P.A @ TRUTH.x, F, 1.0,
                                                                support_budget=budget),
                      "zero patterns"),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_enumeration_refuses_past_its_budget_before_it_enumerates(monkeypatch, name):
    # the falsifier used to take every support's SVD first and had no guard
    call, what = ENTRY_POINTS[name]

    def refuse(*args, **kwargs):
        raise AssertionError("an enumeration started before the budget check")

    for module in (rip, nsp, solver):
        for kernel in ("combination_array", "combination_blocks", "support_bases",
                       "_gram_schmidt_columns"):
            if hasattr(module, kernel):
                monkeypatch.setattr(module, kernel, refuse)
    with pytest.raises(ResourceBudgetError, match=rf"^C\(7,2\) = 21 {what} exceed the budget 20$"):
        call(comb(7, 2) - 1, monkeypatch)
    monkeypatch.undo()
    call(comb(7, 2), monkeypatch)  # the budget itself is allowed


def test_check_budget_counts_the_k_subsets():
    check_budget(6, 3, 20, "rows")
    with pytest.raises(ResourceBudgetError, match=r"^C\(6,3\) = 20 rows exceed the budget 19$"):
        check_budget(6, 3, 19, "rows")


@pytest.mark.parametrize("bad, error, message", [
    (np.ones((3, 5)), DimensionError, r"A must have shape \(m, 4\), got \(3, 5\)"),
    (np.ones(4), DimensionError, r"A must have shape \(m, 4\), got \(4,\)"),
    (np.ones((1, 2, 4)), DimensionError, r"A must have shape \(m, 4\), got \(1, 2, 4\)"),
    (np.array([[1.0, np.nan, 0.0, 0.0]]), DomainError, "A must be finite"),
    (np.array([[1.0, 0.0, -np.inf, 0.0]]), DomainError, "A must be finite"),
])
def test_check_matrix_rejects_a_bad_shape_or_entry(bad, error, message):
    with pytest.raises(error, match=message):
        check_matrix(bad, 4)


def test_check_matrix_returns_a_float_array():
    got = check_matrix([[1, 2, 3, 4]], 4)
    assert got.dtype == float and got.shape == (1, 4)
