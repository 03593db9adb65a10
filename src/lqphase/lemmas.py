"""Executable combinatorial and convex-decomposition utilities.

These back the property-test suite: subset-sum identities over all
fixed-size subsets, a constructive convex decomposition of a vector into
k-sparse atoms with a weighted-energy bound, and a head/tail power
inequality checker.  Checkers return both sides so failures are
diagnosable.  The subset enumeration counts its work, C(k, l) subsets of
l^2 terms, through linalg.check_budget against SUPPORT_BUDGET, read at each
call, and refuses it past that before it enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import DomainError, ParameterError
from .linalg import check_budget
from .rip import SUPPORT_BUDGET
from .signals import lq_quasinorm, _check_q

DECOMPOSITION_RTOL = 1e-12


@dataclass(frozen=True)
class SubsetSumIdentities:
    lhs1: float
    rhs1: float
    lhs2: float
    rhs2: float


@dataclass(frozen=True)
class ConvexDecomposition:
    """x = sum_i weights[i] * atoms[i] with k-sparse atoms and positive weights."""

    weights: np.ndarray
    atoms: np.ndarray  # shape (num_atoms, len(x))
    k: int

    def reconstruct(self) -> np.ndarray:
        return self.weights @ self.atoms

    def weighted_energy(self) -> float:
        return float(np.sum(self.weights * np.sum(self.atoms**2, axis=1)))


@dataclass(frozen=True)
class TailPowerBound:
    lhs: float
    rhs: float
    holds: bool


def subset_sum_identities(k: int, l: int, v) -> SubsetSumIdentities:
    """Evaluate both sides of the two subset-averaging identities.

    Over all subsets T_i of {1..k} with |T_i| = l:
      sum_i sum_{p in T_i} v_p            == C(k-1, l-1) * sum_p v_p
      sum_i sum_{p != q in T_i} v_p v_q   == C(k-2, l-2) * sum_{p != q} v_p v_q
    Exact in integer arithmetic for integer inputs (Python ints, no overflow).
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not (1 <= l <= k):
        raise ParameterError(f"need 1 <= l <= k, got l={l}, k={k}")
    check_budget(k, l, SUPPORT_BUDGET, "subset-sum terms", per=l * l)
    vals = [int(x) if float(x).is_integer() else float(x) for x in np.asarray(v).ravel()]
    if len(vals) != k:
        raise ParameterError(f"v must have length k={k}, got {len(vals)}")

    lhs1 = 0
    lhs2 = 0
    for T in combinations(range(k), l):
        lhs1 += sum(vals[p] for p in T)
        lhs2 += sum(vals[p] * vals[q] for p in T for q in T if p != q)
    rhs1 = comb(k - 1, l - 1) * sum(vals)
    total2 = sum(vals[p] * vals[q] for p in range(k) for q in range(k) if p != q)
    rhs2 = comb(k - 2, l - 2) * total2 if l >= 2 else 0
    return SubsetSumIdentities(lhs1=lhs1, rhs1=rhs1, lhs2=lhs2, rhs2=rhs2)


def _membership_checks(x: np.ndarray, k: int, alpha: float, q: float) -> int:
    support = np.flatnonzero(x != 0.0)
    r = support.size
    if k < 1:
        raise ParameterError(f"target sparsity k must be >= 1, got {k}")
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if r < k:
        raise DomainError(f"membership failed: ||x||_0 = {r} < k = {k}")
    if lq_quasinorm(x, q) > k * alpha**q * (1.0 + DECOMPOSITION_RTOL):
        raise DomainError(
            f"membership failed: ||x||_q^q = {lq_quasinorm(x, q):.6g} exceeds k*alpha^q = {k * alpha**q:.6g}"
        )
    if np.max(np.abs(x)) > alpha * (1.0 + DECOMPOSITION_RTOL):
        raise DomainError(
            f"membership failed: ||x||_inf = {np.max(np.abs(x)):.6g} exceeds alpha = {alpha:.6g}"
        )
    return r


def sparse_convex_decomposition(
    x: np.ndarray,
    k: int,
    alpha: float,
    q: float,
) -> ConvexDecomposition:
    """Write x as a convex combination of k-sparse atoms.

    Requires ||x||_0 = r >= k, ||x||_q^q <= k*alpha^q and ||x||_inf <= alpha.
    The output satisfies

        sum_i w_i ||u_i||_2^2  <=  min{ (r/k)||x||_2^2,  alpha^q ||x||_{2-q}^{2-q} }.

    Construction: each coordinate p is assigned a fixed atom magnitude c_p and
    a total weight w_p = |x_p| / c_p; the weighted-energy contribution of p is
    then |x_p| * c_p.  Taking c_p = (r/k)|x_p| gives the first bound branch
    exactly, c_p = alpha^q |x_p|^{1-q} the second; the smaller branch is chosen.
    Laying the jobs w_p consecutively on a strip of width k and cutting it into
    unit-length machines (wrap-around scheduling) yields intervals of [0, 1]
    during which at most k coordinates are active; each interval is one atom.
    Feasibility needs sum_p w_p <= k and w_p <= 1, which is exactly membership
    in the constraint set above.
    """
    _check_q(q)
    x = np.asarray(x, dtype=float)
    r = _membership_checks(x, k, alpha, q)
    support = np.flatnonzero(x != 0.0)

    if r <= k:
        return ConvexDecomposition(weights=np.array([1.0]), atoms=x[None, :].copy(), k=k)

    mags = np.abs(x[support])
    branch_uniform = (r / k) * float(np.sum(x**2))
    branch_alpha = alpha**q * float(np.sum(mags ** (2.0 - q)))
    if branch_uniform <= branch_alpha:
        w = np.full(r, k / r)
    else:
        w = (mags / alpha) ** q
    total = float(np.sum(w))
    if total < 1.0:
        # scale weights up to fill the unit timeline; energy only shrinks
        w = w / total
        total = float(np.sum(w))
    # keep the strip strictly below width k so membership-tolerance slack
    # can never activate a (k+1)-th job on a sliver interval
    cap = k * (1.0 - 1e-13)
    if total > cap:
        w = w * (cap / total)
    w = np.minimum(w, 1.0)
    c = mags / w

    # wrap-around schedule: job p covers [start_p, start_p + w_p) on the strip
    starts = np.concatenate([[0.0], np.cumsum(w)[:-1]])
    ends = starts + w
    cuts = np.unique(np.concatenate([[0.0, 1.0], starts % 1.0, ends % 1.0]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]

    weights = []
    atoms = []
    span = max(float(np.ceil(ends[-1] - 1e-12)), 1.0)
    for a, b_ in zip(cuts[:-1], cuts[1:]):
        length = b_ - a
        if length <= 1e-15:
            continue
        mid = 0.5 * (a + b_)
        # active jobs: those covering mid + j for some integer machine offset j
        atom = np.zeros_like(x)
        active = 0
        for j in range(int(span) + 1):
            t = mid + j
            hit = np.flatnonzero((starts <= t) & (t < ends))
            for p in hit:
                idx = support[p]
                atom[idx] = np.sign(x[idx]) * c[p]
                active += 1
        if active > k:
            raise AssertionError("scheduling produced an atom with more than k nonzeros")
        if active == 0:
            continue  # cap-rescale slack leaves a tiny idle sliver; rescaled below
        weights.append(length)
        atoms.append(atom)
    weights = np.asarray(weights)
    atoms = np.asarray(atoms)
    covered = float(np.sum(weights))
    if covered < 1.0:
        # x = covered * sum((w_i/covered) * u_i)  ->  fold the scale into the atoms
        atoms = atoms * covered
        weights = weights / covered
    return ConvexDecomposition(weights=weights, atoms=atoms, k=k)


def tail_power_bound_check(b, k: int, d: float, omega: float) -> TailPowerBound:
    """Check the head/tail power inequality for a nonincreasing nonnegative vector.

    Hypothesis: sum of the k head entries plus d dominates the tail sum.
    Conclusion checked: sum_{i>k} b_i^w <= k * [ (mean head b_i^w)^{1/w} + d/k ]^w.
    """
    b = np.asarray(b, dtype=float)
    r = b.size
    if r < k or k < 1:
        raise ParameterError(f"need 1 <= k <= len(b), got k={k}, len={r}")
    if omega < 1.0:
        raise ParameterError(f"omega must be >= 1, got {omega}")
    if d < 0.0:
        raise DomainError("d must be nonnegative")
    if np.any(b < 0.0):
        raise DomainError("entries must be nonnegative")
    if np.any(np.diff(b) > 1e-12 * max(1.0, float(b[0]))):
        raise DomainError("entries must be nonincreasing")
    head, tail = b[:k], b[k:]
    if float(np.sum(head)) + d < float(np.sum(tail)) * (1.0 - 1e-12):
        raise DomainError("hypothesis failed: head sum + d < tail sum")
    lhs = float(np.sum(tail**omega))
    rhs = float(k * ((np.sum(head**omega) / k) ** (1.0 / omega) + d / k) ** omega)
    return TailPowerBound(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-12))
