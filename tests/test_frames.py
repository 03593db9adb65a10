import dataclasses

import numpy as np
import pytest

from lqphase.errors import ConfigurationError, DimensionError
from lqphase.frames import (
    TightFrame,
    build_named_frame,
    build_parseval_random,
    validate_frame,
)


def test_one_dimensional_parseval():
    F = build_parseval_random(1, 2, seed=3)
    c, s = F.D[0]
    assert abs(c**2 + s**2 - 1.0) < 1e-12


def test_a_frame_is_its_D():
    # n and N are read off D, so they cannot disagree with it
    assert [f.name for f in dataclasses.fields(TightFrame)] == ["D", "label"]
    frames = [build_parseval_random(3, 7, seed=1), build_named_frame("mercedes"),
              build_named_frame("identity", 4), build_named_frame("duplicated_identity", 3)]
    for F in frames:
        assert (F.n, F.N) == F.D.shape and type(F.n) is int and type(F.N) is int
    F = TightFrame(D=np.eye(2)[:1])
    assert (F.n, F.N, F.label) == (1, 2, "frame")


def test_square_case_is_orthogonal():
    F = build_parseval_random(3, 3, seed=7)
    assert np.max(np.abs(F.D @ F.D.T - np.eye(3))) < 1e-12
    assert np.max(np.abs(F.D.T @ F.D - np.eye(3))) < 1e-12


def test_analysis_operator_is_isometric():
    # 100 random vectors, max relative error below 1e-10
    F = build_parseval_random(2, 5, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.standard_normal(2)
        rel = abs(np.linalg.norm(F.D.T @ f) - np.linalg.norm(f)) / np.linalg.norm(f)
        assert rel < 1e-10


@pytest.mark.parametrize("n,N,seed", [(2, 4, 0), (3, 8, 1), (5, 7, 2), (6, 6, 3)])
def test_energy_split_identity(n, N, seed):
    # DD^T = I makes D^T D the projection onto D's row space, so
    # ||z||^2 = ||Dz||^2 + ||z - D^T D z||^2: ||Dz|| <= ||z||, with equality
    # on the row space {D^T f}, and D kills what lies off it
    F = build_parseval_random(n, N, seed=seed)
    assert np.max(np.abs(F.D @ F.D.T - np.eye(n))) < 1e-12
    rng = np.random.default_rng(seed + 100)
    for _ in range(100):
        z = rng.standard_normal(N)
        total = np.linalg.norm(z) ** 2
        off = z - F.D.T @ (F.D @ z)
        split = np.linalg.norm(F.D @ z) ** 2 + np.linalg.norm(off) ** 2
        assert abs(total - split) <= 1e-9 * total
        assert np.linalg.norm(F.D @ z) <= np.linalg.norm(z) * (1 + 1e-12)
        assert np.linalg.norm(F.D @ off) <= 1e-12 * np.linalg.norm(z)
        row = F.D.T @ rng.standard_normal(n)
        assert abs(np.linalg.norm(F.D @ row) - np.linalg.norm(row)) <= 1e-12 * np.linalg.norm(row)


def test_random_frame_is_deterministic():
    a = build_parseval_random(3, 6, seed=11)
    b = build_parseval_random(3, 6, seed=11)
    c = build_parseval_random(3, 6, seed=12)
    assert np.array_equal(a.D, b.D) and a.label == b.label
    assert not np.array_equal(a.D, c.D)


def test_identity_frame():
    F = build_named_frame("identity", 2)
    assert np.array_equal(F.D, np.eye(2))
    rep = validate_frame(F)
    assert rep.parseval_deviation == 0.0 and rep.passed
    assert [f.name for f in dataclasses.fields(rep)] == ["parseval_deviation", "passed"]


def test_duplicated_identity_frame():
    F = build_named_frame("duplicated_identity", 2)
    # DD^T = (I + I)/2 = I exactly
    assert np.max(np.abs(F.D @ F.D.T - np.eye(2))) < 1e-15
    assert F.N == 4


def test_mercedes_frame():
    F = build_named_frame("mercedes")
    expected = np.sqrt(2.0 / 3.0) * np.array(
        [[1.0, -0.5, -0.5], [0.0, np.sqrt(3) / 2, -np.sqrt(3) / 2]]
    )
    assert np.max(np.abs(F.D - expected)) < 1e-15
    assert np.max(np.abs(F.D @ F.D.T - np.eye(2))) < 1e-12
    # the rows sum to zero: D's row space misses the all-ones vector, which D kills
    assert np.max(np.abs(F.D @ np.ones(3))) < 1e-15
    assert (F.n, F.N) == (2, 3)


def test_validate_flags_perturbed_frame():
    F = build_parseval_random(3, 5, seed=5)
    rng = np.random.default_rng(9)
    D_bad = F.D + 1e-3 * rng.standard_normal(F.D.shape)
    bad = TightFrame(D=D_bad, label="perturbed")
    assert not validate_frame(bad).passed


def test_dimension_errors():
    with pytest.raises(DimensionError):
        build_parseval_random(0, 3, seed=0)
    with pytest.raises(DimensionError):
        build_parseval_random(4, 3, seed=0)


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        build_named_frame("hexagon")
    with pytest.raises(ConfigurationError):
        build_named_frame("identity")  # n is required
    with pytest.raises(ConfigurationError):
        build_named_frame("mercedes", n=3)
