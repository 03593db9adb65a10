import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqphase import serialize
from lqphase.errors import DimensionError, DomainError
from lqphase.frames import build_named_frame, build_parseval_random
from lqphase.measurement import PhaselessProblem, build_problem
from lqphase.signals import sample_dictionary_sparse
from lqphase.solver import SolverResult


def _payload():
    F = build_parseval_random(3, 5, seed=9)
    truth = sample_dictionary_sparse(F, 1, seed=2)
    A = np.random.default_rng(1).standard_normal((4, 3))
    # through the JSON text, as a problem file is read
    return json.loads(json.dumps(serialize.problem_to_dict(build_problem(A, F, truth, q=1.0))))


def test_problem_round_trip_passes_validation():
    data = _payload()
    P = serialize.problem_from_dict(data)
    assert P.A.shape == (4, 3) and P.b.shape == (4,) and P.eps == 0.0
    assert serialize.problem_to_dict(P) == data


@pytest.mark.parametrize("field, value", [
    ("A", [1.0, 2.0, 3.0]),                                  # A is 1-D
    ("A", [[1.0, 2.0]] * 4),                                 # A has 2 columns, frame n = 3
    ("A", [[[1.0, 2.0, 3.0]]] * 4),                          # A is 3-D
    ("b", [1.0, 2.0, 3.0]),                                  # b too short for m = 4
    ("b", [[1.0], [2.0], [3.0], [4.0]]),                     # b is 2-D
])
def test_problem_with_bad_shape_raises_dimension_error(field, value):
    data = _payload()
    data[field] = value
    with pytest.raises(DimensionError):
        serialize.problem_from_dict(data)


@pytest.mark.parametrize("field", ["A", "b"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_problem_with_non_finite_entry_raises_domain_error(field, bad):
    data = _payload()
    if field == "A":
        data["A"][2][1] = bad
    else:
        data["b"][3] = bad
    data = json.loads(json.dumps(data))  # NaN and Infinity survive a JSON file
    with pytest.raises(DomainError, match="finite"):
        serialize.problem_from_dict(data)


@pytest.mark.parametrize("eps", [-1e-3, float("nan"), float("inf")])
def test_problem_with_bad_eps_raises_domain_error(eps):
    data = _payload()
    data["eps"] = eps
    with pytest.raises(DomainError, match="eps"):
        serialize.problem_from_dict(data)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def frames(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return build_parseval_random(n, n + draw(st.integers(0, 4)), draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(["identity", "duplicated_identity", "mercedes"]))
    return build_named_frame(name, None if name == "mercedes" else draw(st.integers(1, 4)))


@st.composite
def problems(draw):
    F = draw(frames())
    m = draw(st.integers(1, 5))
    A = np.array(draw(st.lists(FINITE, min_size=m * F.n, max_size=m * F.n))).reshape(m, F.n)
    b = np.array(draw(st.lists(FINITE, min_size=m, max_size=m)))  # any sign: b = |Ax| + e
    eps = draw(st.floats(0.0, 1e300))
    q = draw(st.floats(0.0, 1.0, exclude_min=True))
    return PhaselessProblem(A=A, frame=F, b=b, eps=eps, q=q)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(problems())
def test_problem_json_round_trip_is_bit_for_bit(P):
    Q = serialize.problem_from_dict(json.loads(json.dumps(serialize.problem_to_dict(P))))
    for name in ("A", "b", "eps", "q"):
        assert _bits(getattr(Q, name)) == _bits(getattr(P, name)), name
    assert _bits(Q.frame.D) == _bits(P.frame.D)
    assert _bits(Q.frame.D_perp) == _bits(P.frame.D_perp)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(frames())
def test_frame_json_round_trip_is_bit_for_bit(F):
    G = serialize.frame_from_dict(json.loads(json.dumps(serialize.frame_to_dict(F))))
    assert (G.n, G.N, G.label) == (F.n, F.N, F.label)
    assert _bits(G.D) == _bits(F.D) and _bits(G.D_perp) == _bits(F.D_perp)


def test_zero_and_negative_measurements_load_unchanged():
    # under bounded noise b = |Ax| + e may be 0 or negative; loading keeps it as given
    data = _payload()
    data["b"] = [0.0, -0.0, -1e-3, -5e-324]
    data["eps"] = 0.01
    P = serialize.problem_from_dict(json.loads(json.dumps(data)))
    assert P.b.tobytes() == np.array([0.0, -0.0, -1e-3, -5e-324]).tobytes()


def test_solver_result_carries_the_sign_tree_counters():
    res = SolverResult(x_hat=np.array([0.5, -1.0]), objective=1.5, feasibility=0.01,
                       method="irls", iterations=3, steps=9, feasible_classes=4, tree_nodes=700)
    data = json.loads(serialize.json_text(dataclasses.asdict(res)))
    assert (data["feasible_classes"], data["tree_nodes"]) == (4, 700)
    back = serialize.solver_result_from_dict(data)
    assert (back.feasible_classes, back.tree_nodes, back.steps) == (4, 700, 9)
    # JSON written before the counters existed reads them as 0
    del data["feasible_classes"], data["tree_nodes"]
    old = serialize.solver_result_from_dict(data)
    assert (old.feasible_classes, old.tree_nodes) == (0, 0)


def test_json_text_converts_numpy_arrays_and_scalars():
    obj = {"a": np.array([[1.5, np.inf], [-np.inf, np.nan]]), "i": np.arange(3),
           "f": np.float64(0.25), "g": np.float64("-inf"), "k": np.int64(7),
           "b": np.bool_(True), "t": (np.array([0.5]), np.bool_(False))}
    plain = {"a": [[1.5, float("inf")], [float("-inf"), float("nan")]], "i": [0, 1, 2],
             "f": 0.25, "g": float("-inf"), "k": 7, "b": True, "t": ([0.5], False)}
    text = serialize.json_text(obj)
    assert text == serialize.json_text(plain)
    assert json.loads(text) == {"a": [[1.5, "inf"], ["-inf", "nan"]], "i": [0, 1, 2],
                                "f": 0.25, "g": "-inf", "k": 7, "b": True, "t": [[0.5], False]}


@pytest.mark.parametrize("field, value, error", [
    ("x", [0.1, "nan", 0.2], DomainError),
    ("x", [0.1, 0.2, "-inf"], DomainError),
    ("x", [0.1, 0.2], DimensionError),                       # frame n = 3
    ("x", [[0.1, 0.2, 0.3]], DimensionError),
    ("z", [0.0, 1.0, 0.0, 0.0], DimensionError),             # frame N = 5
    ("z", [0.0, "inf", 0.0, 0.0, 0.0], DomainError),
])
def test_problem_with_bad_truth_raises(field, value, error):
    data = _payload()
    data["truth"][field] = value
    with pytest.raises(error, match=f"truth {field}"):
        serialize.problem_from_dict(data)


def _result_payload():
    res = SolverResult(x_hat=np.array([0.5, -1.0, 0.25]), objective=1.75, feasibility=0.0,
                       method="irls")
    return json.loads(serialize.json_text(dataclasses.asdict(res)))


@pytest.mark.parametrize("field, value, error", [
    ("x_hat", [0.5, "nan", 0.25], DomainError),
    ("x_hat", [0.5, "inf", 0.25], DomainError),
    ("x_hat", [[0.5, -1.0, 0.25]], DimensionError),
    ("x_hat", 0.5, DimensionError),
    ("objective", "nan", DomainError),
    ("feasibility", "nan", DomainError),
    ("feasibility", "inf", DomainError),
])
def test_solver_result_with_bad_entries_raises(field, value, error):
    data = _result_payload()
    assert serialize.solver_result_from_dict(data).x_hat.shape == (3,)
    data[field] = value
    with pytest.raises(error):
        serialize.solver_result_from_dict(data)
