import json

import numpy as np
import pytest

from lqphase import serialize
from lqphase.errors import DimensionError, DomainError
from lqphase.frames import build_parseval_random
from lqphase.measurement import build_problem
from lqphase.signals import sample_dictionary_sparse


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
