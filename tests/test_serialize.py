import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqphase import serialize
from lqphase.errors import ConfigurationError, DimensionError, DomainError
from lqphase.frames import build_named_frame, build_parseval_random
from lqphase.measurement import PhaselessProblem, build_problem
from lqphase.records import ExperimentConfig, TrialRecord, emit_results, records_from_json
from lqphase.rip import RipReport, sdrip_constants
from lqphase.signals import sample_dictionary_sparse
from lqphase.solver import SolverResult, solve_oracle_noiseless


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
    assert (Q.frame.n, Q.frame.N, Q.frame.label) == (P.frame.n, P.frame.N, P.frame.label)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(frames())
def test_frame_json_round_trip_is_bit_for_bit(F):
    G = serialize.frame_from_dict(json.loads(json.dumps(serialize.frame_to_dict(F))))
    assert (G.n, G.N, G.label) == (F.n, F.N, F.label)
    assert _bits(G.D) == _bits(F.D)


def test_frame_payload_keys_and_an_old_D_perp_is_ignored():
    F = build_parseval_random(3, 5, seed=9)
    data = json.loads(json.dumps(serialize.frame_to_dict(F)))
    assert sorted(data) == ["D", "N", "label", "n"]
    # payloads written before frames lost their complement carry "D_perp": any
    # value loads, to the same frame
    for perp in ([0.0] * 10, [], "junk"):
        G = serialize.frame_from_dict({**data, "D_perp": perp})
        assert _bits(G.D) == _bits(F.D) and (G.n, G.N, G.label) == (F.n, F.N, F.label)
    problem = _payload()
    old = json.loads(json.dumps(problem))
    old["frame"]["D_perp"] = [0.5] * 2 * 5
    P, Q = serialize.problem_from_dict(problem), serialize.problem_from_dict(old)
    assert _bits(P.frame.D) == _bits(Q.frame.D) and _bits(P.A) == _bits(Q.A)
    assert serialize.problem_to_dict(Q) == problem


@pytest.mark.parametrize("change", [{"n": 2}, {"N": 6}, {"D": [0.0] * 15}, {"D": [1.0] * 14}])
def test_frame_payload_that_disagrees_with_its_shape_or_DDT_is_rejected(change):
    data = {**serialize.frame_to_dict(build_parseval_random(3, 5, seed=9)), **change}
    with pytest.raises(ConfigurationError, match="frame payload"):
        serialize.frame_from_dict(data)


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


def test_problem_with_a_truth_key_missing_names_it():
    data = _payload()
    del data["truth"]["z"]
    with pytest.raises(ConfigurationError) as info:
        serialize.problem_from_dict(data)
    assert str(info.value) == "truth payload missing key 'z'"


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


def test_write_text_writes_utf8_with_lf_line_ends(tmp_path):
    path = tmp_path / "x.txt"
    assert serialize.write_text(str(path), "a\nß\n") == str(path)
    assert path.read_bytes() == "a\nß\n".encode("utf-8")
    assert serialize.load_json(str(serialize.save_json({"v": 1}, str(tmp_path / "v.json")))) == {"v": 1}


def _oracle_instance():
    F = build_parseval_random(4, 6, seed=9)
    A = np.random.default_rng(1).standard_normal((3, 4))
    return build_problem(A, F, sample_dictionary_sparse(F, 1, seed=2), q=0.5)


P_WIDE = _oracle_instance()  # m = 3 < n = 4: the oracle's certificate has a zero set


def _decoded(cls, what):
    return lambda data: serialize.from_dict(cls, data, what)


# (original, decoder): reports and solver results go through their module
# decoders, which call from_dict and then check values
ROUND_TRIPS = [
    (TrialRecord(cell_index=2, trial_index=1, n=4, N=6, m=3, k=1, q=0.5, status="ok",
                 reason="nan", delta=float("inf"), delta_order=1, theta_minus=float("-inf"),
                 theta_window_ok=False, objective=1.25, lhs=float("nan"), rhs=0.5,
                 solver_iterations=7, bound_status="pass", wall_time_s=0.01),
     _decoded(TrialRecord, "trial record")),
    (sdrip_constants(P_WIDE.A, P_WIDE.frame, 2), serialize.rip_report_from_dict),
    (solve_oracle_noiseless(P_WIDE), serialize.solver_result_from_dict),
    (ExperimentConfig(n_values=[4], N_values=[6], m_values=[3, 8], k_values=[1], q_values=[0.5],
                      trials=2, solver="irls", jitter=0.1),
     _decoded(ExperimentConfig, "config")),
]


def _same(a, b) -> bool:
    """a and b are equal and of one type; NaN equals NaN, arrays compare bytes."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, float) and np.isnan(a):
        return isinstance(b, float) and np.isnan(b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("obj, decode", ROUND_TRIPS, ids=[type(o).__name__ for o, _ in ROUND_TRIPS])
def test_from_dict_reads_back_what_json_text_writes_field_for_field(obj, decode):
    back = decode(json.loads(serialize.json_text(dataclasses.asdict(obj))))
    assert type(back) is type(obj)
    for f in dataclasses.fields(obj):
        assert _same(getattr(obj, f.name), getattr(back, f.name)), f.name


def test_round_trips_cover_details_a_certificate_and_non_finite_floats():
    record, report, result = (obj for obj, _ in ROUND_TRIPS[:3])
    assert np.isinf(record.delta) and np.isnan(record.lhs)
    assert isinstance(report, RipReport) and report.details and report.theta_minus is not None
    assert result.method == "oracle" and isinstance(result.certificate["zero_set"], tuple)


@pytest.mark.parametrize("data, message", [
    ([("order", 1)], "rip report must be a mapping, got list"),
    ({"order": 1, "delta": 0.5, "detla": 0.5}, "unknown rip report keys: ['detla']"),
    ({"details": {}}, "missing rip report keys: ['delta', 'order']"),
    # every report is exact now, so the flag of the deleted sampler is unknown
    ({"order": 1, "delta": 0.5, "exhaustive": False}, "unknown rip report keys: ['exhaustive']"),
], ids=["list", "unknown-key", "missing-fields", "sampled-report"])
def test_from_dict_rejects_a_non_mapping_an_unknown_key_or_a_missing_field(data, message):
    with pytest.raises(ConfigurationError) as info:
        serialize.from_dict(RipReport, data, "rip report")
    assert str(info.value) == message


def test_from_dict_converts_only_the_non_finite_spellings_in_float_fields():
    report = serialize.from_dict(RipReport, {"order": 1, "delta": "inf", "theta_minus": "-inf",
                                             "theta_plus": "abc", "details": {"d": "nan"}},
                                 "rip report")
    assert (report.delta, report.theta_minus) == (np.inf, -np.inf)
    assert (report.theta_plus, report.details) == ("abc", {"d": "nan"})  # for the caller to check
    record = serialize.from_dict(TrialRecord, {"reason": "inf", "method": "nan"}, "trial record")
    assert (record.reason, record.method) == ("inf", "nan")


def test_records_from_json_reads_non_finite_floats_and_rejects_unknown_keys(tmp_path):
    path = str(tmp_path / "records.json")
    emit_results([TrialRecord(delta=float("inf"), lhs=float("nan"), rhs=0.5)], "json", path)
    back = records_from_json(path)[0]
    assert back.delta == np.inf and np.isnan(back.lhs) and back.rhs == 0.5
    data = serialize.load_json(path)
    data[0]["lsh"] = 1.0
    serialize.save_json(data, path)
    with pytest.raises(ConfigurationError, match=r"unknown trial record keys: \['lsh'\]"):
        records_from_json(path)
