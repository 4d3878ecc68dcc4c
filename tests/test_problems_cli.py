import io
import itertools
import json
import warnings

import numpy as np
import pytest

import qcomm as qc
from qcomm import algebra, cli, problems, solver
from qcomm.errors import NumericalFailure, ParseError, QcommError, SingularMatrix

from conftest import (
    assert_same_text,
    generic_problem_doc,
    horner_residual,
    matrix_text_reference,
    random_context,
    roots_by_index,
)


def run_cli(args):
    out = io.StringIO()
    rc = cli.main(args, out=out)
    return rc, out.getvalue()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def problem_doc(**overrides):
    doc = {
        "schema": "qcomm/1",
        "q": {"companion_eigenvalues": [[1, 0], [2, 0], [3, 0]]},
        "degree": 2,
        "coefficients": [
            {"diag_coords": [[-5, 0], [2, 0], [-3, 0]]},
            {"diag_coords": [[4, 0], [1, 0], [2, 0]]},
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_complex_strict():
    assert problems.parse_complex([1.5, -2]) == 1.5 - 2j
    for bad in (
        3, [1], [1, 2, 3], ["a", 1], None, [float("nan"), 0], [1, float("inf")],
        [10**400, 0], [True, 0],
    ):
        with pytest.raises(ParseError):
            problems.parse_complex(bad)


def test_parse_matrix_rejects_ragged():
    with pytest.raises(ParseError):
        problems.parse_matrix([[[1, 0], [2, 0]], [[3, 0]]])


def test_load_problem_round_trip(tmp_path):
    path = write_json(tmp_path / "p.json", problem_doc())
    ctx, coeffs, opts = problems.load_problem(path)
    assert ctx.provenance == "companion"
    assert len(coeffs) == 2
    assert np.allclose(coeffs[0], [-5, 2, -3])


def test_load_problem_validation(tmp_path):
    cases = [
        problem_doc(schema="other/1"),
        problem_doc(degree=3),  # coefficient count mismatch
        problem_doc(q={}),
        problem_doc(q={"matrix": [[[1, 0]]], "circulant": [[1, 0]]}),
        {"schema": "qcomm/1"},
    ]
    for i, doc in enumerate(cases):
        path = write_json(tmp_path / f"bad{i}.json", doc)
        with pytest.raises(ParseError):
            problems.load_problem(path)


def test_cli_solve(tmp_path):
    path = write_json(tmp_path / "p.json", problem_doc())
    rc, out = run_cli(["solve", path])
    assert rc == 0
    assert "total solutions: 4" in out


def test_cli_solve_json_round_trips(tmp_path):
    path = write_json(tmp_path / "p.json", problem_doc())
    rc, out = run_cli(["solve", path, "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["total"] == 4
    assert doc["counts"] == [2, 1, 2]
    # bit-for-bit: re-serializing the parsed numbers reproduces the document
    assert json.dumps(json.loads(out)) == json.dumps(doc)
    first = np.array([[complex(re, im) for re, im in row] for row in doc["solutions"][0]["matrix"]])
    expected = np.array([[7, -8, 2], [12, -15, 4], [24, -32, 9]])
    assert np.max(np.abs(first - expected)) < 1e-9


def test_cli_deterministic(tmp_path):
    path = write_json(tmp_path / "p.json", problem_doc())
    rc1, out1 = run_cli(["solve", path, "--json"])
    rc2, out2 = run_cli(["solve", path, "--json"])
    assert out1 == out2


def test_cli_solve_linear_with_q_coefficient(tmp_path):
    q = [[0, 1, 0], [0, 0, 1], [8, 0, 0]]
    qm = [[[float(v), 0.0] for v in row] for row in q]
    doc = {
        "schema": "qcomm/1",
        "q": {"matrix": qm},
        "degree": 1,
        "coefficients": [{"matrix": qm}],
    }
    path = write_json(tmp_path / "p.json", doc)
    rc, out = run_cli(["solve", path, "--json"])
    assert rc == 0
    parsed = json.loads(out)
    assert parsed["total"] == 1
    x = np.array(
        [[complex(re, im) for re, im in row] for row in parsed["solutions"][0]["matrix"]]
    )
    assert np.max(np.abs(x + np.array(q))) < 1e-8


def test_cli_examples():
    for name in ("paper-3.1", "paper-3.2"):
        rc, out = run_cli(["example", name, "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["total"] == 4
        assert doc["counts"] == [2, 1, 2]


@pytest.mark.parametrize("name", ["paper-3.1", "paper-3.2", "generic-d5n4-blocks"])
def test_cli_solve_text_matches_per_solution_reference(tmp_path, monkeypatch, name):
    # the solution block of `qcomm solve` is byte for byte what one
    # T diag(u) T^-1 and one Horner residual per solution print, in
    # itertools.product order; the generic case spans several blocks
    if name in problems.BUILTIN_PROBLEMS:
        doc = problems.BUILTIN_PROBLEMS[name]
    else:
        doc = generic_problem_doc(np.random.default_rng(5), 5, 4)
        monkeypatch.setattr(solver, "_CHUNK_ENTRIES", 300 * 5 * 5)
    rc, text = run_cli(["solve", write_json(tmp_path / "p.json", doc)])
    assert rc == 0
    ctx, coeffs, _ = problems.parse_problem(doc, name)
    eq = solver.MatrixPolyEquation(ctx, coeffs)
    ss = solver.solve(eq)
    ref = io.StringIO()
    per_index = roots_by_index(ss)
    for indices in itertools.product(*(range(c) for c in ss.counts)):
        u = [per_index[i][j] for i, j in enumerate(indices)]
        x = algebra.from_diag_coords(ctx, u)
        ref.write(f"solution {indices}  residual {horner_residual(eq.mats, x):.3e}\n")
        ref.write(matrix_text_reference(x))
    assert_same_text(text[text.index("solution ("):], ref.getvalue())


def test_cli_check_pass_and_fail(tmp_path):
    prob = write_json(tmp_path / "p.json", problem_doc())
    good = write_json(
        tmp_path / "x.json",
        {
            "schema": "qcomm/1",
            "matrix": [[[7, 0], [-8, 0], [2, 0]], [[12, 0], [-15, 0], [4, 0]], [[24, 0], [-32, 0], [9, 0]]],
        },
    )
    rc, out = run_cli(["check", prob, good])
    assert rc == 0
    assert "PASS" in out
    zero = write_json(
        tmp_path / "z.json",
        {"schema": "qcomm/1", "matrix": [[[0, 0]] * 3 for _ in range(3)]},
    )
    rc, out = run_cli(["check", prob, zero])
    assert rc == 2
    assert "FAIL" in out


def test_near_member_coefficients_certified_as_given(tmp_path):
    # Matrix coefficients carry non-commuting noise of relative size 1e-8:
    # diag_coords projects them, but every solution must be certified
    # against the matrices as given, and so flagged.
    rng = np.random.default_rng(0)
    ctx = random_context(rng, 4)
    roots = rng.uniform(-1, 1, (4, 2)) + 1j * rng.uniform(-1, 1, (4, 2))
    mats = []
    for c in (-(roots[:, 0] + roots[:, 1]), roots[:, 0] * roots[:, 1]):
        a = qc.from_diag_coords(ctx, c)
        noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mats.append(a + 1e-8 * np.linalg.norm(a) * noise)
    prob = write_json(
        tmp_path / "p.json",
        {
            "schema": "qcomm/1",
            "q": {"matrix": problems.emit(ctx.Q)},
            "degree": 2,
            "coefficients": [{"matrix": problems.emit(a)} for a in mats],
        },
    )
    rc, out = run_cli(["solve", prob, "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["total"] == 16
    flagged = [w for w in doc["warnings"] if w.startswith("solution ")]
    assert len(flagged) == 16
    cand = write_json(
        tmp_path / "x.json",
        {"schema": "qcomm/1", "matrix": doc["solutions"][0]["matrix"]},
    )
    rc, out = run_cli(["check", prob, cand])
    assert rc == 2
    assert "FAIL" in out


def test_cli_repr(tmp_path):
    q = [[0, 1, 0], [0, 0, 1], [8, 0, 0]]
    qm = [[[float(v), 0.0] for v in row] for row in q]
    qfile = write_json(tmp_path / "q.json", {"schema": "qcomm/1", "q": {"matrix": qm}})
    q2 = np.array(q) @ np.array(q)
    afile = write_json(
        tmp_path / "a.json",
        {"schema": "qcomm/1", "matrix": [[[float(v), 0.0] for v in row] for row in q2]},
    )
    rc, out = run_cli(["repr", qfile, afile])
    assert rc == 0
    coeff_line = out.splitlines()[0]
    assert coeff_line.startswith("coefficients")
    # x^2: coefficients (0, 0, 1)
    assert "+1" in coeff_line
    bad = write_json(
        tmp_path / "bad.json",
        {"schema": "qcomm/1", "matrix": [[[0, 0], [1, 0], [0, 0]], [[0, 0]] * 3, [[0, 0]] * 3]},
    )
    rc, _ = run_cli(["repr", qfile, bad])
    assert rc == 2


def test_cli_diag(tmp_path):
    qfile = write_json(
        tmp_path / "q.json",
        {"schema": "qcomm/1", "q": {"weighted_circulant": [[1, 0], [1, 0], [8, 0]]}},
    )
    rc, out = run_cli(["diag", qfile, "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["provenance"] == "weighted-circulant"
    eigs = [complex(re, im) for re, im in doc["eigenvalues"]]
    assert abs(eigs[0] - 2) < 1e-12
    repeated = write_json(
        tmp_path / "rep.json",
        {
            "schema": "qcomm/1",
            "q": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        },
    )
    rc, _ = run_cli(["diag", repeated])
    assert rc == 2


@pytest.mark.parametrize(
    "coeff",
    [
        {"diag_coords": [[float("nan"), 0], [1, 0], [2, 0]]},
        {"repr_poly": [[0, 0], [0, 0], [1e308, 0]]},  # overflows at eigenvalue 3
    ],
    ids=["nan", "overflow"],
)
def test_cli_non_finite_coefficient_exits_2(tmp_path, capsys, coeff):
    doc = problem_doc(coefficients=[coeff, {"diag_coords": [[4, 0], [1, 0], [2, 0]]}])
    rc, _ = run_cli(["solve", write_json(tmp_path / "p.json", doc)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "q",
    [
        {"circulant": [[1e308, 0], [1e308, 0], [-1e308, 0]]},
        {"weighted_circulant": [[1e200, 0], [1e200, 0], [1e200, 0]]},
        {"companion_eigenvalues": [[1e200, 0], [-1e200, 0], [1, 0]]},
    ],
    ids=["circulant", "weighted_circulant", "companion"],
)
def test_cli_overflowing_context_exits_3(tmp_path, capsys, q):
    path = write_json(tmp_path / "q.json", {"schema": "qcomm/1", "q": q})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, _ = run_cli(["diag", path])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "non-finite" in err


@pytest.mark.parametrize(
    "jordan",
    [[[1, 1], [0, 1]], [[2, 1, 0], [0, 2, 1], [0, 0, 2]]],
    ids=["2x2", "3x3"],
)
def test_cli_defective_q_exits_3(tmp_path, capsys, jordan):
    # A Jordan block has a singular eigenbasis; inverting it fails before
    # the distinct-eigenvalue check runs, and the message says why.
    q = {"matrix": [[[v, 0] for v in row] for row in jordan]}
    rc, _ = run_cli(["diag", write_json(tmp_path / "q.json", {"schema": "qcomm/1", "q": q})])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: eigenbasis of Q is singular")
    assert "minimum eigenvalue gap 0.000e+00" in err and "defective" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("cluster_tol", "abc"),
        ("residual_tol", "abc"),
        ("distinct_tol", [1]),
        ("cap", 1.5),
        pytest.param("residual_tol", 10**400, id="residual_tol-int-past-float-range"),
        # the same rule on the command line: these once solved with exit 0
        ("--cluster-tol", "-1"),
        ("--cluster-tol", "nan"),
        ("--residual-tol", "nan"),
        ("--residual-tol", "inf"),
        ("--cap", "0"),
    ],
)
def test_cli_bad_option_exits_2(tmp_path, capsys, key, value):
    if key.startswith("--"):
        path = write_json(tmp_path / "p.json", problem_doc())
        rc, out = run_cli(["solve", path, key, value])
        key = key[2:].replace("-", "_")
    else:
        rc, out = run_cli(["solve", write_json(tmp_path / "p.json", problem_doc(options={key: value}))])
    assert rc == 2
    assert out == ""
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, options", [(["--cap", "3"], {}), ([], {"cap": 3})], ids=["flag", "problem-option"]
)
def test_cli_cap_message_names_the_cli_option(tmp_path, capsys, flags, options):
    # the library's advice, "pass truncate=True", names no option of the CLI
    path = write_json(tmp_path / "p.json", problem_doc(options=options))
    rc, out = run_cli(["solve", path, *flags])
    assert rc == 2
    assert out == ""
    assert capsys.readouterr().err == (
        "error: 4 solutions exceed cap 3; raise --cap or the problem's options.cap\n"
    )


def test_cli_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = run_cli(["solve", str(bad)])
    assert rc == 2
    rc, _ = run_cli(["solve", str(tmp_path / "missing.json")])
    assert rc == 2


@pytest.mark.parametrize("error", QcommError.__subclasses__(), ids=lambda e: e.__name__)
def test_cli_exit_code_follows_error_class(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(solver, "solve", fail)
    rc, _ = run_cli(["example", "paper-3.1"])
    assert rc == (3 if issubclass(error, (NumericalFailure, SingularMatrix)) else 2)


def test_builtin_problems_parse():
    for name, doc in problems.BUILTIN_PROBLEMS.items():
        ctx, coeffs, _ = problems.parse_problem(doc, name)
        assert ctx.d == 3
        assert len(coeffs) == 2
