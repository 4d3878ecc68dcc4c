import io
import json

import numpy as np
import pytest

import qcomm as qc
from qcomm import cli, problems
from qcomm.errors import ParseError

from conftest import random_context


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
    for bad in (3, [1], [1, 2, 3], ["a", 1], None):
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
            "q": {"matrix": problems.emit_matrix(ctx.Q)},
            "degree": 2,
            "coefficients": [{"matrix": problems.emit_matrix(a)} for a in mats],
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


def test_cli_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = run_cli(["solve", str(bad)])
    assert rc == 2
    rc, _ = run_cli(["solve", str(tmp_path / "missing.json")])
    assert rc == 2


def test_builtin_problems_parse():
    for name, doc in problems.BUILTIN_PROBLEMS.items():
        ctx, coeffs, _ = problems.parse_problem(doc, name)
        assert ctx.d == 3
        assert len(coeffs) == 2
