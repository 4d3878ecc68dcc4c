import inspect
import io
import itertools
import json
import re
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


# x^2 = 1 at each of the 70 eigenvalues of the cyclic shift: 2**70 solutions
SHIFT_70_PROBLEM = problem_doc(
    q={"circulant": [[0, 0], [1, 0]] + [[0, 0]] * 68},
    coefficients=[{"diag_coords": [[0, 0]] * 70}, {"diag_coords": [[-1, 0]] * 70}],
)
TOL_RULE = "must be a finite non-negative number"
POSITIVE_RULE = "option 'cluster_tol' must be a finite positive number"
CAP_RULE = "option 'cap' must be a positive integer"
CAP_MAX = "option 'cap' must be at most 9223372036854775807"


def bad_option(key, value, message, doc=None, id=None):
    return pytest.param(key, value, message, doc or problem_doc(), id=id or f"{key}-{value}")


@pytest.mark.parametrize(
    "key, value, message, doc",
    [
        bad_option("cluster_tol", "abc", POSITIVE_RULE),
        bad_option("residual_tol", "abc", f"option 'residual_tol' {TOL_RULE}"),
        bad_option("distinct_tol", [1], f"option 'distinct_tol' {TOL_RULE}", id="distinct_tol-value2"),
        bad_option("cap", 1.5, CAP_RULE),
        bad_option("residual_tol", 10**400, f"option 'residual_tol' {TOL_RULE}",
                   id="residual_tol-int-past-float-range"),
        # the same rule on the command line: these once solved with exit 0
        bad_option("--cluster-tol", "-1", POSITIVE_RULE),
        bad_option("--cluster-tol", "nan", POSITIVE_RULE),
        # at 0 the knife-edge check cannot fire: paper-3.2 once counted 8 solutions, not 4
        bad_option("cluster_tol", 0, POSITIVE_RULE),
        bad_option("--cluster-tol", "0", POSITIVE_RULE),
        # a misspelt key was once ignored, and the file solved at the default tolerance
        bad_option("clustertol", 1e-4, "unknown option 'clustertol'"),
        bad_option("--residual-tol", "nan", f"option 'residual_tol' {TOL_RULE}"),
        bad_option("--residual-tol", "inf", f"option 'residual_tol' {TOL_RULE}"),
        bad_option("--cap", "0", CAP_RULE),
        # the same integer rule for the degree: true was once solved as degree 1
        bad_option("degree", True, "'degree' must be a positive integer"),
        # a cap past the index range once ended in np.arange's ValueError traceback
        bad_option("cap", 10**30, CAP_MAX, SHIFT_70_PROBLEM, id="cap-10**30-on-2**70-solutions"),
        bad_option("--cap", str(10**30), CAP_MAX, SHIFT_70_PROBLEM,
                   id="--cap-10**30-on-2**70-solutions"),
    ],
)
def test_cli_bad_option_exits_2(tmp_path, capsys, key, value, message, doc):
    flags = [key, value] if key.startswith("--") else []
    if not flags:
        doc = {**doc, key: value} if key == "degree" else {**doc, "options": {key: value}}
    path = write_json(tmp_path / "p.json", doc)
    rc, out = run_cli(["solve", path, *flags])
    assert rc == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: {'command line' if flags else path}: {message}\n"


IDENTITY_3 = {"schema": "qcomm/1", "matrix": problems.emit(np.eye(3) + 0j)}
PAPER_Q = problem_doc()["q"]
PAPER_COEFFICIENTS = problem_doc()["coefficients"]


@pytest.mark.parametrize(
    "command, doc, where, key",
    [
        # each of these keys was once ignored: the file was read as if it were absent
        pytest.param("solve", problem_doc(option={"cluster_tol": 0.5}), "", "option",
                     id="solve-problem-option"),
        pytest.param("diag", {"schema": "qcomm/1", "q": PAPER_Q, "degre": 2}, "", "degre",
                     id="diag-q-document-degre"),
        pytest.param("solve", problem_doc(q={**PAPER_Q, "distinct_tol": 1e-12}), ":q",
                     "distinct_tol", id="solve-q-distinct_tol"),
        pytest.param("solve", problem_doc(coefficients=[PAPER_COEFFICIENTS[0],
                                                        {**PAPER_COEFFICIENTS[1], "note": "x"}]),
                     ":coefficients[1]", "note", id="solve-coefficient-note"),
        pytest.param("check", {**IDENTITY_3, "matrx": IDENTITY_3["matrix"]}, "", "matrx",
                     id="check-matrix-document-matrx"),
        pytest.param("repr", {**IDENTITY_3, "matrx": IDENTITY_3["matrix"]}, "", "matrx",
                     id="repr-matrix-document-matrx"),
        # a misspelt tag once read "exactly one of (...) required", naming neither key
        pytest.param("solve", problem_doc(q={"circulnt": [[0, 0], [1, 0], [0, 0]]}), ":q",
                     "circulnt", id="solve-q-tag-circulnt"),
    ],
)
def test_cli_unknown_key_exits_2(tmp_path, capsys, command, doc, where, key):
    bad = write_json(tmp_path / "bad.json", doc)
    # check and repr read the bad matrix file after a valid problem (hence Q) file
    first = [write_json(tmp_path / "p.json", problem_doc())] if command in ("check", "repr") else []
    assert run_cli([command, *first, bad]) == (2, "")
    assert capsys.readouterr().err == f"error: {bad}{where}: unknown key {key!r}\n"


def test_parse_problem_key_rule():
    doc = {**problems.BUILTIN_PROBLEMS["paper-3.2"], "option": {"cluster_tol": 0.5}}
    with pytest.raises(ParseError, match=r"^paper-3\.2: unknown key 'option'$"):
        problems.parse_problem(doc, "paper-3.2")
    # a missing key comes first, then the first unknown key in sorted order
    del doc["q"]
    with pytest.raises(ParseError, match=r"^paper-3\.2: missing 'q'$"):
        problems.parse_problem(doc, "paper-3.2")
    doc = {**problems.BUILTIN_PROBLEMS["paper-3.2"], "zz": 1, "option": {}}
    with pytest.raises(ParseError, match=r"^paper-3\.2: unknown key 'option'$"):
        problems.parse_problem(doc, "paper-3.2")


@pytest.mark.parametrize(
    "flags, options",
    [(["--cap", "3"], {}), ([], {"cap": 3}), (["--cap", "3"], {"cap": 4})],
    ids=["flag", "problem-option", "flag-over-problem-option"],
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
    bad.write_bytes(b"\xff{}")  # not UTF-8: UnicodeDecodeError, a ValueError
    rc, _ = run_cli(["solve", str(bad)])
    assert rc == 2
    rc, _ = run_cli(["solve", str(tmp_path / "missing.json")])
    assert rc == 2


def test_cli_integer_literal_past_digit_limit_exits_2(tmp_path, capsys):
    # json.load raises ValueError, not JSONDecodeError, for an integer literal
    # longer than the interpreter's int-from-str digit limit (4300 by default)
    path = tmp_path / "p.json"
    doc = json.dumps(problem_doc(options={"cap": 0}))
    path.write_text(doc.replace('"cap": 0', '"cap": ' + "9" * 5000))
    rc, out = run_cli(["solve", str(path)])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: ")


@pytest.mark.parametrize("error", QcommError.__subclasses__(), ids=lambda e: e.__name__)
def test_cli_exit_code_follows_error_class(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(solver, "solve", fail)
    rc, _ = run_cli(["example", "paper-3.1"])
    assert rc == (3 if issubclass(error, (NumericalFailure, SingularMatrix)) else 2)
    # the library's message, also for an EnumerationCapExceeded without total and cap
    assert capsys.readouterr().err.endswith(": injected\n")


def test_cli_cap_error_past_digit_limit(monkeypatch, capsys):
    # a total of more than 4300 digits is named by its size, not by str()
    def fail(*args, **kwargs):
        raise qc.EnumerationCapExceeded("injected", total=3 ** 10000, cap=5)

    monkeypatch.setattr(solver, "solve", fail)
    assert run_cli(["example", "paper-3.1"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: about 10^4771 solutions exceed cap 5; raise --cap or the problem's options.cap\n"
    )


def test_coefficient_tags_pose_the_same_equation(tmp_path):
    # one equation, its coefficients tagged repr_poly (with trailing zeros),
    # diag_coords (the repr_poly values at the eigenvalues) and matrix: equal
    # counts, and the first two print byte-identical `qcomm solve` reports
    q = {"circulant": [[1, 0], [2, 0], [0, 1], [4, 0]]}
    ctx = problems.context_from_q_spec(q)
    polys = [np.array([0.5, -1, 2j, 0]), np.array([1 + 1j, 0.25, 0, -0.0])]
    tags = {
        "repr_poly": [problems.emit(c) for c in polys],
        "diag_coords": [problems.emit(qc.poly.evaluate(c, ctx.eigenvalues)) for c in polys],
        "matrix": [problems.emit(algebra.from_repr_poly(ctx, c)) for c in polys],
    }
    reports = {}
    for tag, entries in tags.items():
        doc = problem_doc(q=q, coefficients=[{tag: e} for e in entries])
        path = write_json(tmp_path / f"{tag}.json", doc)
        rc, reports[tag] = run_cli(["solve", path])
        assert rc == 0
        eq = solver.MatrixPolyEquation(*problems.load_problem(path)[:2])
        assert solver.count_solutions(eq) == ([2, 2, 2, 2], 16)
    assert_same_text(reports["repr_poly"], reports["diag_coords"])


def test_builtin_problems_parse():
    for name, doc in problems.BUILTIN_PROBLEMS.items():
        ctx, coeffs, _ = problems.parse_problem(doc, name)
        assert ctx.d == 3
        assert len(coeffs) == 2


@pytest.mark.parametrize(
    "key, flag, file_value, flag_text, flag_value, keyword",
    [
        ("cluster_tol", "--cluster-tol", 1e-6, "1e-4", 1e-4, "cluster_tol"),
        ("residual_tol", "--residual-tol", 1e-7, "1e-5", 1e-5, "residual_tol"),
        ("cap", "--cap", 50, "60", 60, "enumeration_cap"),
    ],
)
def test_cli_solve_option_precedence(
    tmp_path, monkeypatch, key, flag, file_value, flag_text, flag_value, keyword
):
    # a flag beats the file, and the file beats solve's own default
    solve, seen = solver.solve, []

    def spy(eq, **kwargs):
        bound = inspect.signature(solve).bind(eq, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments[keyword])
        return solve(eq, **kwargs)

    monkeypatch.setattr(solver, "solve", spy)
    plain = write_json(tmp_path / "plain.json", problem_doc())
    in_file = write_json(tmp_path / "file.json", problem_doc(options={key: file_value}))
    for argv in ([plain], [in_file], [plain, flag, flag_text], [in_file, flag, flag_text]):
        assert run_cli(["solve", *argv])[0] == 0
    default = inspect.signature(solve).parameters[keyword].default
    assert seen == [default, file_value, flag_value, flag_value]


NEAR_DOUBLE_Q = {"matrix": problems.emit(np.diag([1, 1 + 1e-9, 2]).astype(complex))}


def test_cli_diag_and_repr_read_options_as_solve_does(tmp_path, capsys):
    # a gap of 1e-9 passes at the file's distinct_tol, on every subcommand
    doc = problem_doc(q=NEAR_DOUBLE_Q, options={"distinct_tol": 1e-12})
    qfile = write_json(tmp_path / "q.json", doc)
    afile = write_json(tmp_path / "a.json", {"schema": "qcomm/1", "matrix": NEAR_DOUBLE_Q["matrix"]})
    for argv in (["solve", qfile], ["diag", qfile], ["diag", qfile, "--json"], ["repr", qfile, afile]):
        rc, out = run_cli(argv)
        assert rc == 0 and out
    capsys.readouterr()
    # and a malformed option is rejected by diag and repr as by solve
    bad = write_json(
        tmp_path / "bad.json",
        {"schema": "qcomm/1", "q": NEAR_DOUBLE_Q, "options": {"cap": 0, "distinct_tol": "x"}},
    )
    for argv in (["solve", bad], ["diag", bad], ["diag", bad, "--json"], ["repr", bad, afile]):
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == (
            f"error: {bad}: option 'distinct_tol' must be a finite non-negative number\n"
        )


def companion_files(tmp_path, nodes):
    """(context, problem file X - Q = O, matrix file of Q) for the companion matrix of nodes."""
    q = {"companion_eigenvalues": [[k, 0] for k in nodes]}
    ctx = problems.context_from_q_spec(q)
    doc = problem_doc(q=q, degree=1, coefficients=[{"matrix": problems.emit(-ctx.Q)}])
    qfile = write_json(tmp_path / "q.json", doc)
    afile = write_json(tmp_path / "a.json", {"schema": "qcomm/1", "matrix": problems.emit(ctx.Q)})
    return ctx, qfile, afile


@pytest.mark.parametrize("command", ["diag", "diag-json", "repr", "check", "solve"])
def test_cli_context_warnings_reach_stderr(tmp_path, capsys, command):
    ctx, qfile, afile = companion_files(tmp_path, range(1, 9))
    assert ctx.warnings == ["ill-conditioned eigenbasis: cond_T ~ 1.48e+09"]
    argv = {
        "diag": ["diag", qfile],
        "diag-json": ["diag", qfile, "--json"],
        "repr": ["repr", qfile, afile],
        "check": ["check", qfile, afile],
        "solve": ["solve", qfile],
    }[command]
    rc, out = run_cli(argv)
    assert rc == 0 and out
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in ctx.warnings)


def test_cli_repr_renders_library_warnings(tmp_path, capsys):
    # at nodes 1..9 repr_poly warns of its Vandermonde system; the CLI writes
    # that as a warning line too, not as Python's warning display
    ctx, qfile, afile = companion_files(tmp_path, range(1, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_cli(["repr", qfile, afile])
    assert rc == 0 and out.startswith("coefficients (ascending): ")
    err = capsys.readouterr().err.splitlines()
    assert err[:-1] == [f"warning: {w}" for w in ctx.warnings]
    assert re.fullmatch(
        r"warning: Vandermonde system condition ~ \S+; coefficients may be inaccurate", err[-1]
    )


def test_cli_repr_non_member_message(tmp_path, capsys):
    ctx, qfile, _ = companion_files(tmp_path, [1, 2, 3])
    a = ctx.Q.T
    afile = write_json(tmp_path / "nonmember.json", {"schema": "qcomm/1", "matrix": problems.emit(a)})
    assert run_cli(["repr", qfile, afile]) == (2, "")
    comm, _ = algebra.commutator(ctx, a)
    assert capsys.readouterr().err == f"not a member: commutation residual {comm:.6e}\n"
