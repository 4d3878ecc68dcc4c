"""The CLI writes its reports a block at a time; every byte must still be
what the references in conftest write: json.dump(indent=2) of the whole
document for --json, and one format() call per number for text."""

import io
import json

import numpy as np
import pytest

from qcomm import cli, linalg, problems, solver

from conftest import (
    assert_same_text,
    complex_text_reference,
    diag_json_reference,
    diag_text_reference,
    generic_problem_doc,
    matrix_text_reference,
    near_member_problem_doc,
    solve_json_reference,
    solve_text_reference,
)

ODD_FLOATS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
              1e300, -1e-300, 0.1, 1 / 3, 7.0, -123456789.123456789, 1e16, 123456789012.5]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args):
    out = io.StringIO()
    rc = cli.main(args, out=out)
    return rc, out.getvalue()


# (doc, rows per block or None for solve's own rule, expected total)
SOLVE_CASES = {
    "paper-3.1": (lambda: problems.BUILTIN_PROBLEMS["paper-3.1"], None, 4),
    "paper-3.2": (lambda: problems.BUILTIN_PROBLEMS["paper-3.2"], None, 4),
    # 1024 solutions in blocks of 300, 300, 300 and 124
    "generic-d5n4-blocks": (lambda: generic_problem_doc(np.random.default_rng(5), 5, 4), 300, 1024),
    # indices with two digits
    "generic-d3n12": (lambda: generic_problem_doc(np.random.default_rng(3), 3, 12), None, 1728),
    # every solution flagged, so the warnings fill the JSON and stderr
    "near-member": (lambda: near_member_problem_doc(np.random.default_rng(0)), None, 16),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", SOLVE_CASES)
def test_solve_report_matches_reference(tmp_path, capsys, monkeypatch, case, as_json):
    make_doc, rows, total = SOLVE_CASES[case]
    doc = make_doc()
    if rows is not None:
        monkeypatch.setattr(solver, "_CHUNK_ENTRIES", rows * len(doc["q"]["matrix"]) ** 2)
    path = write_json(tmp_path / "p.json", doc)
    rc, out = run_cli(["solve", path] + (["--json"] if as_json else []))
    err = capsys.readouterr().err
    ctx, coeffs, _ = problems.load_problem(path)
    ss = solver.solve(solver.MatrixPolyEquation(ctx, coeffs))
    assert ss.total == len(ss.solutions) == total
    assert rc == 0
    if as_json:
        assert_same_text(out, solve_json_reference(ctx, ss))
        assert err == ""
    else:
        assert_same_text(out, solve_text_reference(ctx, ss))
        assert err == "".join(f"warning: {w}\n" for w in ss.warnings)
    if case == "near-member":
        assert len(ss.warnings) == 16


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_reports_of_non_finite_numbers_match_reference(as_json):
    # NaN and infinities reach the writers only from a damaged solution set;
    # they must come out as json.dump and format() write them. The arrays are
    # damaged before anything reads .solutions, whose records the references read.
    ctx, coeffs, _ = problems.parse_problem(problems.BUILTIN_PROBLEMS["paper-3.1"], "paper-3.1")
    ss = solver.solve(solver.MatrixPolyEquation(ctx, coeffs))
    odd = np.array(ODD_FLOATS)
    for k in range(len(ss.residuals)):
        ss.us[k].imag = np.roll(odd, k)[:3]
        x = ss.xs[k]
        x.real, x.imag = np.roll(odd, k)[:9].reshape(3, 3), np.roll(odd, -k)[:9].reshape(3, 3)
        ss.residuals[k] = ODD_FLOATS[k]
    out = io.StringIO()
    cli._report_solution_set(ctx, ss, as_json, out)
    reference = solve_json_reference if as_json else solve_text_reference
    assert_same_text(out.getvalue(), reference(ctx, ss))


CIRCULANT_64 = {"circulant": problems.emit(np.random.default_rng(64).standard_normal(64) + 0.5j)}
WEIGHTED_CIRCULANT_5 = {"weighted_circulant": [[1, 0], [2, 0], [3, 0], [4, 0], [8, 0]]}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "q, chunk_entries",
    [
        (CIRCULANT_64, None),
        # T and T_inv in blocks of 15, 15, 15, 15 and 4 rows
        (CIRCULANT_64, 1000),
        (WEIGHTED_CIRCULANT_5, None),
        # five blocks of one row, where ceil(d² / 7) = 4 blocks gave 2, 1, 1 and 1
        (WEIGHTED_CIRCULANT_5, 7),
    ],
    ids=["circulant-64", "circulant-64-blocks", "weighted-circulant-5", "weighted-circulant-5-rows"],
)
def test_diag_report_matches_reference(tmp_path, monkeypatch, q, chunk_entries, as_json):
    if chunk_entries is not None:
        monkeypatch.setattr(solver, "_CHUNK_ENTRIES", chunk_entries)
    path = write_json(tmp_path / "q.json", {"schema": problems.SCHEMA, "q": q})
    rc, out = run_cli(["diag", path] + (["--json"] if as_json else []))
    ctx = problems.context_from_q_spec(q)
    verify = linalg.frobenius(ctx.T_inv @ ctx.Q @ ctx.T - np.diag(ctx.eigenvalues))
    assert rc == 0
    assert_same_text(out, (diag_json_reference if as_json else diag_text_reference)(ctx, verify))


class Writes(io.StringIO):
    """A StringIO that keeps the text of each write call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


def test_diag_text_writes_t_in_blocks_of_the_solver_rule(tmp_path, monkeypatch):
    # 7 entries per block at d=5: solver.blocks gives one row per write
    monkeypatch.setattr(solver, "_CHUNK_ENTRIES", 7)
    path = write_json(tmp_path / "q.json", {"schema": problems.SCHEMA, "q": WEIGHTED_CIRCULANT_5})
    out = Writes()
    assert cli.main(["diag", path], out=out) == 0
    t_writes = out.calls[[c.endswith("T:\n") for c in out.calls].index(True) + 1 :]
    assert [c.count("\n") for c in t_writes] == [1] * 5
    ctx = problems.context_from_q_spec(WEIGHTED_CIRCULANT_5)
    assert "".join(t_writes) == matrix_text_reference(ctx.T)


def test_json_numbers_are_json_dumps_of_each_value():
    values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 0.1, 7]
    block = np.array([values], dtype=object)
    assert cli._json_numbers(block) == [json.dumps(v) for v in values]
    floats = np.array(ODD_FLOATS).reshape(3, -1)
    assert cli._json_numbers(floats) == [json.dumps(v) for v in ODD_FLOATS]


def test_text_numbers_are_format_of_each_value():
    pairs = [complex(a, b) for a in ODD_FLOATS for b in ODD_FLOATS[::-1]]
    assert [cli._fmt_c(z) for z in pairs] == [complex_text_reference(z) for z in pairs]
    row = cli._row_template(len(pairs)) % tuple(v for z in pairs for v in (z.real, z.imag))
    assert row == "  [" + ", ".join(map(complex_text_reference, pairs)) + "]\n"
