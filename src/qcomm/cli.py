"""Command-line front end.

Subcommands: solve, check, repr, diag, example. Exit codes: 0 success,
2 input/validation error, 3 numerical failure.
"""

import argparse
import json
import sys
import warnings

import numpy as np

from . import algebra, errors, linalg, problems, solver
from .errors import IllConditionedWarning, NotMember, NumericalFailure, QcommError, SingularMatrix

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

# solve's flags: the option each sets, its type and solve's keyword for it
_SOLVE_FLAGS = {"cluster_tol": (float, "cluster_tol"), "residual_tol": (float, "residual_tol"),
                "cap": (int, "enumeration_cap")}
_ENTRY = "%+.12g%+.12gj"  # one complex number of a text report
_HOLE, _LIST = "\0hole", "\0list"  # _write_json's skeleton leaves; no report string has a NUL


def _fmt_c(z):
    return _ENTRY % (z.real, z.imag)


def _row_template(d):
    return "  [" + ", ".join([_ENTRY] * d) + "]\n"


def _floats(a):
    """The floats of problems.emit(a) in its order, one row per item of a."""
    return np.stack((a.real, a.imag), -1).reshape(len(a), -1)


def _json_numbers(block):
    """json.dump's text of each number in block, from the C encoder, which indent turns off."""
    return json.dumps(block.ravel().tolist())[1:-1].split(", ")


def _write_json(out, doc, lists):
    """Write json.dump(doc, out, indent=2)'s text, filling the k-th [_LIST] in doc (a top-level
    value) from lists[k] = (skeleton of one item, blocks: arrays with one item per row)."""
    parts = json.dumps(doc, indent=2).split(json.dumps(_LIST))
    head, sep, foot = json.dumps({"": [_LIST] * 2}, indent=2).split(json.dumps(_LIST))
    for part, (item, blocks) in zip(parts, lists):
        out.write(part)
        text = json.dumps({"": [item]}, indent=2)[len(head) : -len(foot)]
        template = text.replace(json.dumps(_HOLE), "%s")  # item keys hold no "%"

        def fill(numbers):
            return sep.join([template] * (len(numbers) // template.count("%s"))) % tuple(numbers)

        # map() lets go of each array, then of its numbers, before the next step
        for k, filled in enumerate(map(fill, map(_json_numbers, blocks))):
            out.write(sep if k else "")
            out.write(filled)
    out.write(parts[-1] + "\n")


def _warn(lines):
    """Each warning of a context, solution set or library call as one stderr line."""
    sys.stderr.writelines(f"warning: {w}\n" for w in lines)


def _report_solution_set(ctx, sol_set, as_json, out):
    d, blocks = ctx.d, solver.blocks(len(sol_set.us), ctx.d ** 2)
    idx, us, xs, r = sol_set.indices, sol_set.us, sol_set.xs, sol_set.residuals[:, None]
    if as_json:
        doc = {
            "schema": problems.SCHEMA,
            "eigenvalues": problems.emit(ctx.eigenvalues),
            "scalar_polys": problems.emit(sol_set.scalar_polys),
            "counts": sol_set.counts,
            "total": sol_set.total,
            "solutions": [_LIST],
            "warnings": sol_set.warnings,
        }
        u = [[_HOLE] * 2] * d  # skeleton of problems.emit of d complex numbers
        item = {"indices": [_HOLE] * d, "u": u, "matrix": [u] * d, "residual": _HOLE}
        arrays = (
            np.concatenate([idx[b], _floats(us[b]), _floats(xs[b]), r[b]], axis=1, dtype=object)
            for b in blocks
        )
        return _write_json(out, doc, [(item, arrays)])
    out.write("eigenvalues: " + ", ".join(map(_fmt_c, ctx.eigenvalues)) + "\n")
    for i, g in enumerate(sol_set.scalar_polys):
        out.write(f"g_{i + 1} coeffs (ascending): [{', '.join(map(_fmt_c, g))}]\n")
    out.write(f"distinct-root counts: {tuple(sol_set.counts)}\n")
    out.write(f"total solutions: {sol_set.total}\n")
    template = "solution %s  residual %.3e\n" + _row_template(d) * d
    for b in blocks:
        keys = np.array([str(tuple(row)) for row in idx[b].tolist()], dtype=object)[:, None]
        cells = np.concatenate([keys, r[b], _floats(xs[b])], axis=1, dtype=object).ravel().tolist()
        out.write(template * len(keys) % tuple(cells))
    _warn(sol_set.warnings)


def _solve_opts(args, opts):
    """solve's keywords: a set flag, checked as file options are, beats the file's option;
    solve's defaults fill the rest."""
    flags = {k: v for k in _SOLVE_FLAGS if (v := getattr(args, k, None)) is not None}
    given = {**opts, **{k: algebra.check_option(k, v, "command line") for k, v in flags.items()}}
    return {name: given[k] for k, (_, name) in _SOLVE_FLAGS.items() if k in given}


def cmd_solve(args, out):
    if args.command == "example":
        ctx, coeffs, opts = problems.parse_problem(problems.BUILTIN_PROBLEMS[args.name], args.name)
    else:
        ctx, coeffs, opts = problems.load_problem(args.file)
    try:
        sol_set = solver.solve(solver.MatrixPolyEquation(ctx, coeffs), **_solve_opts(args, opts))
    except errors.EnumerationCapExceeded as exc:
        if exc.total is None or exc.cap is None:
            raise
        remedy = "raise --cap or the problem's options.cap"
        total = solver.describe_count(exc.total)
        raise errors.EnumerationCapExceeded(f"{total} solutions exceed cap {exc.cap}; {remedy}")
    _report_solution_set(ctx, sol_set, args.json, out)
    return EXIT_OK


def cmd_check(args, out):
    ctx, coeffs, opts = problems.load_problem(args.problem)
    _warn(ctx.warnings)
    x = problems.load_matrix_file(args.candidate)
    comm, comm_scale = algebra.commutator(ctx, x)
    tol = opts.get("residual_tol", solver.DEFAULT_RESIDUAL_TOL)
    eq = solver.MatrixPolyEquation(ctx, coeffs)
    (resid,), (bound,) = eq.certify(x[None], tol)
    ok = resid <= bound and comm <= tol * comm_scale
    out.write(f"equation residual: {resid:.6e} (bound {bound:.6e})\n")
    out.write(f"commutation residual: {comm:.6e} (bound {tol * comm_scale:.6e})\n")
    out.write("PASS\n" if ok else "FAIL\n")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_repr(args, out):
    ctx, _ = problems.parse_q_document(problems.load_json(args.qfile), args.qfile)
    _warn(ctx.warnings)
    a = problems.load_matrix_file(args.afile)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IllConditionedWarning)
            p = algebra.repr_poly(ctx, a)
    except NotMember as exc:
        sys.stderr.write(f"not a member: commutation residual {exc.residual:.6e}\n")
        return EXIT_INVALID
    _warn(w.message for w in caught)
    resid = linalg.frobenius(algebra.from_repr_poly(ctx, p) - a)
    coeffs = np.pad(p, (0, ctx.d - len(p)))  # repr_poly trims trailing zeros
    out.write("coefficients (ascending): " + ", ".join(_fmt_c(c) for c in coeffs) + "\n")
    out.write(f"reconstruction residual: {resid:.6e}\n")
    return EXIT_OK


def cmd_diag(args, out):
    ctx, _ = problems.parse_q_document(problems.load_json(args.qfile), args.qfile)
    _warn(ctx.warnings)
    rows = solver.blocks(ctx.d, ctx.d)  # both reports write T in these blocks of rows
    if not args.json:
        out.write(f"provenance: {ctx.provenance}\n")
        out.write("eigenvalues: " + ", ".join(map(_fmt_c, ctx.eigenvalues)) + "\n")
        out.write(f"cond_T: {ctx.cond_T:.6e}\nmin_gap: {ctx.min_gap:.6e}\n")
        out.write(f"verification residual: {ctx.verification_residual:.6e}\nT:\n")
        for block in map(_floats(ctx.T).__getitem__, rows):
            out.write(_row_template(ctx.d) * len(block) % tuple(block.ravel().tolist()))
        return EXIT_OK
    doc = {
        "schema": problems.SCHEMA,
        "provenance": ctx.provenance,
        "eigenvalues": problems.emit(ctx.eigenvalues),
        "cond_T": ctx.cond_T,
        "min_gap": ctx.min_gap,
        "verification_residual": ctx.verification_residual,
        "T": [_LIST],
        "T_inv": [_LIST],
    }
    row = [[_HOLE] * 2] * ctx.d  # map() binds each m now; a generator would bind it late
    _write_json(out, doc, [(row, map(_floats(m).__getitem__, rows)) for m in (ctx.T, ctx.T_inv)])
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="qcomm",
        description="Solve monic polynomial matrix equations in the commutant of Q.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a problem file")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    for key, (convert, _) in _SOLVE_FLAGS.items():
        sp.add_argument("--" + key.replace("_", "-"), type=convert)
    sp.set_defaults(func=cmd_solve)

    cp = sub.add_parser("check", help="verify a candidate solution matrix")
    cp.add_argument("problem")
    cp.add_argument("candidate")
    cp.set_defaults(func=cmd_check)

    rp = sub.add_parser("repr", help="representation polynomial of a member")
    rp.add_argument("qfile")
    rp.add_argument("afile")
    rp.set_defaults(func=cmd_repr)

    dp = sub.add_parser("diag", help="diagonalization report for Q")
    dp.add_argument("qfile")
    dp.add_argument("--json", action="store_true")
    dp.set_defaults(func=cmd_diag)

    ep = sub.add_parser("example", help="run a built-in worked problem")
    ep.add_argument("name", choices=sorted(problems.BUILTIN_PROBLEMS))
    ep.add_argument("--json", action="store_true")
    ep.set_defaults(func=cmd_solve)

    return p


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    # overflow is reported by the exit-3 message, not by numpy warnings
    with np.errstate(all="ignore"):
        try:
            args = build_parser().parse_args(argv)
            return args.func(args, out)
        except (NumericalFailure, SingularMatrix) as exc:
            sys.stderr.write(f"numerical failure: {exc}\n")
            return EXIT_NUMERICAL
        except QcommError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
