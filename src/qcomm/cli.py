"""Command-line front end.

Subcommands: solve, check, repr, diag, example. Exit codes: 0 success,
2 input/validation error, 3 numerical failure.
"""

import argparse
import json
import sys

import numpy as np

from . import algebra, linalg, problems, solver
from .errors import (
    DegreeZero,
    DimensionMismatch,
    EnumerationCapExceeded,
    NotDistinctEigenvalues,
    NotMember,
    NumericalFailure,
    ParseError,
    SingularMatrix,
    ZeroPolynomial,
    ZeroWeight,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

_VALIDATION_ERRORS = (
    ParseError,
    NotDistinctEigenvalues,
    NotMember,
    DimensionMismatch,
    ZeroWeight,
    ZeroPolynomial,
    DegreeZero,
    EnumerationCapExceeded,
)
_NUMERICAL_ERRORS = (NumericalFailure, SingularMatrix)


def _fmt_c(z):
    z = complex(z)
    return f"{z.real:+.12g}{z.imag:+.12g}j"


def _fmt_poly(g):
    return "[" + ", ".join(_fmt_c(c) for c in g.coeffs) + "]"


def _print_matrix(m, out, indent="  "):
    for row in np.asarray(m):
        out.write(indent + "[" + ", ".join(_fmt_c(z) for z in row) + "]\n")


def _solution_set_doc(ctx, sol_set):
    return {
        "schema": problems.SCHEMA,
        "eigenvalues": [problems.emit_complex(z) for z in ctx.eigenvalues],
        "scalar_polys": [
            [problems.emit_complex(c) for c in g.coeffs] for g in sol_set.scalar_polys
        ],
        "counts": sol_set.counts,
        "total": sol_set.total,
        "solutions": [
            {
                "indices": list(s.indices),
                "u": [problems.emit_complex(z) for z in s.u],
                "matrix": problems.emit_matrix(s.X),
                "residual": s.residual,
            }
            for s in sol_set.solutions
        ],
        "warnings": sol_set.warnings,
    }


def _report_solution_set(ctx, sol_set, as_json, out):
    if as_json:
        json.dump(_solution_set_doc(ctx, sol_set), out, indent=2)
        out.write("\n")
        return
    out.write("eigenvalues: " + ", ".join(_fmt_c(z) for z in ctx.eigenvalues) + "\n")
    for i, g in enumerate(sol_set.scalar_polys):
        out.write(f"g_{i + 1} coeffs (ascending): {_fmt_poly(g)}\n")
    out.write(f"distinct-root counts: {tuple(sol_set.counts)}\n")
    out.write(f"total solutions: {sol_set.total}\n")
    for s in sol_set.solutions:
        out.write(f"solution {s.indices}  residual {s.residual:.3e}\n")
        _print_matrix(s.X, out)
    for w in sol_set.warnings:
        sys.stderr.write(f"warning: {w}\n")


def _solve_opts(args, opts):
    merged = {
        "cluster_tol": opts.get("cluster_tol"),
        "residual_tol": float(opts.get("residual_tol", solver.DEFAULT_RESIDUAL_TOL)),
        "enumeration_cap": int(opts.get("cap", solver.DEFAULT_ENUMERATION_CAP)),
    }
    if getattr(args, "cluster_tol", None) is not None:
        merged["cluster_tol"] = args.cluster_tol
    if getattr(args, "residual_tol", None) is not None:
        merged["residual_tol"] = args.residual_tol
    if getattr(args, "cap", None) is not None:
        merged["enumeration_cap"] = args.cap
    return merged


def cmd_solve(args, out):
    ctx, coeffs, opts = problems.load_problem(args.file)
    eq = solver.MatrixPolyEquation(ctx, coeffs)
    sol_set = solver.solve(eq, **_solve_opts(args, opts))
    _report_solution_set(ctx, sol_set, args.json, out)
    return EXIT_OK


def cmd_example(args, out):
    doc = problems.BUILTIN_PROBLEMS[args.name]
    ctx, coeffs, opts = problems.parse_problem(doc, args.name)
    eq = solver.MatrixPolyEquation(ctx, coeffs)
    sol_set = solver.solve(eq, **_solve_opts(args, opts))
    _report_solution_set(ctx, sol_set, args.json, out)
    return EXIT_OK


def cmd_check(args, out):
    ctx, coeffs, opts = problems.load_problem(args.problem)
    x = problems.load_matrix_file(args.candidate)
    comm, comm_scale = algebra.commutator(ctx, x)
    tol = float(opts.get("residual_tol", solver.DEFAULT_RESIDUAL_TOL))
    cert = solver.Certificate(solver.MatrixPolyEquation(ctx, coeffs))
    resid = cert.residual(x)
    bound = cert.bound(x, tol)
    ok = resid <= bound and comm <= tol * comm_scale
    out.write(f"equation residual: {resid:.6e} (bound {bound:.6e})\n")
    out.write(f"commutation residual: {comm:.6e} (bound {tol * comm_scale:.6e})\n")
    out.write("PASS\n" if ok else "FAIL\n")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_repr(args, out):
    doc = problems.load_json(args.qfile)
    if "q" not in doc:
        raise ParseError(f"{args.qfile}: missing 'q'")
    ctx = problems.context_from_q_spec(doc["q"], where=f"{args.qfile}:q")
    a = problems.load_matrix_file(args.afile)
    try:
        p = algebra.repr_poly(ctx, a)
    except NotMember:
        comm, _ = algebra.commutator(ctx, a)
        sys.stderr.write(f"not a member: commutation residual {comm:.6e}\n")
        return EXIT_INVALID
    recon = algebra.from_repr_poly(ctx, p)
    resid = linalg.frobenius(recon - a)
    coeffs = np.zeros(ctx.d, dtype=complex)
    coeffs[: len(p.coeffs)] = p.coeffs
    out.write("coefficients (ascending): " + ", ".join(_fmt_c(c) for c in coeffs) + "\n")
    out.write(f"reconstruction residual: {resid:.6e}\n")
    return EXIT_OK


def cmd_diag(args, out):
    doc = problems.load_json(args.qfile)
    if "q" not in doc:
        raise ParseError(f"{args.qfile}: missing 'q'")
    ctx = problems.context_from_q_spec(doc["q"], where=f"{args.qfile}:q")
    dec = ctx.dec
    verify = linalg.frobenius(ctx.T_inv @ ctx.Q @ ctx.T - np.diag(ctx.eigenvalues))
    if args.json:
        json.dump(
            {
                "schema": problems.SCHEMA,
                "provenance": ctx.provenance,
                "eigenvalues": [problems.emit_complex(z) for z in ctx.eigenvalues],
                "cond_T": dec.cond_T,
                "min_gap": dec.min_gap,
                "verification_residual": verify,
                "T": problems.emit_matrix(ctx.T),
                "T_inv": problems.emit_matrix(ctx.T_inv),
            },
            out,
            indent=2,
        )
        out.write("\n")
        return EXIT_OK
    out.write(f"provenance: {ctx.provenance}\n")
    out.write("eigenvalues: " + ", ".join(_fmt_c(z) for z in ctx.eigenvalues) + "\n")
    out.write(f"cond_T: {dec.cond_T:.6e}\n")
    out.write(f"min_gap: {dec.min_gap:.6e}\n")
    out.write(f"verification residual: {verify:.6e}\n")
    out.write("T:\n")
    _print_matrix(ctx.T, out)
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
    sp.add_argument("--cluster-tol", dest="cluster_tol", type=float)
    sp.add_argument("--residual-tol", dest="residual_tol", type=float)
    sp.add_argument("--cap", type=int)
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
    ep.set_defaults(func=cmd_example)

    return p


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
