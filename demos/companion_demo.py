"""Quadratic matrix equation over the commutant of a companion matrix.

Pick three distinct eigenvalues; the companion matrix of (x-1)(x-2)(x-3) is
diagonalized by the Vandermonde matrix in (1, 2, 3), and the same reduction
to scalar quadratics applies. One of the scalar equations has a double root,
so the solution count drops from 2*2*2 to 2*1*2 = 4.
"""

import numpy as np

import qcomm as qc

ctx = qc.companion_context([1, 2, 3])
print("companion matrix:")
print(ctx.Q.real)
print("\nVandermonde diagonalizer T:")
print(ctx.T.real)

eq = qc.MatrixPolyEquation(
    ctx,
    [np.array([-5, 2, -3], dtype=complex), np.array([4, 1, 2], dtype=complex)],
)
for i, g in enumerate(qc.build_scalar_polys(eq), start=1):
    print(f"g_{i} coefficients (ascending):", np.round(g.real, 10))

result = qc.solve(eq)
print(f"\ncounts {tuple(result.counts)} -> total {result.total}")
for s in result.solutions:
    print(f"\nroot choice {s.indices}, residual {s.residual:.2e}:")
    print(np.round(s.X.real, 6))

# independent certificate for the first solution
x = result.solutions[0].X
print("\nequation residual of first solution:", qc.verify_solution(eq, x))
