"""Solve X^2 + AX + B = O over a weighted circulant, step by step.

Q has 1s on the superdiagonal and an 8 in the corner; its commutant is the
algebra of "Q-circulant" matrices. The closed-form diagonalizer (a scaling
matrix times the inverse DFT) turns the matrix equation into three scalar
quadratics, and every choice of one root per quadratic is a solution.
"""

import numpy as np

import qcomm as qc

spec = qc.WeightedCirculantSpec.from_weights([1, 1, 8])
Q = qc.weighted_circulant_matrix(spec)
print("Q =")
print(Q.real)

ctx = qc.weighted_circulant_context(spec)
print("\neigenvalues (closed form, no eigensolver):")
print(np.round(ctx.eigenvalues, 6))

# Coefficients are pinned by their values at the eigenvalues: A takes the
# values (-5, 2, -3), B the values (4, 1, 2).
A = qc.from_diag_coords(ctx, [-5, 2, -3])
B = qc.from_diag_coords(ctx, [4, 1, 2])
print("\nA commutes with Q:", qc.is_member(ctx, A))
print("representation polynomial of A (ascending):", np.round(qc.repr_poly(ctx, A), 6))

eq = qc.MatrixPolyEquation(ctx, [A, B])
for i, g in enumerate(qc.build_scalar_polys(eq), start=1):
    print(f"g_{i} coefficients (ascending):", np.round(g, 10))

result = qc.solve(eq)
print(f"\ndistinct-root counts {tuple(result.counts)} -> {result.total} solutions")
# the solution set's warnings: here g_2's count depends on the clustering tolerance
for w in result.warnings:
    print("warning:", w)
for s in result.solutions:
    print(f"\nroot choice {s.indices}, residual {s.residual:.2e}:")
    print(np.round(s.X, 6))
