"""Circulant fast path: eigenvalues by one FFT of the first row.

A circulant with first-row coefficients a is the polynomial with
coefficients a evaluated at the basic cyclic shift, so its eigenvalues, the
diagonal coordinates every circulant equation is solved in, are that
polynomial at the roots of unity: np.fft.fft(a), with no eigensolver and no
matrix similarity. This script checks circulant_context's eigenvalues
against Horner evaluation at omega^(d-i+1), then solves a cubic equation
over 4x4 circulants both through the circulant context and through the
generic eigensolver.
"""

import numpy as np

import qcomm as qc

d = 4
rng = np.random.default_rng(0)
a = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
omega = np.exp(2j * np.pi / d)

print("circulant_context eigenvalue vs Horner at omega^(d-i+1):")
eigs = qc.circulant_context(a).eigenvalues
for i in range(1, d + 1):
    horner = qc.poly.evaluate(a, omega ** (d - i + 1))
    print(f"  i={i}: {eigs[i - 1]:.12f}  vs  {horner:.12f}  (diff {abs(eigs[i - 1] - horner):.2e})")

# a degree-3 equation over circulants, solved via the circulant context; each
# coefficient is a polynomial in Q (ascending coefficients), that is, the
# circulant with that first row
ctx = qc.circulant_context([0.0, 1.0, 0.0, 0.0])  # Q = cyclic shift
coeffs = [
    qc.from_repr_poly(ctx, rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
    for _ in range(3)
]
result = qc.solve(qc.MatrixPolyEquation(ctx, coeffs))
print(f"\ncounts {tuple(result.counts)} -> total {result.total}")
print("max residual over all solutions:", max(s.residual for s in result.solutions))

# cross-check against the generic eigensolver path
ctx_gen = qc.make_context(ctx.Q)
result_gen = qc.solve(qc.MatrixPolyEquation(ctx_gen, coeffs))
print("generic path total:", result_gen.total)
