"""Problem-file parsing and the built-in worked problems.

Wire format ("schema": "qcomm/1"): complex scalars are two-element arrays
[re, im]; matrices are row-major nested arrays of such pairs. A problem
document carries exactly one Q descriptor ("matrix", "weighted_circulant",
"circulant", or "companion_eigenvalues"), a degree, and a coefficient list
whose entries are tagged "matrix", "repr_poly", or "diag_coords".
"""

import json

import numpy as np

from . import algebra, structured
from .errors import ParseError
from .poly import Polynomial

SCHEMA = "qcomm/1"

Q_VARIANTS = ("matrix", "weighted_circulant", "circulant", "companion_eigenvalues")
COEFF_VARIANTS = ("matrix", "repr_poly", "diag_coords")


def parse_complex(v, where="value"):
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) for x in v)
    ):
        raise ParseError(f"{where}: complex scalar must be a two-element [re, im] array")
    return complex(v[0], v[1])


def parse_vector(v, where="vector"):
    if not isinstance(v, list) or not v:
        raise ParseError(f"{where}: expected a non-empty array")
    return np.array([parse_complex(x, where) for x in v])


def parse_matrix(v, where="matrix"):
    if not isinstance(v, list) or not v:
        raise ParseError(f"{where}: expected a non-empty nested array")
    rows = [parse_vector(row, where) for row in v]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ParseError(f"{where}: ragged rows")
    return np.vstack(rows)


def emit_complex(z):
    z = complex(z)
    return [z.real, z.imag]


def emit_matrix(m):
    return [[emit_complex(z) for z in row] for row in np.asarray(m)]


def _check_schema(doc, path):
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ParseError(f"{path}: missing or unsupported schema (want {SCHEMA!r})")


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    _check_schema(doc, path)
    return doc


def context_from_q_spec(q_spec, distinct_tol=algebra.DEFAULT_TOL, where="q"):
    """Build a QContext from a parsed Q descriptor, choosing the structured
    closed form whenever the descriptor names one."""
    if not isinstance(q_spec, dict):
        raise ParseError(f"{where}: expected an object")
    keys = [k for k in Q_VARIANTS if k in q_spec]
    if len(keys) != 1:
        raise ParseError(f"{where}: exactly one of {Q_VARIANTS} required")
    kind = keys[0]
    if kind == "matrix":
        return algebra.make_context(parse_matrix(q_spec[kind], where), distinct_tol)
    if kind == "weighted_circulant":
        spec = structured.WeightedCirculantSpec.from_weights(
            parse_vector(q_spec[kind], where)
        )
        return structured.weighted_circulant_context(spec, distinct_tol)
    if kind == "circulant":
        return structured.circulant_context(parse_vector(q_spec[kind], where), distinct_tol)
    return structured.companion_context(parse_vector(q_spec[kind], where), distinct_tol)


def coefficient_from_entry(entry, where):
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: expected an object")
    keys = [k for k in COEFF_VARIANTS if k in entry]
    if len(keys) != 1:
        raise ParseError(f"{where}: exactly one of {COEFF_VARIANTS} required")
    kind = keys[0]
    if kind == "matrix":
        return parse_matrix(entry[kind], where)
    if kind == "repr_poly":
        return Polynomial(parse_vector(entry[kind], where))
    return parse_vector(entry[kind], where)


def load_problem(path):
    """Parse a problem file into (QContext, coefficient list, options dict)."""
    return parse_problem(load_json(path), path)


def parse_problem(doc, path="<problem>"):
    _check_schema(doc, path)
    if "q" not in doc:
        raise ParseError(f"{path}: missing 'q'")
    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise ParseError(f"{path}: 'options' must be an object")
    distinct_tol = float(opts.get("distinct_tol", algebra.DEFAULT_TOL))
    ctx = context_from_q_spec(doc["q"], distinct_tol, f"{path}:q")
    n = doc.get("degree")
    coeff_entries = doc.get("coefficients")
    if not isinstance(n, int) or n < 1:
        raise ParseError(f"{path}: 'degree' must be a positive integer")
    if not isinstance(coeff_entries, list) or len(coeff_entries) != n:
        raise ParseError(f"{path}: 'coefficients' must list exactly {n} entries")
    coeffs = [
        coefficient_from_entry(e, f"{path}:coefficients[{i}]")
        for i, e in enumerate(coeff_entries)
    ]
    return ctx, coeffs, opts


def load_matrix_file(path):
    """Parse a standalone matrix document ({"schema": ..., "matrix": ...})."""
    doc = load_json(path)
    if "matrix" not in doc:
        raise ParseError(f"{path}: missing 'matrix'")
    return parse_matrix(doc["matrix"], f"{path}:matrix")


# Worked regression problems: a degree-2 equation whose coefficient data is
# pinned at the eigenvalues, posed over a weighted circulant and over a
# companion matrix. Both share the same scalar data (-5, 2, -3) / (4, 1, 2).
BUILTIN_PROBLEMS = {
    "paper-3.1": {
        "schema": SCHEMA,
        "q": {"weighted_circulant": [[1, 0], [1, 0], [8, 0]]},
        "degree": 2,
        "coefficients": [
            {"diag_coords": [[-5, 0], [2, 0], [-3, 0]]},
            {"diag_coords": [[4, 0], [1, 0], [2, 0]]},
        ],
    },
    "paper-3.2": {
        "schema": SCHEMA,
        "q": {"companion_eigenvalues": [[1, 0], [2, 0], [3, 0]]},
        "degree": 2,
        "coefficients": [
            {"diag_coords": [[-5, 0], [2, 0], [-3, 0]]},
            {"diag_coords": [[4, 0], [1, 0], [2, 0]]},
        ],
    },
}
