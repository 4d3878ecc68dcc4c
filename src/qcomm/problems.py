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
from .poly import evaluate

SCHEMA = "qcomm/1"

Q_VARIANTS = ("matrix", "weighted_circulant", "circulant", "companion_eigenvalues")
COEFF_VARIANTS = ("matrix", "repr_poly", "diag_coords")
OPTIONS = ("cluster_tol", "residual_tol", "distinct_tol", "cap")
DOCUMENT_KEYS = ("schema", "q", "degree", "coefficients", "options")


def parse_complex(v, where="value"):
    if not isinstance(v, (list, tuple)) or len(v) != 2 or not all(map(algebra._finite, v)):
        raise ParseError(
            f"{where}: complex scalar must be a two-element [re, im] array of finite numbers"
        )
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


def emit(a):
    """Wire form of a complex array of any shape: each scalar becomes [re, im]."""
    return np.stack((a.real, a.imag), -1).tolist()


def _keys(obj, where, known, required=(), noun="key"):
    """obj, checked as a JSON object holding every key of required and no key outside known:
    a ParseError names the first missing key, else the first unknown key in sorted order."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object of {noun}s")
    missing = [f"missing {k!r}" for k in required if k not in obj]
    unknown = [f"unknown {noun} {k!r}" for k in sorted(set(obj) - set(known), key=str)]
    if missing or unknown:
        raise ParseError(f"{where}: {(missing + unknown)[0]}")
    return obj


def _check_schema(doc, path, known, required):
    """doc, its keys checked by _keys, then its schema."""
    if _keys(doc, path, known, required).get("schema") != SCHEMA:
        raise ParseError(f"{path}: missing or unsupported schema (want {SCHEMA!r})")
    return doc


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an int literal past the digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _variant(spec, variants, where):
    """(tag, value) of a tagged union: an object holding exactly one of variants, no other key."""
    if len(_keys(spec, where, variants)) != 1:
        raise ParseError(f"{where}: exactly one of {variants} required")
    return next(iter(spec.items()))


def context_from_q_spec(q_spec, distinct_tol=algebra.DEFAULT_TOL, where="q"):
    """Build a QContext from a parsed Q descriptor, choosing the structured
    closed form whenever the descriptor names one."""
    kind, value = _variant(q_spec, Q_VARIANTS, where)
    if kind == "matrix":
        return algebra.make_context(parse_matrix(value, where), distinct_tol)
    if kind == "weighted_circulant":
        spec = structured.WeightedCirculantSpec.from_weights(parse_vector(value, where))
        return structured.weighted_circulant_context(spec, distinct_tol)
    if kind == "circulant":
        return structured.circulant_context(parse_vector(value, where), distinct_tol)
    return structured.companion_context(parse_vector(value, where), distinct_tol)


def coefficient_from_entry(entry, where, ctx):
    """A matrix or diag coordinates; repr_poly is evaluated at ctx's eigenvalues."""
    kind, value = _variant(entry, COEFF_VARIANTS, where)
    if kind == "matrix":
        return parse_matrix(value, where)
    if kind == "repr_poly":
        return evaluate(parse_vector(value, where), ctx.eigenvalues)
    return parse_vector(value, where)


def load_problem(path):
    """Parse a problem file into (QContext, coefficient list, options dict)."""
    return parse_problem(load_json(path), path)


def parse_q_document(doc, path="<q>"):
    """(QContext, options dict) of a Q or problem document: its keys (DOCUMENT_KEYS, OPTIONS),
    schema and options (by algebra.check_option) checked, Q at its distinct_tol."""
    _check_schema(doc, path, DOCUMENT_KEYS, ("q",))
    opts = _keys(doc.get("options", {}), path, OPTIONS, noun="option")
    for key in OPTIONS:
        if key in opts:
            algebra.check_option(key, opts[key], path)
    distinct_tol = opts.get("distinct_tol", algebra.DEFAULT_TOL)
    return context_from_q_spec(doc["q"], distinct_tol, f"{path}:q"), opts


def parse_problem(doc, path="<problem>"):
    """(QContext, coefficient list, options dict) of a problem document,
    its Q and options read by parse_q_document, its degree by algebra.check_option."""
    ctx, opts = parse_q_document(doc, path)
    n = algebra.check_option("degree", doc.get("degree"), path)
    entries = doc.get("coefficients")
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f"{path}: 'coefficients' must list exactly {n} entries")
    where = f"{path}:coefficients"
    coeffs = [coefficient_from_entry(e, f"{where}[{i}]", ctx) for i, e in enumerate(entries)]
    return ctx, coeffs, opts


def load_matrix_file(path):
    """Parse a standalone matrix document ({"schema": ..., "matrix": ...})."""
    doc = _check_schema(load_json(path), path, ("schema", "matrix"), ("matrix",))
    return parse_matrix(doc["matrix"], f"{path}:matrix")


# Worked regression problems: a degree-2 equation whose coefficient data is
# pinned at the eigenvalues, posed over a weighted circulant and over a
# companion matrix. Both share the same scalar data (-5, 2, -3) / (4, 1, 2).
_PAPER_COEFFICIENTS = [
    {"diag_coords": [[-5, 0], [2, 0], [-3, 0]]},
    {"diag_coords": [[4, 0], [1, 0], [2, 0]]},
]
BUILTIN_PROBLEMS = {
    "paper-3.1": {
        "schema": SCHEMA,
        "q": {"weighted_circulant": [[1, 0], [1, 0], [8, 0]]},
        "degree": 2,
        "coefficients": _PAPER_COEFFICIENTS,
    },
    "paper-3.2": {
        "schema": SCHEMA,
        "q": {"companion_eigenvalues": [[1, 0], [2, 0], [3, 0]]},
        "degree": 2,
        "coefficients": _PAPER_COEFFICIENTS,
    },
}
