"""JSON documents for systems, bimodules, cocycles, deformations, extensions.

Every document is a single self-describing JSON object with
"schema": "rbs/v1" and a "kind".  Rationals are encoded as integers or
ASCII "[-]a/b" strings with b > 0 (never floats, exponents, underscores or
other digits), a and b each within the digit limit that load puts on JSON
integers; prime-field entries as integers in [0, p).
Documents other than systems may carry "system_sha256", the hash of the
canonical serialisation of the system they belong to; it is checked when
both files are supplied together.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np

from .algebra import Algebra, BimoduleActions, MultiMap, matrix_tensor
from .bimodules import RBSBimodule
from .deformation import DeformationData
from .extensions import Cocycle2, ExtensionData, ExtensionIso
from .linalg import GF, QQ, Matrix, hstack, regroup_columns
from .systems import RotaBaxterSystem

SCHEMA = "rbs/v1"


class DocumentError(ValueError):
    """Malformed or inconsistent input document."""


def _parse_field(spec):
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        if type(spec["Fp"]) is not int:
            raise DocumentError(f'bad prime field spec: "Fp" must be an integer, got {spec["Fp"]!r}')
        try:
            return GF(spec["Fp"])
        except ValueError as exc:
            raise DocumentError(f"bad prime field spec: {exc}") from exc
    raise DocumentError(f'field must be "Q" or {{"Fp": p}}, got {spec!r}')


def _field_spec(field):
    return "Q" if field.p is None else {"Fp": field.p}


def _count(doc, key, least, words):
    value = doc.get(key)
    # JSON true is a Python int, but not a count
    if type(value) is not int or value < least:
        raise DocumentError(f'"{key}" must be a {words} integer')
    return value


_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _entry(field, x, what):
    """A checked entry: over GF(p) an integer in [0, p); over Q the pair
    (numerator, positive denominator) of a "[-]a/b" token: _checked pairs ints."""
    if field.p is not None:
        if not (type(x) is int and 0 <= x < field.p):
            raise DocumentError(f"{what}: entry {x!r} is not an integer in [0, {field.p})")
        return x
    match = _RATIONAL.fullmatch(x) if type(x) is str else None
    if match is None:
        if isinstance(x, bool):
            raise DocumentError(f"{what}: boolean {x!r} is not a scalar")
        raise DocumentError(f'{what}: entry {_shown(x)} is not an integer or a "[-]a/b" string')
    try:
        num, den = int(match[1]), int(match[2])
    except ValueError as exc:  # past the digit limit of int, as of load
        raise DocumentError(f"{what}: entry {_shown(x)}: {exc}") from None
    if not den:
        raise DocumentError(f"{what}: entry {_shown(x)} has a zero denominator")
    return num, den


_INTEGER = re.compile(r"-?[0-9]+")


def parse_scalar(field, token, what):
    """A scalar given as a string, such as a command-line flag, in the
    grammar of document entries: an ASCII "[-]digits" integer, reduced mod
    p over GF(p), or over Q also "[-]a/b" with b > 0 (a Fraction over Q).
    Anything else is a DocumentError naming what and the token."""
    if _INTEGER.fullmatch(token):
        try:
            n = int(token)
        except ValueError as exc:  # past the digit limit of int
            raise DocumentError(f"{what}: {_shown(token)}: {exc}") from None
        return Fraction(n) if field.p is None else n % field.p
    if field.p is None and _RATIONAL.fullmatch(token):
        return Fraction(*_entry(field, token, what))
    grammar = "an integer" if field.p is not None else 'an integer or "[-]a/b"'
    raise DocumentError(f"{what}: {_shown(token)} is not {grammar}")


def _shown(x):
    """A token as an error message names it: its repr, cut after 40
    characters."""
    text = repr(x)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _shaped(data, shape, what):
    """The entries of nested lists of the given shape, row-major; the lists
    are checked before anything is allocated, as a "dim" alone can name any
    size."""
    level = [data]
    for n in shape:
        if not all(isinstance(part, list) and len(part) == n for part in level):
            raise DocumentError(f"{what}: expected shape {shape}")
        level = [x for part in level for x in part]
    return level


def _matrix_entries(data, rows, cols, what):
    """The entries of a rows x cols matrix given as a list of rows, row-major."""
    if not isinstance(data, list) or len(data) != rows:
        raise DocumentError(f"{what}: expected {rows} rows")
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"{what}: expected {cols} columns per row")
    return [x for row in data for x in row]


def _parse_matrix(field, data, rows, cols, what):
    return _matrix_of(field, _checked(field, _matrix_entries(data, rows, cols, what), what), rows, cols)


def _parse_tensor3(field, data, shape, what):
    """The (a, b, k) tensor as its k x ab matrix, the transpose of the ab x k
    matrix of its entries, row-major (see algebra.tensor_matrix)."""
    return _parse_stacked(field, [(data, what)], shape)


def _parse_stacked(field, items, shape):
    """The series [c_0 | ... | c_N] of the matrices (shape (rows, cols)) or
    tensors (shape (a, b, k), each as its k x ab matrix) given as (data,
    what) in items, each checked and named by its what, built as one matrix."""
    entries = []
    for data, what in items:
        flat = _shaped(data, shape, what) if len(shape) == 3 else _matrix_entries(data, *shape, what)
        entries += _checked(field, flat, what)
    if len(shape) == 3:
        return _matrix_of(field, entries, len(entries) // shape[2], shape[2]).transpose()
    # the entries run over (c, i, j); row i of the series runs over (c, j)
    series = regroup_columns(_matrix_of(field, entries, 1, len(entries)), len(items), shape[0])
    return series.reshape(shape[0], len(entries) // shape[0])


def _checked(field, flat, what):
    """The entries flat, each checked by _entry: over GF(p) the list itself
    (a list of ints is checked in one pass), over Q their pairs (numerator,
    denominator)."""
    if field.p is not None:
        if not all(type(x) is int and 0 <= x < field.p for x in flat):
            for x in flat:
                _entry(field, x, what)
        return flat
    return [(x, 1) if type(x) is int else _entry(field, x, what) for x in flat]


def _matrix_of(field, entries, rows, cols):
    """The rows x cols matrix of entries returned by _checked, row-major."""
    if field.p is not None:
        # checked entries are residues already: one array in the field's dtype
        return Matrix(field, np.array(entries, dtype=field.dtype).reshape(rows, cols))
    # numerators over one denominator, with no Fraction per entry
    den = math.lcm(*(d for _, d in entries))
    return Matrix.rational([n * (den // d) for n, d in entries], den, (rows, cols))


def _matrix_tokens(mat):
    return [[mat.field.scalar_token(x) for x in row] for row in mat.entries()]


def _tensor_tokens(field, tensor):
    return [[[field.scalar_token(x) for x in row] for row in plane] for plane in tensor.tolist()]


def _require(doc, kind):
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise DocumentError(f'missing or wrong "schema" (expected "{SCHEMA}")')
    if doc.get("kind") != kind:
        raise DocumentError(f'expected kind "{kind}", got {doc.get("kind")!r}')


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def document_hash(doc):
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def load(path):
    """The JSON document in the file path, read as bytes and decoded as
    UTF-8 in one call: cheaper than a text-mode read, with the same errors
    (no byte order mark or other encoding is detected)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return json.loads(data.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer past the digit limit, deep nesting
        raise DocumentError(f"{path}: {exc}") from exc


def dump(doc, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


# -- system ------------------------------------------------------------------


def parse_system(doc):
    _require(doc, "system")
    field = _parse_field(doc.get("field"))
    dim = _count(doc, "dim", 1, "positive")
    alg = Algebra.from_matrix(_parse_tensor3(field, doc.get("mult"), (dim, dim, dim), "mult"))
    R = _parse_matrix(field, doc.get("R"), dim, dim, "R")
    S = _parse_matrix(field, doc.get("S"), dim, dim, "S")
    return RotaBaxterSystem(alg, R, S)


def serialize_system(sys, name=None):
    doc = {
        "schema": SCHEMA,
        "kind": "system",
        "field": _field_spec(sys.field),
        "dim": sys.dim,
        "mult": _tensor_tokens(sys.field, sys.alg.mult),
        "R": _matrix_tokens(sys.R),
        "S": _matrix_tokens(sys.S),
    }
    if name:
        doc["name"] = name
    return doc


# -- bimodule ----------------------------------------------------------------


def parse_bimodule(doc, sys):
    _require(doc, "bimodule")
    m = _count(doc, "dim", 1, "positive")
    d, field = sys.dim, sys.field
    left = _parse_tensor3(field, doc.get("left"), (d, m, m), "left")
    right = _parse_tensor3(field, doc.get("right"), (m, d, m), "right")
    actions = BimoduleActions.from_matrices(d, left, right)
    RM = _parse_matrix(field, doc.get("R_M"), m, m, "R_M")
    SM = _parse_matrix(field, doc.get("S_M"), m, m, "S_M")
    return RBSBimodule(sys, actions, RM, SM)


def serialize_bimodule(mod, system_doc=None):
    field = mod.field
    doc = {
        "schema": SCHEMA,
        "kind": "bimodule",
        "dim": mod.dim,
        "left": _tensor_tokens(field, mod.actions.left),
        "right": _tensor_tokens(field, mod.actions.right),
        "R_M": _matrix_tokens(mod.RM),
        "S_M": _matrix_tokens(mod.SM),
    }
    if system_doc is not None:
        doc["system_sha256"] = document_hash(system_doc)
    return doc


# -- cocycle -----------------------------------------------------------------


def parse_cocycle(doc, sys, mod):
    _require(doc, "cocycle")
    d, m, field = sys.dim, mod.dim, sys.field
    psi = _parse_matrix(field, doc.get("Psi"), m, d * d, "Psi")
    chi_r = _parse_matrix(field, doc.get("chiR"), m, d, "chiR")
    chi_s = _parse_matrix(field, doc.get("chiS"), m, d, "chiS")
    return Cocycle2(
        MultiMap(sys.alg, 2, psi), MultiMap(sys.alg, 1, chi_r), MultiMap(sys.alg, 1, chi_s)
    )


def serialize_cocycle(c, system_doc=None):
    doc = {
        "schema": SCHEMA,
        "kind": "cocycle",
        "Psi": _matrix_tokens(c.psi.mat),
        "chiR": _matrix_tokens(c.chi_r.mat),
        "chiS": _matrix_tokens(c.chi_s.mat),
    }
    if system_doc is not None:
        doc["system_sha256"] = document_hash(system_doc)
    return doc


# -- deformation -------------------------------------------------------------


def parse_deformation(doc, sys):
    """The deformation of a document, each family read straight into its
    series.  Without "mus" the document is operator-only: mu is held fixed,
    and the mu series is [mu | 0 | ... | 0]."""
    _require(doc, "deformation")
    order = _count(doc, "order", 0, "non-negative")
    d, field = sys.dim, sys.field
    rs_data = doc.get("Rs")
    ss_data = doc.get("Ss")
    if not isinstance(rs_data, list) or len(rs_data) != order + 1:
        raise DocumentError(f'"Rs" must list {order + 1} matrices')
    if not isinstance(ss_data, list) or len(ss_data) != order + 1:
        raise DocumentError(f'"Ss" must list {order + 1} matrices')
    R = _parse_stacked(field, [(x, f"Rs[{k}]") for k, x in enumerate(rs_data)], (d, d))
    S = _parse_stacked(field, [(x, f"Ss[{k}]") for k, x in enumerate(ss_data)], (d, d))
    if "mus" not in doc:
        mu = hstack([sys.alg.mult_matrix(), Matrix.zeros(field, d, order * d * d)])
    elif not isinstance(doc["mus"], list) or len(doc["mus"]) != order + 1:
        raise DocumentError(f'"mus" must list {order + 1} tensors')
    else:
        mu = _parse_stacked(field, [(x, f"mus[{k}]") for k, x in enumerate(doc["mus"])], (d, d, d))
    return DeformationData.from_series(order, mu, R, S)


def serialize_deformation(defn, sys, system_doc=None):
    field, d = sys.field, sys.dim
    doc = {"schema": SCHEMA, "kind": "deformation", "order": defn.order}
    doc["mus"] = [_tensor_tokens(field, matrix_tensor(mu, d, d)) for mu in defn.mus]
    doc["Rs"] = [_matrix_tokens(r) for r in defn.Rs]
    doc["Ss"] = [_matrix_tokens(s) for s in defn.Ss]
    if system_doc is not None:
        doc["system_sha256"] = document_hash(system_doc)
    return doc


# -- extension ---------------------------------------------------------------


def parse_extension(doc):
    _require(doc, "extension")
    hat_doc = doc.get("system")
    if not isinstance(hat_doc, dict):
        raise DocumentError('"system" must embed the total system document')
    hat = parse_system(hat_doc)
    n, field = hat.dim, hat.field
    i_data = doc.get("i")
    p_data = doc.get("p")
    if not isinstance(i_data, list) or not i_data:
        raise DocumentError('"i" must be a non-empty matrix')
    if not isinstance(p_data, list) or not p_data:
        raise DocumentError('"p" must be a non-empty matrix')
    m = len(i_data[0]) if isinstance(i_data[0], list) else 0
    d = len(p_data)
    incl = _parse_matrix(field, i_data, n, m, "i")
    proj = _parse_matrix(field, p_data, d, n, "p")
    section = None
    if "t" in doc:
        section = _parse_matrix(field, doc["t"], n, d, "t")
    retraction = None
    if "s" in doc:
        retraction = _parse_matrix(field, doc["s"], m, n, "s")
    return ExtensionData(hat, incl, proj, section, retraction)


def serialize_extension(ext):
    doc = {
        "schema": SCHEMA,
        "kind": "extension",
        "system": serialize_system(ext.hat),
        "i": _matrix_tokens(ext.incl),
        "p": _matrix_tokens(ext.proj),
    }
    if ext.section is not None:
        doc["t"] = _matrix_tokens(ext.section)
    if ext.retraction is not None:
        doc["s"] = _matrix_tokens(ext.retraction)
    return doc


# -- isomorphism -------------------------------------------------------------


def parse_iso(doc, total_dim, field):
    _require(doc, "iso")
    zeta = _parse_matrix(field, doc.get("zeta"), total_dim, total_dim, "zeta")
    return ExtensionIso(zeta)


def serialize_iso(iso):
    return {"schema": SCHEMA, "kind": "iso", "zeta": _matrix_tokens(iso.zeta)}


def check_system_reference(doc, system_doc, path, system_path):
    """Verify a stored system hash against the system document, if present."""
    stored = doc.get("system_sha256")
    if stored is not None and stored != document_hash(system_doc):
        raise DocumentError(
            f"{path}: system_sha256 does not match {system_path}"
        )
