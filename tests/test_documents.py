import json
import random
from fractions import Fraction

import pytest

from rbsys import GF, QQ, Matrix, zero_cocycle
from rbsys import documents as docs
from rbsys.documents import DocumentError

from instances import (
    f2_zero_instance,
    random_gauge,
    random_matrix,
    random_system_bimodule,
    rational_base_change,
    triangular_system,
    zero_action_bimodule,
)


def test_system_round_trip():
    sys = triangular_system(QQ, 1, 2)
    doc = docs.serialize_system(sys, name="tri")
    back = docs.parse_system(doc)
    assert back == sys
    assert doc["name"] == "tri"


def test_system_round_trip_prime_field():
    sys = triangular_system(GF(5), 3, 4)
    assert docs.parse_system(docs.serialize_system(sys)) == sys


def test_rational_tokens():
    field = QQ
    sys = triangular_system(field)
    half = Matrix.from_rows(field, [["1/2", 0, 0], [0, 0, 0], [0, 0, "-2/3"]])
    from rbsys import RotaBaxterSystem

    sys2 = RotaBaxterSystem(sys.alg, half, Matrix.zeros(field, 3, 3))
    doc = docs.serialize_system(sys2)
    assert doc["R"][0][0] == "1/2"
    assert doc["R"][2][2] == "-2/3"
    assert doc["R"][0][1] == 0
    assert docs.parse_system(doc) == sys2


def test_scalar_tokens_of_flags_follow_the_entry_grammar():
    # integers and "[-]a/b" over Q, as Fractions; integers mod p over GF(p)
    from fractions import Fraction

    for token, want in (("3", Fraction(3)), ("-3", Fraction(-3)), ("-6/4", Fraction(-3, 2)), ("0/7", Fraction(0))):
        got = docs.parse_scalar(QQ, token, "--weight")
        assert got == want and type(got) is Fraction
    assert [docs.parse_scalar(GF(5), t, "--weight") for t in ("12", "-1", "0")] == [2, 4, 0]
    for field, token in ((QQ, " 1"), (QQ, "+1"), (QQ, "1/+2"), (GF(5), "1/1"), (GF(5), "")):
        with pytest.raises(DocumentError, match="--weight: "):
            docs.parse_scalar(field, token, "--weight")


def test_bimodule_round_trip():
    rng = random.Random(0)
    sys = triangular_system(GF(2), 1, 1)
    mod = zero_action_bimodule(sys, 2, rng)
    sdoc = docs.serialize_system(sys)
    doc = docs.serialize_bimodule(mod, system_doc=sdoc)
    back = docs.parse_bimodule(doc, sys)
    assert back == mod
    docs.check_system_reference(doc, sdoc, "bimodule", "system")
    other = docs.serialize_system(triangular_system(GF(2), 1, 0))
    with pytest.raises(DocumentError):
        docs.check_system_reference(doc, other, "bimodule", "system")


def test_cocycle_round_trip():
    sys, mod = f2_zero_instance()
    c = zero_cocycle(sys, mod)
    doc = docs.serialize_cocycle(c)
    assert docs.parse_cocycle(doc, sys, mod) == c


def test_deformation_round_trip():
    from rbsys import DeformationData, apply_gauge, constant_deformation

    rng = random.Random(1)
    sys = triangular_system(QQ, 2, 1)
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, rng))
    doc = docs.serialize_deformation(defn, sys)
    back = docs.parse_deformation(doc, sys)
    assert isinstance(back, DeformationData)
    assert back == defn

    # an operator-only document (no "mus") holds mu fixed: it reads as the
    # deformation whose mu series is constant, which writes that series
    od_doc = {k: v for k, v in doc.items() if k != "mus"}
    back_od = docs.parse_deformation(od_doc, sys)
    assert isinstance(back_od, DeformationData)
    assert back_od.mus == [sys.alg.mult_matrix()] + [Matrix.zeros(QQ, 3, 9)] * 2
    assert back_od.Rs == defn.Rs
    assert back_od.Ss == defn.Ss
    written = docs.serialize_deformation(back_od, sys)
    assert {k: v for k, v in written.items() if k != "mus"} == od_doc
    assert docs.parse_deformation(written, sys) == back_od


def test_extension_round_trip():
    from rbsys import build_extension

    sys, mod = f2_zero_instance()
    ext = build_extension(sys, mod, zero_cocycle(sys, mod))
    doc = docs.serialize_extension(ext)
    back = docs.parse_extension(doc)
    assert back.hat == ext.hat
    assert back.incl == ext.incl
    assert back.proj == ext.proj
    assert back.section == ext.section
    assert back.retraction == ext.retraction


def _documents(field, rng):
    """A system, bimodule, deformation and extension document of one seeded
    pair; over Q the pair is transported along a base change with mixed
    denominators and entries past 2^62."""
    from rbsys import (
        Cocycle2,
        MultiMap,
        apply_gauge,
        assemble_extension,
        conjugate_bimodule,
        conjugate_system,
        constant_deformation,
    )

    sys, mod = random_system_bimodule(rng, field, big=True)
    if field.p is None:
        P, Q = rational_base_change(sys.dim, rng), rational_base_change(mod.dim, rng)
        sys, mod = conjugate_system(sys, P), conjugate_bimodule(mod, P, Q)
    d, m = sys.dim, mod.dim
    sdoc = docs.serialize_system(sys, name="pair")
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, rng))
    payload = Cocycle2(*(MultiMap(sys.alg, k, random_matrix(field, m, d**k, rng)) for k in (2, 1, 1)))
    return {
        "system": sdoc,
        "bimodule": docs.serialize_bimodule(mod, sdoc),
        "deformation": docs.serialize_deformation(defn, sys, sdoc),
        "extension": docs.serialize_extension(assemble_extension(sys, mod, payload)),
    }


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(2147483659), QQ], ids=repr)
def test_documents_serialize_back_byte_for_byte(field):
    # serialize(parse(doc)) is doc, and the tensor views of what was read
    # hold the field's scalars: over Q an int for each integral entry and a
    # Fraction for each other one
    rng = random.Random(f"round-trip-{field}")
    types = set()
    for _ in range(4):
        found = _documents(field, rng)
        sys = docs.parse_system(found["system"])
        mod = docs.parse_bimodule(found["bimodule"], sys)
        back = {
            "system": docs.serialize_system(sys, name="pair"),
            "bimodule": docs.serialize_bimodule(mod, found["system"]),
            "deformation": docs.serialize_deformation(
                docs.parse_deformation(found["deformation"], sys), sys, found["system"]
            ),
            "extension": docs.serialize_extension(docs.parse_extension(found["extension"])),
        }
        for kind, doc in found.items():
            assert json.dumps(back[kind], indent=2) == json.dumps(doc, indent=2), kind
        for view in (sys.alg.mult, mod.actions.left, mod.actions.right):
            assert view.dtype == field.dtype and not view.flags.writeable
            if field.p is None:
                assert all(type(x) is (int if Fraction(x).denominator == 1 else Fraction) for x in view.ravel())
                types.update(map(type, view.ravel()))
            else:
                assert all(0 <= x < field.p for x in view.ravel().tolist())
    assert field.p is not None or types == {int, Fraction}


def test_iso_round_trip():
    from rbsys.extensions import ExtensionIso

    iso = ExtensionIso(Matrix.from_rows(GF(2), [[1, 0], [1, 1]]))
    doc = docs.serialize_iso(iso)
    back = docs.parse_iso(doc, 2, GF(2))
    assert back.zeta == iso.zeta


def test_malformed_documents_rejected():
    with pytest.raises(DocumentError):
        docs.parse_system({"kind": "system"})
    with pytest.raises(DocumentError):
        docs.parse_system({"schema": "rbs/v1", "kind": "bimodule"})
    with pytest.raises(DocumentError):
        docs.parse_system(
            {"schema": "rbs/v1", "kind": "system", "field": "Q", "dim": 1,
             "mult": [[[0, 0]]], "R": [[0]], "S": [[0]]}
        )
    with pytest.raises(DocumentError):
        docs.parse_system(
            {"schema": "rbs/v1", "kind": "system", "field": {"Fp": 4}, "dim": 1,
             "mult": [[[0]]], "R": [[0]], "S": [[0]]}
        )
    with pytest.raises(DocumentError):
        docs.parse_system(
            {"schema": "rbs/v1", "kind": "system", "field": "Q", "dim": 1,
             "mult": [[[0.5]]], "R": [[0]], "S": [[0]]}
        )


def test_document_hash_stable():
    sys = triangular_system(GF(2), 1, 1)
    doc = docs.serialize_system(sys)
    assert docs.document_hash(doc) == docs.document_hash(docs.parse_system(doc) and doc)
    h1 = docs.document_hash(doc)
    doc2 = docs.serialize_system(triangular_system(GF(2), 1, 1))
    assert docs.document_hash(doc2) == h1


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1, 2147483659])
def test_prime_field_matrices_are_read_without_coercion(p, monkeypatch):
    # checked prime-field entries are residues already: the matrix is one
    # array in the field's dtype, equal to the one Matrix.from_rows builds,
    # and the messages of the checks are unchanged
    from rbsys import Field

    field = GF(p)
    data = [[0, 1, p - 1], [p - 2, 0, 1]]
    expected = Matrix.from_rows(field, data)

    def refused(self, x):
        raise AssertionError("a checked residue was coerced")

    monkeypatch.setattr(Field, "coerce", refused)
    got = docs._parse_matrix(field, data, 2, 3, "R")
    assert got == expected and got.num.dtype == expected.num.dtype
    assert docs._parse_matrix(field, [], 0, 3, "R") == Matrix.zeros(field, 0, 3)
    assert docs._parse_matrix(field, [[], []], 2, 0, "R") == Matrix.zeros(field, 2, 0)
    for bad, message in [
        ([[0, 1, p]], f"R: entry {p} is not an integer in [0, {p})"),
        ([[0, True, 1]], f"R: entry True is not an integer in [0, {p})"),
        ([[0, "1", 1]], f"R: entry '1' is not an integer in [0, {p})"),
        ([[0, 1]], "R: expected 3 columns per row"),
        ([[0, 1, 1], [0, 1, 1]], "R: expected 1 rows"),
    ]:
        with pytest.raises(DocumentError) as exc:
            docs._parse_matrix(field, bad, 1, 3, "R")
        assert str(exc.value) == message
