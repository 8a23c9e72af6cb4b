import json

import pytest

from rbsys import documents as docs
from rbsys import regular_bimodule, zero_cocycle
from rbsys.cli import main

from instances import f2_zero_instance, line_system, perturbed_phi, triangular_system
from spies import count_calls


@pytest.fixture
def f2_zero_path(tmp_path):
    sys, _ = f2_zero_instance()
    path = tmp_path / "f2zero.json"
    docs.dump(docs.serialize_system(sys, name="f2-zero"), path)
    return str(path)


@pytest.fixture
def tri_path(tmp_path):
    path = tmp_path / "tri.json"
    docs.dump(docs.serialize_system(triangular_system(GF5(), 1, 2)), path)
    return str(path)


def GF5():
    from rbsys import GF

    return GF(5)


def test_validate_pass(f2_zero_path, capsys):
    assert main(["validate", f2_zero_path]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_validate_math_failure(tmp_path, capsys):
    from rbsys import QQ

    path = tmp_path / "bad.json"
    docs.dump(docs.serialize_system(line_system(QQ, 1, 1)), path)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "eqR" in out and "(0, 0)" in out


def test_math_commands_fail_on_non_system(tmp_path, capsys):
    from rbsys import QQ

    path = tmp_path / "bad.json"
    docs.dump(docs.serialize_system(line_system(QQ, 1, 1)), path)
    assert main(["star", str(path)]) == 1
    assert main(["cohomology", str(path)]) == 1
    out = capsys.readouterr().out
    assert "eqR" in out


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "rbs/v1", "kind": "system", "field": "Q", "dim": 1, '
                    '"mult": [[[0, 0]]], "R": [[0]], "S": [[0]]}')
    assert main(["validate", str(path)]) == 2


_BAD_UTF8 = "'utf-8' codec can't decode byte 0xff in position"
_DOCUMENT = '{"schema": "rbs/v1", "kind": "system"}'


@pytest.mark.parametrize(
    ("content", "message"),
    [
        (
            b"[" * 1100 + b"]" * 1100,
            "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
        ),
        (b'{"schema": "rbs/v1", "kind": "\xff"}', f"{_BAD_UTF8} 30: invalid start byte"),
        (
            b'{"dim": ' + b"9" * 5000 + b"}",
            "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
            " use sys.set_int_max_str_digits() to increase the limit",
        ),
        (
            b"\xef\xbb\xbf" + _DOCUMENT.encode(),
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
        (_DOCUMENT.encode("utf-16"), f"{_BAD_UTF8} 0: invalid start byte"),
        (
            _DOCUMENT.encode("utf-16-le"),
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
    ],
    ids=["nested-1100-deep", "not-utf-8", "5000-digit-integer", "utf-8-bom", "utf-16", "utf-16-le-no-bom"],
)
def test_validate_unreadable_json_exits_2_naming_the_file(tmp_path, capsys, content, message):
    # a document is UTF-8 JSON: neither a byte order mark nor another
    # encoding is detected, and each error line is the one a text-mode
    # json.load gives
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out == f"error: {path}: {message}\n"


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.json"]) == 2


def test_cohomology_table(f2_zero_path, capsys):
    assert main(["cohomology", f2_zero_path, "--what", "rbs", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l.split() for l in out.strip().splitlines()[2:]]
    assert [int(row[-1]) for row in lines] == [0, 2, 3, 3]

    assert main(["cohomology", f2_zero_path, "--what", "alg", "--max-degree", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h"] == [1, 1, 1, 1]


def test_cohomology_default_is_regular_bimodule(f2_zero_path, tmp_path, capsys):
    sys, mod = f2_zero_instance()
    sdoc = docs.load(f2_zero_path)
    bpath = tmp_path / "mod.json"
    docs.dump(docs.serialize_bimodule(mod, system_doc=sdoc), bpath)
    assert main(["cohomology", f2_zero_path, "--what", "rbs", "--json"]) == 0
    default_out = json.loads(capsys.readouterr().out)
    assert main(["cohomology", f2_zero_path, str(bpath), "--what", "rbs", "--json"]) == 0
    explicit_out = json.loads(capsys.readouterr().out)
    assert default_out["h"] == explicit_out["h"]


def test_cohomology_cap_exceeded(f2_zero_path, capsys):
    assert main(["cohomology", f2_zero_path, "--max-degree", "3", "--cap", "2"]) == 2
    assert "error" in capsys.readouterr().out


def test_les_command(f2_zero_path, capsys):
    assert main(["les", f2_zero_path, "--max-degree", "2"]) == 0
    assert "exact" in capsys.readouterr().out


def test_les_failure_exit_code_and_witness(tmp_path, monkeypatch, capsys):
    # phi_0 plus a rank-one term is no longer a chain map: the sequence
    # fails at H^0_rbso, where the image of -phi leaves the kernel of the
    # shift inclusion, and the report names a cochain of the image there
    from fractions import Fraction

    from rbsys import QQ, cohomology

    path = str(tmp_path / "line.json")
    docs.dump(docs.serialize_system(line_system(QQ, 2, 0)), path)
    monkeypatch.setattr(cohomology, "phi_rows", perturbed_phi(cohomology.phi_rows, 0, 1, Fraction(1, 3)))
    assert main(["les", path, "--max-degree", "2"]) == 1
    out = capsys.readouterr().out
    assert "slot rbso^0: image 1, kernel 0, FAIL\n  fail [image_not_in_kernel] at [5/3, -1/3]\n" in out
    assert out.endswith("long exact sequence: EXACTNESS FAILURE\n")
    assert main(["les", path, "--max-degree", "2", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    failing = [s for s in report["slots"] if not s["ok"]]
    assert failing == [
        {
            "name": "rbso",
            "degree": 0,
            "image": 1,
            "kernel": 0,
            "ok": False,
            "tag": "image_not_in_kernel",
            "witness": ["5/3", "-1/3"],
        }
    ]
    # passing slots are reported as before, with no witness
    assert all(sorted(s) == ["degree", "image", "kernel", "name", "ok"] for s in report["slots"] if s["ok"])


def test_rba_embed_command(f2_zero_path, capsys):
    assert main(["rba-embed", f2_zero_path, "--weight", "1", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "embedding check: ok" in out


def test_star_and_semidirect_write(tmp_path, capsys):
    from rbsys import GF

    spath = tmp_path / "tri.json"
    docs.dump(docs.serialize_system(triangular_system(GF(5), 1, 2)), spath)
    out_star = tmp_path / "star.json"
    assert main(["star", str(spath), "-o", str(out_star)]) == 0
    star_doc = docs.load(out_star)
    assert star_doc["kind"] == "system"

    out_sd = tmp_path / "sd.json"
    assert main(["semidirect", str(spath), "-o", str(out_sd)]) == 0
    sd = docs.parse_system(docs.load(out_sd))
    assert sd.dim == 6
    assert main(["validate", str(out_sd)]) == 0
    # the triangular operators commute, so the star document is again a
    # valid system
    assert main(["validate", str(out_star)]) == 0


def test_deform_commands(tmp_path, capsys):
    import random

    from rbsys import QQ, apply_gauge, constant_deformation

    from instances import random_gauge

    sys = triangular_system(QQ, 2, 0)
    spath = tmp_path / "sys.json"
    sdoc = docs.serialize_system(sys)
    docs.dump(sdoc, spath)

    rng = random.Random(3)
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, rng))
    dpath = tmp_path / "def.json"
    docs.dump(docs.serialize_deformation(defn, sys, system_doc=sdoc), dpath)

    assert main(["deform", "verify", str(spath), str(dpath)]) == 0
    capsys.readouterr()
    assert main(["deform", "infinitesimal", str(spath), str(dpath), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cocycle"] is True
    assert main(["deform", "rigidify", str(spath), str(dpath)]) == 0
    assert "composite gauge" in capsys.readouterr().out

    const = constant_deformation(sys, 1)
    cpath = tmp_path / "const.json"
    docs.dump(docs.serialize_deformation(const, sys), cpath)
    assert main(["deform", "op-verify", str(spath), str(cpath)]) == 0


def test_op_verify_refuses_a_full_document_with_another_multiplication(tmp_path, capsys):
    # a full document read by op-verify must carry the system's own mu_0,
    # as deform verify requires: exit 2 with the same message from both
    from rbsys import DeformationData, Matrix, constant_deformation

    sys = triangular_system(GF5(), 2, 1)
    const = constant_deformation(sys, 2)
    zero_mu = Matrix.zeros(sys.field, sys.dim, sys.dim * sys.dim)
    defn = DeformationData(2, [zero_mu] + const.mus[1:], const.Rs, const.Ss)
    spath, dpath = str(tmp_path / "sys.json"), str(tmp_path / "def.json")
    docs.dump(docs.serialize_system(sys), spath)
    docs.dump(docs.serialize_deformation(defn, sys), dpath)
    for flags in ([], ["--json"]):
        assert main(["deform", "verify", spath, dpath] + flags) == 2
        expected = capsys.readouterr().out
        assert main(["deform", "op-verify", spath, dpath] + flags) == 2
        assert capsys.readouterr().out == expected
    assert expected.count("deformation is not normalised to the undeformed structure at order 0") == 1


def _deformation_docs(tmp_path):
    """The triangular GF(5) system's path, and the paths of three order-2
    deformation documents of it: operator-only (no "mus"), full with
    mu_1 != 0, and operator-only with R_0 != R."""
    from rbsys import Matrix, constant_deformation

    sys = triangular_system(GF5(), 2, 1)
    spath = str(tmp_path / "sys.json")
    docs.dump(docs.serialize_system(sys), spath)
    full = docs.serialize_deformation(constant_deformation(sys, 2), sys)
    operator = {k: v for k, v in full.items() if k != "mus"}
    deformed_mu = dict(full, mus=[full["mus"][0], full["mus"][0], full["mus"][2]])
    moved_r = dict(operator, Rs=[docs._matrix_tokens(sys.R + Matrix.identity(sys.field, sys.dim))] + operator["Rs"][1:])
    paths = {}
    for name, doc in (("operator", operator), ("deformed_mu", deformed_mu), ("moved_r", moved_r)):
        paths[name] = str(tmp_path / f"{name}.json")
        docs.dump(doc, paths[name])
    return spath, paths


def _refusal(message, as_json):
    """The whole stdout of a leaf that exits 2 on message."""
    return json.dumps({"error": message}, indent=2) + "\n" if as_json else f"error: {message}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_deform_document_kind_refusals(tmp_path, capsys, as_json):
    # verify, infinitesimal and rigidify refuse an operator-only document;
    # op-verify refuses a full one with a nonzero higher mu, and an
    # operator-only one whose R_0 is not the system's R, with the message
    # of deform verify
    spath, paths = _deformation_docs(tmp_path)
    flags = ["--json"] if as_json else []
    for sub in ("verify", "infinitesimal", "rigidify"):
        assert main(["deform", sub, spath, paths["operator"]] + flags) == 2
        message = f'{sub} needs a full deformation document (with "mus")'
        assert capsys.readouterr().out == _refusal(message, as_json)
    assert main(["deform", "op-verify", spath, paths["deformed_mu"]] + flags) == 2
    message = 'op-verify needs an operator deformation (omit "mus")'
    assert capsys.readouterr().out == _refusal(message, as_json)
    assert main(["deform", "op-verify", spath, paths["moved_r"]] + flags) == 2
    message = "deformation is not normalised to the undeformed structure at order 0"
    assert capsys.readouterr().out == _refusal(message, as_json)
    assert main(["deform", "op-verify", spath, paths["operator"]] + flags) == 0
    out = capsys.readouterr().out
    assert (json.loads(out)["failing_orders"] == [] if as_json else out == "operator deformation: valid\n")


def test_deform_rigidify_stuck(tmp_path, capsys):
    from rbsys import DeformationData, Matrix

    sys, _ = f2_zero_instance()
    field = sys.field
    spath = tmp_path / "sys.json"
    docs.dump(docs.serialize_system(sys), spath)
    one = Matrix.identity(field, 1)
    z = Matrix.zeros(field, 1, 1)
    defn = DeformationData(1, [sys.alg.mult_matrix(), one], [sys.R, z], [sys.S, z])
    dpath = tmp_path / "def.json"
    docs.dump(docs.serialize_deformation(defn, sys), dpath)
    assert main(["deform", "rigidify", str(spath), str(dpath)]) == 1
    out = capsys.readouterr().out
    assert "stuck at order 1" in out


def test_deform_hash_mismatch(tmp_path):
    from rbsys import QQ, constant_deformation

    sys = triangular_system(QQ, 2, 0)
    other = triangular_system(QQ, 1, 0)
    spath = tmp_path / "sys.json"
    docs.dump(docs.serialize_system(sys), spath)
    dpath = tmp_path / "def.json"
    docs.dump(
        docs.serialize_deformation(
            constant_deformation(sys, 1), sys, system_doc=docs.serialize_system(other)
        ),
        dpath,
    )
    assert main(["deform", "verify", str(spath), str(dpath)]) == 2


def test_extend_build_extract_round_trip(tmp_path, capsys):
    sys, mod = f2_zero_instance()
    spath = tmp_path / "sys.json"
    docs.dump(docs.serialize_system(sys), spath)
    c = zero_cocycle(sys, mod)
    cpath = tmp_path / "cocycle.json"
    docs.dump(docs.serialize_cocycle(c), cpath)
    epath = tmp_path / "ext.json"
    assert main(["extend", "build", str(spath), str(cpath), "-o", str(epath)]) == 0
    out_c = tmp_path / "extracted.json"
    assert main(["extend", "extract", str(epath), "-o", str(out_c)]) == 0
    extracted = docs.load(out_c)
    original = docs.load(cpath)
    assert extracted["Psi"] == original["Psi"]
    assert extracted["chiR"] == original["chiR"]
    assert extracted["chiS"] == original["chiS"]


def test_extend_build_rejects_non_cocycle(tmp_path, capsys):
    import random

    from rbsys import Complexes, Matrix, RBS
    from rbsys.cohomology import Cochain
    from rbsys.extensions import cocycle_from_cochain

    from instances import random_matrix
    from oracles import slice_of

    from rbsys import QQ

    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    rng = random.Random(0)
    cx = Complexes(sys, mod)
    sl = slice_of(cx, RBS, 2)
    vec = random_matrix(QQ, sl.cols, 1, rng)
    while (sl @ vec).is_zero():
        vec = random_matrix(QQ, sl.cols, 1, rng)
    c = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))
    spath = tmp_path / "sys.json"
    docs.dump(docs.serialize_system(sys), spath)
    cpath = tmp_path / "c.json"
    docs.dump(docs.serialize_cocycle(c), cpath)
    assert main(["extend", "build", str(spath), str(cpath)]) == 1


def test_no_analysis_assembles_rbs(tmp_path, monkeypatch, capsys):
    # kernels, images, cocycle tests and gauge solves read the blocks of
    # rbs_n: no analysis assembles it, neither the LES (read off the ranks
    # on a valid pair, compared at chain level with phi_0 perturbed) nor the
    # census, the extension build or the deformation commands, nor the
    # embedding check, which compares blocks of phi_n and partial_(n-1)
    import random

    from rbsys import apply_gauge, cohomology, constant_deformation, h2_extension_census, les_check

    from instances import random_gauge

    assembled = []
    whole = cohomology.rbs_d

    def counted(n, *args, **kwargs):
        assembled.append(n)
        return whole(n, *args, **kwargs)

    monkeypatch.setattr(cohomology, "rbs_d", counted)
    sys = triangular_system(GF5(), 1, 2)
    mod = regular_bimodule(sys)
    assert les_check(sys, mod, 3).ok
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "phi_rows", perturbed_phi(cohomology.phi_rows, 0, 1))
        assert not les_check(sys, mod, 3).ok
    census = h2_extension_census(sys, mod)
    assert assembled == []

    sdoc = docs.serialize_system(sys)
    spath, cpath, dpath = (str(tmp_path / name) for name in ("S.json", "C.json", "D.json"))
    docs.dump(sdoc, spath)
    docs.dump(docs.serialize_cocycle(census[-1][0], sdoc), cpath)
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, random.Random(5)))
    docs.dump(docs.serialize_deformation(defn, sys, system_doc=sdoc), dpath)
    assert main(["extend", "build", spath, cpath, "-o", str(tmp_path / "E.json")]) == 0
    assert main(["deform", "rigidify", spath, dpath]) == 0
    assert main(["deform", "infinitesimal", spath, dpath]) == 0
    assert "composite gauge" in capsys.readouterr().out
    assert assembled == []
    # R is right multiplication by e1, a weight-0 operator
    assert main(["rba-embed", spath, "--weight", "0", "--max-degree", "3"]) == 0
    assert "embedding check: ok" in capsys.readouterr().out
    assert assembled == []


# edits of the extension of the zero cocycle on the triangular GF(5) system
# (d = m = 3, n = 6: i = [0; I], p = [I | 0], t = [I; 0], s = [0 | I]), one
# per refusal of check_extension: each keeps every shape valid and breaks
# the check of its tag alone, the checks before it still passing
_DOCTORED = {
    "dimension_count": [
        (("i",), [[0] * 4] * 3 + [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        (("s",), [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [0] * 6]),
    ],
    "associativity": [(("system", "mult", 0, 0, 0), 2)],  # e0 e0 = 2 e0
    "composite_nonzero": [(("p", 0, 3), 1)],
    "inclusion_not_injective": [(("i", 5, 2), 0)],
    "projection_not_surjective": [(("p", 2, 2), 0)],
    "section_invalid": [(("t", 0, 0), 0)],
    "retraction_invalid": [(("s", 0, 3), 0)],
    "splitting_not_complementary": [(("s", 0, 0), 1)],
}


@pytest.mark.parametrize("tag", list(_DOCTORED))
def test_extract_refuses_a_doctored_extension(tag, documents, tmp_path, capsys):
    doc, path = docs.load(documents["E"]), str(tmp_path / "doctored.json")
    for where, value in _DOCTORED[tag]:
        _set(doc, where, value)
    docs.dump(doc, path)
    assert main(["extend", "extract", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["extension", "exit_code"]
    assert report["extension"]["ok"] is False and report["extension"]["tag"] == tag
    if tag == "dimension_count":
        assert report["extension"]["witness"] == [3, 4, 6]


def test_an_extension_without_section_or_retraction(tmp_path, capsys):
    # without "t" and "s" the section is the echelon solution of p t = I:
    # extract reads the same cocycle as with them, and check-iso passes
    from rbsys import Matrix, h2_extension_census
    from rbsys.extensions import ExtensionIso

    sys = triangular_system(GF5(), 1, 2)
    mod = regular_bimodule(sys)
    sdoc = docs.serialize_system(sys)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("S", "C", "E", "bare", "I")}
    cdoc = docs.serialize_cocycle(h2_extension_census(sys, mod)[-1][0])
    docs.dump(sdoc, paths["S"])
    docs.dump(cdoc, paths["C"])
    docs.dump(docs.serialize_iso(ExtensionIso(Matrix.identity(GF5(), 6))), paths["I"])
    assert main(["extend", "build", paths["S"], paths["C"], "-o", paths["E"]]) == 0
    bare = docs.load(paths["E"])
    del bare["t"], bare["s"]
    docs.dump(bare, paths["bare"])
    capsys.readouterr()
    for name in ("E", "bare"):
        assert main(["extend", "extract", paths[name], "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["document"] == cdoc
    for first, second in (("bare", "bare"), ("bare", "E"), ("E", "bare")):
        assert main(["extend", "check-iso", paths[first], paths[second], paths["I"]]) == 0
        assert capsys.readouterr().out == "diagram checks: pass\nsame cohomology class: pass\n"


def test_extend_census(f2_zero_path, tmp_path, capsys):
    out = tmp_path / "census.json"
    assert main(["extend", "census", f2_zero_path, "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "dim H^2 = 3" in text
    for label in ("trivial", "h2_0", "h2_1", "h2_2"):
        assert (tmp_path / f"census_{label}.json").exists()


def test_extend_check_iso(tmp_path, capsys):
    from rbsys import build_extension
    from rbsys.extensions import ExtensionIso
    from rbsys import Matrix, GF

    sys, mod = f2_zero_instance()
    ext = build_extension(sys, mod, zero_cocycle(sys, mod))
    e1 = tmp_path / "e1.json"
    e2 = tmp_path / "e2.json"
    docs.dump(docs.serialize_extension(ext), e1)
    docs.dump(docs.serialize_extension(ext), e2)
    ipath = tmp_path / "iso.json"
    docs.dump(docs.serialize_iso(ExtensionIso(Matrix.identity(GF(2), 2))), ipath)
    assert main(["extend", "check-iso", str(e1), str(e2), str(ipath)]) == 0
    out = capsys.readouterr().out
    assert "same cohomology class: pass" in out


def test_check_iso_checks_the_diagram_once(documents, monkeypatch, capsys):
    # the same-class comparison reuses the diagram verdict of the command
    from rbsys import cli, extensions

    calls, check_iso = [], extensions.check_iso

    def counted(*args):
        calls.append(args)
        return check_iso(*args)

    monkeypatch.setattr(cli, "check_iso", counted)
    monkeypatch.setattr(extensions, "check_iso", counted)
    argv = ["extend", "check-iso", documents["E"], documents["E"], documents["I"]]
    assert main(argv) == 0
    assert "same cohomology class: pass" in capsys.readouterr().out
    assert len(calls) == 1


def test_env_cap_override(f2_zero_path, monkeypatch):
    monkeypatch.setenv("RBS_DIM_CAP", "2")
    assert main(["cohomology", f2_zero_path, "--max-degree", "3"]) == 2
    monkeypatch.setenv("RBS_DIM_CAP", "50000")
    assert main(["cohomology", f2_zero_path, "--max-degree", "3"]) == 0


def test_env_cap_that_is_not_an_integer_is_named(f2_zero_path, monkeypatch, capsys):
    monkeypatch.setenv("RBS_DIM_CAP", "abc")
    assert main(["cohomology", f2_zero_path, "--max-degree", "3", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "RBS_DIM_CAP must be an integer, got 'abc'"


@pytest.mark.parametrize("value", ["0", "-5"])
def test_env_cap_that_is_not_positive_is_named(f2_zero_path, monkeypatch, capsys, value):
    monkeypatch.setenv("RBS_DIM_CAP", value)
    assert main(["cohomology", f2_zero_path, "--max-degree", "3", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == f"RBS_DIM_CAP must be a positive integer, got {value!r}"


def test_env_cap_is_read_once_for_every_leaf(f2_zero_path, monkeypatch, capsys):
    # main resolves the cap before any leaf runs, so a leaf that builds no
    # complex refuses a malformed RBS_DIM_CAP too; an explicit --cap wins
    monkeypatch.setenv("RBS_DIM_CAP", "abc")
    assert main(["validate", f2_zero_path, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "RBS_DIM_CAP must be an integer, got 'abc'"
    assert main(["validate", f2_zero_path, "--cap", "5"]) == 0
    assert main(["cohomology", f2_zero_path, "--cap", "50000"]) == 0


def test_cohomology_cap_message_names_the_total_space(tmp_path, capsys):
    # betti ranks rbs_n through blocks smaller than rbs_n, yet the cap still
    # guards rbs_n: exit 2 names rbs_dim(n + 1) at the first degree n whose
    # target space exceeds the cap, and every smaller space passes
    from rbsys import rbs_dim

    sys = triangular_system(GF5(), 1, 2)
    spath, mpath = str(tmp_path / "tri.json"), str(tmp_path / "tri.bimodule.json")
    sys_doc = docs.serialize_system(sys)
    docs.dump(sys_doc, spath)
    docs.dump(docs.serialize_bimodule(regular_bimodule(sys), sys_doc), mpath)
    targets = [rbs_dim(n + 1, 3, 3) for n in range(4)]
    for cap in range(1, targets[-1] + 2):
        code = main(["cohomology", spath, mpath, "--what", "rbs", "--max-degree", "3", "--cap", str(cap)])
        out = capsys.readouterr().out
        over = [dim for dim in targets if dim > cap]
        if over:
            assert (code, out) == (2, f"error: cochain space of dimension {over[0]} exceeds cap {cap}\n")
        else:
            assert code == 0 and out.startswith("complex: rbs\n")


_BLOCK_BUILDERS = ("hochschild_slice", "phi", "_d_module_unchecked")


def test_extend_build_builds_each_block_once(tmp_path, monkeypatch):
    # the payload's cocycle test is the end-to-end check of its extension,
    # which reads no block of rbs_2: no Hochschild slice, phi or doubled
    # module is built
    from rbsys import cohomology

    calls = count_calls(monkeypatch, cohomology, _BLOCK_BUILDERS)
    sys = triangular_system(GF5(), 1, 2)  # d = 3
    spath, cpath = str(tmp_path / "sys.json"), str(tmp_path / "c.json")
    docs.dump(docs.serialize_system(sys), spath)
    docs.dump(docs.serialize_cocycle(zero_cocycle(sys, regular_bimodule(sys))), cpath)
    assert main(["extend", "build", spath, cpath, "-o", str(tmp_path / "ext.json")]) == 0
    assert [calls[name] for name in _BLOCK_BUILDERS] == [0, 0, 0]


def test_extend_extract_builds_no_block(tmp_path, monkeypatch, capsys):
    # the payload of an extension that passed check_extension is a
    # cocycle: extract reads it off and builds no block of rbs_2
    from rbsys import cohomology, h2_extension_census

    sys = triangular_system(GF5(), 1, 2)  # d = 3
    c, ext = h2_extension_census(sys, regular_bimodule(sys))[1]
    epath = str(tmp_path / "ext.json")
    docs.dump(docs.serialize_extension(ext), epath)
    calls = count_calls(monkeypatch, cohomology, _BLOCK_BUILDERS)
    assert main(["extend", "extract", epath, "--json"]) == 0
    assert [calls[name] for name in _BLOCK_BUILDERS] == [0, 0, 0]
    got = json.loads(capsys.readouterr().out)["document"]
    assert got == docs.serialize_cocycle(c)


@pytest.mark.parametrize("field", ["GF(5)", "Q"])
def test_structure_commands_form_no_kronecker_product(field, tmp_path, monkeypatch, capsys):
    # every product by an identity Kronecker factor is Matrix.times: the
    # axiom checks, the star product, the semidirect product and the
    # extension round trip form no Kronecker product
    from rbsys import GF, QQ, h2_extension_census
    from rbsys.linalg import Matrix

    sys = triangular_system(GF(5) if field == "GF(5)" else QQ, 1, 2)
    mod = regular_bimodule(sys)
    spath, mpath = str(tmp_path / "sys.json"), str(tmp_path / "mod.json")
    system_doc = docs.serialize_system(sys)
    docs.dump(system_doc, spath)
    docs.dump(docs.serialize_bimodule(mod, system_doc), mpath)
    runs = [["validate", spath, mpath], ["star", spath], ["semidirect", spath, mpath]]
    if field == "GF(5)":
        c, _ext = h2_extension_census(sys, mod)[1]
        cpath, epath = str(tmp_path / "c.json"), str(tmp_path / "ext.json")
        docs.dump(docs.serialize_cocycle(c, system_doc), cpath)
        runs += [["extend", "build", spath, cpath, "-o", epath], ["extend", "extract", epath]]
    calls = count_calls(monkeypatch, Matrix, ["kron"])
    for argv in runs:
        assert main(argv + ["--json"]) == 0
    assert calls["kron"] == 0


def test_deform_infinitesimal_builds_no_block(tmp_path, monkeypatch, capsys):
    # the infinitesimal of a deformation verified through order 1 is a
    # cocycle, read off the verification: no block of rbs_2 is built
    import random

    from rbsys import apply_gauge, cohomology, constant_deformation

    from instances import random_gauge

    calls = count_calls(monkeypatch, cohomology, _BLOCK_BUILDERS)
    sys = triangular_system(GF5(), 1, 2)  # d = 3
    spath, dpath = str(tmp_path / "sys.json"), str(tmp_path / "defn.json")
    docs.dump(docs.serialize_system(sys), spath)
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, random.Random(1)))
    docs.dump(docs.serialize_deformation(defn, sys), dpath)
    assert main(["deform", "infinitesimal", spath, dpath]) == 0
    assert capsys.readouterr().out.endswith("infinitesimal packaged; cocycle: True\n")
    assert [calls[name] for name in _BLOCK_BUILDERS] == [0, 0, 0]


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "field, path, value, extra, message",
    [
        ("Q", ("sys", "dim"), True, [], '"dim" must be a positive integer'),
        ("Q", ("sys", "R", 0, 0), "1/0", [], "zero denominator"),
        ("Q", ("sys", "mult", 0, 0, 0), True, [], "boolean"),
        ("Q", ("defn", "order"), True, [], '"order" must be a non-negative integer'),
        ("Q", ("defn", "mus", 1, 0, 0, 0), True, [], "boolean"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "1/0"], "zero denominator"),
        (5, ("sys", "S", 1, 2), True, [], "not an integer in [0, 5)"),
        (5, ("sys", "mult", 2, 2, 2), 7, [], "not an integer in [0, 5)"),
        (5, ("sys", "R", 0, 0), -1, [], "not an integer in [0, 5)"),
        (5, ("defn", "Rs", 1, 0, 1), 5, [], "not an integer in [0, 5)"),
        (5, ("defn", "mus", 1, 0, 0, 0), "3", [], "not an integer in [0, 5)"),
        (5, ("sys", "field", "Fp"), 5.0, [], '"Fp" must be an integer'),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "0", "--max-degree", "-1"], "max_degree must be at least 0"),
        ("Q", None, None, ["cohomology", "{sys}", "--cap", "-1"], "--cap must be a positive integer, got -1"),
        ("Q", None, None, ["cohomology", "{sys}", "--cap", "0"], "--cap must be a positive integer, got 0"),
        ("Q", None, None, ["validate", "{sys}", "--cap", "-1"], "--cap must be a positive integer, got -1"),
        (5, None, None, ["extend", "census", "{sys}", "--census-cap", "-1"], "--census-cap must be a non-negative"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "1.5"], """--weight: '1.5' is not an integer or "[-]a/b\""""),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "1e3"], "--weight: '1e3' is not an integer or"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "\u0663"], "--weight: '\u0663' is not an integer or"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "1_000"], "--weight: '1_000' is not an integer or"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "1/-2"], "--weight: '1/-2' is not an integer or"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight=-1/0"], "--weight: entry '-1/0' has a zero denominator"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "7" * 60 + ".5"], "--weight: '" + "7" * 39 + "... (64 characters) is not"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "9" * 5000], "--weight: '" + "9" * 39 + "... (5002 characters): Exceeds"),
        (5, None, None, ["rba-embed", "{sys}", "--weight", "abc"], "--weight: 'abc' is not an integer"),
        (5, None, None, ["rba-embed", "{sys}", "--weight", "1/2"], "--weight: '1/2' is not an integer"),
        (5, None, None, ["rba-embed", "{sys}", "--weight", "\u0663"], "--weight: '\u0663' is not an integer"),
        ("Q", None, None, ["rba-embed", "{sys}", "--weight", "-1/0"], "--weight: entry '-1/0' has a zero denominator"),
        (5, ("defn", "Rs"), [[[0] * 3] * 3], [], '"Rs" must list 2 matrices'),
        (5, ("defn", "Ss"), {}, [], '"Ss" must list 2 matrices'),
        ("Q", ("defn", "mus"), [], [], '"mus" must list 2 tensors'),
        (5, ("ext", "system"), [], ["extend", "extract", "{ext}"], '"system" must embed the total system document'),
        (5, ("ext", "i"), [], ["extend", "extract", "{ext}"], '"i" must be a non-empty matrix'),
        ("Q", ("ext", "p"), "1", ["extend", "extract", "{ext}"], '"p" must be a non-empty matrix'),
        ("Q", ("sys",), [], [], "document must be a JSON object"),
        (5, ("sys", "field"), {"Fp": 5, "Q": 1}, [], """field must be "Q" or {"Fp": p}, got {'Fp': 5, 'Q': 1}"""),
    ],
)
def test_malformed_scalars_and_counts_exit_2(field, path, value, extra, message, tmp_path, capsys):
    from rbsys import GF, QQ, build_extension, constant_deformation

    sys = triangular_system(QQ if field == "Q" else GF(field), 1, 1)
    mod = regular_bimodule(sys)
    found = {
        "sys": docs.serialize_system(sys),
        "defn": docs.serialize_deformation(constant_deformation(sys, 1), sys),
        "ext": docs.serialize_extension(build_extension(sys, mod, zero_cocycle(sys, mod))),
    }
    if path is not None:
        _set(found, path, value)
    paths = {name: str(tmp_path / f"{name}.json") for name in found}
    for name, doc in found.items():
        docs.dump(doc, paths[name])
    argv = [arg.format(**paths) for arg in extra] or ["deform", "verify", paths["sys"], paths["defn"]]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and message in out


@pytest.mark.parametrize(
    "argv",
    [
        ["deform", "infinitesimal", "{sys}", "{defn}"],
        ["deform", "rigidify", "{sys}", "{defn}"],
        ["extend", "build", "{sys}", "{cocycle}"],
        ["extend", "census", "{sys}"],
    ],
)
def test_cap_applies_to_deform_and_extend(argv, tmp_path, capsys):
    import random

    from rbsys import apply_gauge, constant_deformation

    from instances import random_gauge

    sys = triangular_system(GF5(), 1, 2)  # d = 3
    paths = {name: str(tmp_path / f"{name}.json") for name in ("sys", "defn", "cocycle")}
    docs.dump(docs.serialize_system(sys), paths["sys"])
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, random.Random(1)))
    docs.dump(docs.serialize_deformation(defn, sys), paths["defn"])
    docs.dump(docs.serialize_cocycle(zero_cocycle(sys, regular_bimodule(sys))), paths["cocycle"])
    assert main([arg.format(**paths) for arg in argv] + ["--cap", "5"]) == 2
    assert "exceeds cap 5" in capsys.readouterr().out


def test_rigidify_cap_guards_only_the_target_of_rbs_1(tmp_path, capsys):
    # on the d = 3 pair above, rigidify reads [delta_1; -phi_1] alone, whose
    # target C^2_rbs has dimension 45; infinitesimal guards C^2_rbs too, the
    # space of its cochain, and reads no differential
    import random

    from rbsys import apply_gauge, constant_deformation

    from instances import random_gauge

    sys = triangular_system(GF5(), 1, 2)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("sys", "defn")}
    docs.dump(docs.serialize_system(sys), paths["sys"])
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, random.Random(1)))
    docs.dump(docs.serialize_deformation(defn, sys), paths["defn"])
    assert main(["deform", "rigidify", paths["sys"], paths["defn"], "--cap", "100"]) == 0
    capsys.readouterr()
    assert main(["deform", "rigidify", paths["sys"], paths["defn"], "--cap", "5"]) == 2
    assert capsys.readouterr().out == "error: cochain space of dimension 45 exceeds cap 5\n"
    assert main(["deform", "infinitesimal", paths["sys"], paths["defn"], "--cap", "100"]) == 0
    capsys.readouterr()
    assert main(["deform", "infinitesimal", paths["sys"], paths["defn"], "--cap", "44"]) == 2
    assert capsys.readouterr().out == "error: cochain space of dimension 45 exceeds cap 44\n"


def test_extend_build_cap_guards_the_payload_space(tmp_path, capsys):
    # build checks its payload through the extension, reading no
    # differential: --cap guards C^2_rbs, of dimension 45 at d = 3
    sys = triangular_system(GF5(), 1, 2)
    spath, cpath = str(tmp_path / "sys.json"), str(tmp_path / "c.json")
    docs.dump(docs.serialize_system(sys), spath)
    docs.dump(docs.serialize_cocycle(zero_cocycle(sys, regular_bimodule(sys))), cpath)
    argv = ["extend", "build", spath, cpath, "-o", str(tmp_path / "ext.json"), "--cap"]
    assert main(argv + ["45"]) == 0
    capsys.readouterr()
    assert main(argv + ["44"]) == 2
    assert capsys.readouterr().out == "error: cochain space of dimension 45 exceeds cap 44\n"


@pytest.mark.parametrize("module", ["rbsys", "rbsys.cli"])
def test_python_m_runs_the_cli(module, f2_zero_path, tmp_path):
    # python -m rbsys (__main__.py) and python -m rbsys.cli run main and
    # exit with its code, here on the library in src/
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("RBS_DIM_CAP", None)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )

    result = run("validate", f2_zero_path)
    assert result.returncode == 0, result.stderr
    assert "pass" in result.stdout
    result = run("validate", str(tmp_path / "missing.json"))
    assert result.returncode == 2, result.stderr
    assert result.stdout.startswith("error: ")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, before",
    [(["extend", "extract", "{E}"], ""), (["extend", "check-iso", "{E}", "{E}", "{I}"], "diagram checks: pass\n")],
    ids=["extract", "check-iso"],
)
def test_cap_applies_to_extract_and_check_iso(argv, before, as_json, documents, monkeypatch, capsys):
    # extract, and both extractions in check-iso once the diagram passes,
    # guard the payload space under --cap, as under RBS_DIM_CAP: on the
    # triangular GF(5) system (d = 3) with its regular bimodule that is
    # C^2_rbs, of dimension d^3 + 2 d^2 = 45 (the payload of a checked
    # extension is a cocycle, so no differential is built)
    argv = [arg.format(**documents) for arg in argv] + (["--json"] if as_json else [])
    message = "cochain space of dimension 45 exceeds cap 1"
    assert main(argv + ["--cap", "1"]) == 2
    out = capsys.readouterr().out
    assert (json.loads(out)["error"] if as_json else out) == (message if as_json else f"{before}error: {message}\n")
    monkeypatch.setenv("RBS_DIM_CAP", "1")
    assert main(argv) == 2
    assert capsys.readouterr().out == out


def test_large_prime_field_documents(tmp_path, capsys):
    import time

    from rbsys import GF, Matrix, RotaBaxterSystem, zero_algebra

    field = GF(2**61 - 1)
    z = Matrix.zeros(field, 1, 1)
    doc = docs.serialize_system(RotaBaxterSystem(zero_algebra(field, 1), z, z))
    path = tmp_path / "big.json"
    docs.dump(doc, path)
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    doc["field"] = {"Fp": 2**89 - 1}  # prime, beyond the deterministic Miller-Rabin range
    docs.dump(doc, path)
    assert main(["validate", str(path)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "too large" in capsys.readouterr().out


def test_json_reports_rational_witnesses(tmp_path, capsys):
    # R = 1/2 on the unital line is not a weight-1 operator: R(1)R(1) = 1/4
    # while R(R(1) + R(1) + 1) = 1
    from rbsys import QQ

    path = tmp_path / "half.json"
    docs.dump(docs.serialize_system(line_system(QQ, "1/2", "1/2")), path)
    assert main(["rba-embed", str(path), "--weight", "1", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["rb_operator"]["lhs"] == [["1/4"]]
    assert report["rb_operator"]["rhs"] == [[1]]
    assert report["exit_code"] == 1

    assert main(["rba-embed", str(path), "--weight", "1"]) == 1
    # and it is a weight -1/2 operator: R(1)R(1) = 1/4 = R(1/2 + 1/2 - 1/2);
    # the value may follow --weight as its own token
    assert main(["rba-embed", str(path), "--weight", "-1/2"]) == 0


def test_json_check_iso_rational_witness(tmp_path, capsys):
    # scaling by 1/2 is invertible but not multiplicative: on (e0, e0) the
    # two sides are 1/2 e0 and 1/4 e0
    from rbsys import QQ, Matrix, build_extension
    from rbsys.extensions import ExtensionIso

    sys = line_system(QQ, 0, 0)
    mod = regular_bimodule(sys)
    ext = docs.serialize_extension(build_extension(sys, mod, zero_cocycle(sys, mod)))
    e1, ipath = tmp_path / "e1.json", tmp_path / "iso.json"
    docs.dump(ext, e1)
    docs.dump(docs.serialize_iso(ExtensionIso(Matrix.identity(QQ, 2).scale("1/2"))), ipath)
    assert main(["extend", "check-iso", str(e1), str(e1), str(ipath), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["diagram"]["tag"] == "multiplicative"
    assert report["diagram"]["lhs"] == [["1/2"], [0]]
    assert report["diagram"]["rhs"] == [["1/4"], [0]]


def test_text_witnesses_print_the_json_tokens(tmp_path, capsys):
    # on the line with e e = e/2, R = 1/3 and S = 1/5 the first operator
    # equation fails: R(e)R(e) = 1/18 e, R(R(e)e + e S(e)) = 4/45 e
    from rbsys import QQ, Algebra, Matrix, RotaBaxterSystem

    line = Algebra(QQ, 1, [[["1/2"]]])
    sys = RotaBaxterSystem(line, Matrix.from_rows(QQ, [["1/3"]]), Matrix.from_rows(QQ, [["1/5"]]))
    path = tmp_path / "line.json"
    docs.dump(docs.serialize_system(sys), path)
    assert main(["validate", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)["checks"]["system_axioms"]
    assert (report["lhs"], report["rhs"]) == ([["1/18"]], [["4/45"]])
    assert main(["validate", str(path)]) == 1
    text = capsys.readouterr().out
    assert "lhs=[[1/18]] rhs=[[4/45]]" in text
    assert "Fraction" not in text


def test_main_builds_no_parser(f2_zero_path, monkeypatch, capsys):
    # the grammar is declared once, at import; a call only parses
    import argparse

    calls = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["validate", f2_zero_path]) == 0
    assert main(["extend", "census", f2_zero_path, "--json"]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "--json", "census", "{sys}"],
        ["extend", "--cap", "7", "census", "{sys}"],
        ["deform", "--json", "verify", "{sys}", "{defn}"],
    ],
)
def test_common_options_before_the_leaf_are_refused(argv, tmp_path, capsys):
    # the common options belong to the leaf subcommand; before it they are
    # a usage error (the extend group used to take them, and its leaf's
    # defaults overwrote them: the command ran as text with the default cap)
    from rbsys import constant_deformation

    sys, _ = f2_zero_instance()
    paths = {"sys": str(tmp_path / "sys.json"), "defn": str(tmp_path / "defn.json")}
    docs.dump(docs.serialize_system(sys), paths["sys"])
    docs.dump(docs.serialize_deformation(constant_deformation(sys, 1), sys), paths["defn"])
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage: rbs" in err


def test_one_parser_serves_calls_with_differing_options(tmp_path, capsys):
    # one process parses every call with the same parser: no option of one
    # call may leak into the next, so each report equals the report of the
    # same call run alone, in a process of its own
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    from rbsys import QQ, constant_deformation

    system = triangular_system(QQ, 2, 0)
    spath, dpath = str(tmp_path / "sys.json"), str(tmp_path / "defn.json")
    docs.dump(docs.serialize_system(system), spath)
    docs.dump(docs.serialize_deformation(constant_deformation(system, 2), system), dpath)
    sequence = [
        ["cohomology", spath, "--what", "alg", "--max-degree", "2"],
        ["cohomology", spath],
        ["les", spath, "--json", "--cap", "50000"],
        ["les", spath],
        ["deform", "op-verify", spath, dpath],
        ["deform", "verify", spath, dpath],
    ]
    in_process = []
    for argv in sequence:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("RBS_DIM_CAP", None)
    alone = []
    for argv in sequence:
        result = subprocess.run(
            [_sys.executable, "-m", "rbsys.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.stderr == ""
        alone.append((result.returncode, result.stdout))
    assert in_process == alone
    assert in_process[0][1] != in_process[1][1] and in_process[2][1] != in_process[3][1]
    assert "operator deformation: valid" in in_process[4][1] and "deformation: valid" in in_process[5][1]


@pytest.mark.parametrize("kind, dim", [("system", 10**6), ("system", 200), ("bimodule", 10**8)])
def test_document_shape_is_checked_before_allocating(kind, dim, f2_zero_path, tmp_path, capsys):
    # a "dim" alone can name any size: the nested lists are checked against
    # it before an array of that size is allocated, so an empty tensor under
    # a huge "dim" is malformed input (exit 2), not a numpy MemoryError
    import tracemalloc

    _, mod = f2_zero_instance()
    if kind == "system":
        doc = docs.load(f2_zero_path)
        doc["dim"], doc["mult"] = dim, []
        docs.dump(doc, f2_zero_path)
        argv = ["validate", f2_zero_path]
    else:
        doc = docs.serialize_bimodule(mod, system_doc=docs.load(f2_zero_path))
        doc["dim"], doc["left"] = dim, []
        bpath = str(tmp_path / "mod.json")
        docs.dump(doc, bpath)
        argv = ["validate", f2_zero_path, bpath]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert "expected shape" in out and err == ""
    assert peak < 2**20


# -- inputs that fail their axioms ---------------------------------------------

_LEAVES = [
    ["validate", "{S}", "{B}"],
    ["star", "{S}"],
    ["semidirect", "{S}", "{B}"],
    ["cohomology", "{S}", "{B}", "--max-degree", "2"],
    ["les", "{S}", "{B}", "--max-degree", "2"],
    ["rba-embed", "{S}", "--weight", "0", "--max-degree", "2"],
    ["deform", "verify", "{S}", "{D}"],
    ["deform", "infinitesimal", "{S}", "{D}"],
    ["deform", "rigidify", "{S}", "{D}"],
    ["deform", "op-verify", "{S}", "{D}"],
    ["extend", "build", "{S}", "{C}", "--bimodule", "{B}"],
    ["extend", "extract", "{E}"],
    ["extend", "census", "{S}", "--bimodule", "{B}"],
    ["extend", "check-iso", "{E}", "{E}", "{I}"],
]


@pytest.fixture
def documents(tmp_path):
    """Paths of valid documents over the triangular GF(5) system (S, B, C, D,
    E, I), and of a system failing eqR, a bimodule failing eq2 and an
    extension whose system fails eqR (bad S, B, E)."""
    from rbsys import Matrix, QQ, build_extension, constant_deformation
    from rbsys.extensions import ExtensionIso

    from instances import eq2_failing_bimodule, eqR_failing_extension_doc

    sys = triangular_system(GF5(), 1, 2)
    sdoc = docs.serialize_system(sys)
    mod = regular_bimodule(sys)
    c = zero_cocycle(sys, mod)
    ext = build_extension(sys, mod, c)
    valid = {
        "S": sdoc,
        "B": docs.serialize_bimodule(mod, sdoc),
        "C": docs.serialize_cocycle(c, sdoc),
        "D": docs.serialize_deformation(constant_deformation(sys, 2), sys, sdoc),
        "E": docs.serialize_extension(ext),
        "I": docs.serialize_iso(ExtensionIso(Matrix.identity(GF5(), ext.hat.dim))),
    }
    bad = {
        "S": docs.serialize_system(line_system(QQ, 1, 1)),
        "B": docs.serialize_bimodule(eq2_failing_bimodule(), sdoc),
        "E": eqR_failing_extension_doc(),
    }
    paths = {}
    for prefix, found in (("", valid), ("bad_", bad)):
        for name, doc in found.items():
            paths[prefix + name] = str(tmp_path / f"{prefix}{name}.json")
            docs.dump(doc, paths[prefix + name])
    return paths


def test_no_leaf_raises(documents, capsys):
    # every leaf, in process, on valid documents (exit 0) and on each
    # document that fails its axioms in turn (exit 1 wherever it is read):
    # main returns an exit code and never raises
    valid = {name: path for name, path in documents.items() if not name.startswith("bad_")}
    for argv in _LEAVES:
        for bad in (None, "S", "B", "E"):
            if bad is not None and "{" + bad + "}" not in argv:
                continue
            paths = dict(valid, **({bad: documents["bad_" + bad]} if bad else {}))
            for flags in ([], ["--json"]):
                code = main([arg.format(**paths) for arg in argv] + flags)
                out = capsys.readouterr().out
                assert code == (0 if bad is None else 1), (argv, bad, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "{S}", "{bad_B}"],
        ["les", "{S}", "{bad_B}"],
        ["semidirect", "{S}", "{bad_B}"],
        ["extend", "build", "{S}", "{C}", "--bimodule", "{bad_B}"],
        ["extend", "census", "{S}", "--bimodule", "{bad_B}"],
    ],
)
def test_bimodule_failing_its_axioms_is_exit_1_with_its_witness(argv, documents, capsys):
    argv = [arg.format(**documents) for arg in argv]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "bimodule fails the axioms: fail [eq2] at (0, 0): lhs=[[0], [1], [0]] rhs=[[1], [1], [0]]\n"
    )
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "bimodule": {
            "ok": False, "tag": "eq2", "witness": [0, 0], "lhs": [[0], [1], [0]], "rhs": [[1], [1], [0]]
        },
        "exit_code": 1,
    }


def test_check_iso_refuses_an_invalid_extension(documents, capsys):
    # check-iso checks both extensions before the diagram: an invalid one is
    # exit 1 with its witness, not an AssertionError from the extraction
    witness = "fail [eqR] at (0, 5): lhs=[[0], [0], [0], [0], [1], [0]] rhs=[[0], [0], [0], [0], [0], [0]]"
    for first, second, key in (("bad_E", "bad_E", "ext1"), ("E", "bad_E", "ext2")):
        argv = ["extend", "check-iso", documents[first], documents[second], documents["I"]]
        assert main(argv) == 1
        assert capsys.readouterr().out == f"{key} is not a valid extension: {witness}\n"
        assert main(argv + ["--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert list(report) == [key, "exit_code"] and report[key]["tag"] == "eqR"


@pytest.mark.parametrize(
    "argv, written",
    [
        (["star", "{S}"], "{out}"),
        (["semidirect", "{S}", "{B}"], "{out}"),
        (["extend", "build", "{S}", "{C}", "--bimodule", "{B}"], "{out}"),
        (["extend", "extract", "{E}"], "{out}"),
        (["extend", "census", "{S}", "--bimodule", "{B}"], "{stem}_trivial.json"),
    ],
    ids=["star", "semidirect", "extend-build", "extend-extract", "extend-census"],
)
def test_a_failed_write_is_exit_2(argv, written, documents, tmp_path, capsys):
    # every -o into a directory that does not exist: exit 2 naming the file,
    # in text and in JSON, and no traceback (exit 1 is for a failed check);
    # the JSON report holds no document, since none was written
    stem = str(tmp_path / "no" / "such" / "x")
    paths = dict(documents, out=stem + ".json", stem=stem)
    argv = [arg.format(**paths) for arg in argv] + ["-o", paths["out"]]
    message = f"{written.format(**paths)}: [Errno 2] No such file or directory"
    assert main(argv) == 2
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"error: {message}")
    assert main(argv + ["--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"].startswith(message) and "document" not in report
    assert not (tmp_path / "no").exists()


def _child(argv, env):
    """Run rbs with argv in a child process with tracemalloc on; its exit
    code, stdout, tracemalloc peak (bytes), max RSS (KiB) and wall time."""
    import os
    import subprocess
    import sys as _sys
    import time

    # rbs with tracemalloc on, its peak written to stderr
    traced = (
        "import sys, tracemalloc; tracemalloc.start(); from rbsys.cli import main; code = main(sys.argv[1:]); "
        "print(tracemalloc.get_traced_memory()[1], file=sys.stderr); sys.exit(code)"
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [_sys.executable, "-c", traced, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = proc.stdout.read(), proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, int(err), usage.ru_maxrss, wall


@pytest.mark.slow
def test_the_corner_of_the_ladder_runs_in_bounded_memory(tmp_path):
    # GF(5) idem d = 4 with the regular bimodule (a seed-7 scramble) to
    # degree 5: delta_5 is 16384 x 4096, 512 MiB as int64.  Tall slices are
    # fed to elimination in row blocks, so the child process stays under
    # 400 MB of max RSS.  Max RSS also counts heap layout, so the child
    # reports its tracemalloc peak too, the data it held: 226 MiB when
    # measured (the 128 MiB echelon buffer of delta_5, the products of one
    # block and the kernel memos), against 256 MiB while a slice's RREF was
    # gathered whole and each block's update product was kept into the
    # next block.  rbs les to degree 4 on the same pair, whose check of
    # rbs^2 = 0 reads delta_4 and phi_4 by row blocks, runs in a child too;
    # its stdout must equal, byte for byte, the one recorded in
    # tests/data/corner_les_degree4.json.  Max RSS and wall time of both are
    # printed (pytest -s).  Opt in with pytest -m slow.
    import os
    import random
    from pathlib import Path

    from rbsys import GF, conjugate_bimodule, conjugate_system, from_rb_operator

    from instances import diagonal_algebra, idempotent_rb_operator, random_invertible

    field = GF(5)
    system = from_rb_operator(diagonal_algebra(field, 4), idempotent_rb_operator(field, 4, [0, 2], 1), 1)[0]
    p = random_invertible(field, 4, random.Random(7))
    system, mod = conjugate_system(system, p), conjugate_bimodule(regular_bimodule(system), p, p)
    spath, mpath = tmp_path / "sys.json", tmp_path / "mod.json"
    system_doc = docs.serialize_system(system)
    docs.dump(system_doc, spath)
    docs.dump(docs.serialize_bimodule(mod, system_doc), mpath)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    flags = ["--cap", "30000", "--json"]
    argv = ["cohomology", str(spath), str(mpath), "--what", "rbs", "--max-degree", "5"] + flags
    code, out, peak, rss, wall = _child(argv, env)
    assert code == 0
    assert json.loads(out)["h"] == [0] * 6
    print(f"corner: max RSS {rss / 1024:.1f} MiB, tracemalloc peak {peak / 2**20:.1f} MiB, {wall:.1f} s")
    assert rss <= 400 * 1024  # KiB
    assert peak <= 240 * 2**20
    code, out, peak, rss, wall = _child(["les", str(spath), str(mpath), "--max-degree", "4"] + flags, env)
    assert code == 0 and json.loads(out)["ok"]
    assert out == (Path(__file__).parent / "data" / "corner_les_degree4.json").read_bytes()
    print(f"corner les: max RSS {rss / 1024:.1f} MiB, tracemalloc peak {peak / 2**20:.1f} MiB, {wall:.1f} s")


@pytest.mark.parametrize("token", ["1e4000", "1.5", "1_000", "٣", "+1", " 1/2", "1/-2", "2" * 5000 + "/3"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_rational_tokens_outside_the_grammar_exit_2(token, as_json, tmp_path, capsys):
    # Q entries are integers or ASCII "[-]a/b" strings, a and b within the
    # digit limit of JSON integers; anything else is malformed input that
    # the error names, never a rational nor a traceback
    from rbsys import QQ

    doc = docs.serialize_system(triangular_system(QQ, 1, 1))
    doc["R"][0][0] = token
    path = tmp_path / "sys.json"
    docs.dump(doc, path)
    assert main(["validate", str(path)] + (["--json"] if as_json else [])) == 2
    out = capsys.readouterr().out
    error = json.loads(out)["error"] if as_json else out
    assert error.startswith("R: entry ") if as_json else out.startswith("error: R: entry ")
    assert repr(token)[:40] in error


def test_only_serializers_read_structure_tensors(tmp_path, monkeypatch, capsys):
    # structure constants are stored as matrices: through a whole Q pipeline
    # a tensor is built or read only where a document is written
    import inspect
    import random
    import sys as _sys

    from rbsys import QQ, algebra, apply_gauge, conjugate_bimodule, conjugate_system, constant_deformation

    from instances import random_gauge, rational_base_change

    rng = random.Random(5)
    sys = triangular_system(QQ, 1, 2)
    mod = regular_bimodule(sys)
    P, Q = rational_base_change(3, rng), rational_base_change(3, rng)
    sys, mod = conjugate_system(sys, P), conjugate_bimodule(mod, P, Q)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("sys", "mod", "defn", "cocycle", "ext")}
    sdoc = docs.serialize_system(sys)
    docs.dump(sdoc, paths["sys"])
    docs.dump(docs.serialize_bimodule(mod, sdoc), paths["mod"])
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, rng))
    docs.dump(docs.serialize_deformation(defn, sys, sdoc), paths["defn"])
    docs.dump(docs.serialize_cocycle(zero_cocycle(sys, mod), sdoc), paths["cocycle"])

    callers = []

    def spied(original):
        def wrapper(*args, **kwargs):
            frames = inspect.stack(0)[1:]
            callers.append(next(
                (f.function for f in frames if f.function.startswith("serialize_")
                 and f.frame.f_globals.get("__name__") == "rbsys.documents"),
                frames[0].function,
            ))
            return original(*args, **kwargs)

        return wrapper

    for name in ("matrix_tensor", "tensor_matrix"):
        original = getattr(algebra, name)
        for module in list(_sys.modules.values()):
            if getattr(module, "__name__", "").startswith("rbsys") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spied(original))
    flags = ["--max-degree", "2", "--json"]
    for argv in (
        ["validate", "{sys}", "{mod}"],
        ["deform", "verify", "{sys}", "{defn}"],
        ["deform", "infinitesimal", "{sys}", "{defn}"],
        ["deform", "rigidify", "{sys}", "{defn}"],
        ["extend", "build", "{sys}", "{cocycle}", "-o", "{ext}"],
        ["extend", "extract", "{ext}"],
        ["les", "{sys}", "{mod}"],
        ["cohomology", "{sys}", "{mod}"],
    ):
        assert main([arg.format(**paths) for arg in argv] + flags) == 0, argv
    capsys.readouterr()
    assert callers and set(callers) <= {"serialize_system", "serialize_bimodule", "serialize_deformation"}


def _parser_leaves(parser, words=()):
    """(words, leaf parser) for every leaf below parser, read off its
    subparsers."""
    import argparse

    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(words, parser)]
    return [leaf for word, sub in subs[0].choices.items() for leaf in _parser_leaves(sub, words + (word,))]


def _required_words(leaf):
    """A placeholder for each positional of leaf, and each required option
    with a value."""
    out = []
    for action in leaf._actions:
        if not action.option_strings and action.nargs is None:
            out.append("x.json")
        elif action.required:
            out += [action.option_strings[-1], "1"]
    return out


def _leaf_argvs():
    from rbsys.cli import _build_parser

    return [(words, list(words) + _required_words(leaf)) for words, leaf in _parser_leaves(_build_parser())]


@pytest.mark.parametrize(("words", "argv"), _leaf_argvs(), ids=lambda x: " ".join(x))
def test_leaf_table_parses_as_the_full_parser(words, argv, capsys):
    from rbsys import cli

    full = cli._build_parser()
    for valid in (argv, argv + ["--json", "--cap", "7", "--max-degree", "2"]):
        assert vars(cli._parse(valid)) == vars(full.parse_args(valid))

    def outcome(parse, bad):
        with pytest.raises(SystemExit) as stop:
            parse(bad)
        out, err = capsys.readouterr()
        return stop.value.code, out, err

    refused = [
        list(words) + ["--help"],
        list(words),  # a positional missing
        argv + ["--no-such-option"],
        argv + ["stray"] * 3,  # past every optional positional
        argv + ["--cap", "x"],
        ["--json"] + argv,  # a common option before the leaf's words
    ] + ([[words[0], "--json"] + argv[1:]] if len(words) == 2 else [])
    for bad in refused:
        assert outcome(cli.main, bad) == outcome(full.parse_args, bad), bad


def test_a_valid_argv_is_parsed_by_its_leaf_alone(monkeypatch, capsys):
    import argparse

    from rbsys import cli

    parsers = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert set(cli._LEAVES) == {words for words, _ in _leaf_argvs()}
    for words, argv in _leaf_argvs():
        parsers.clear()
        assert main(argv) == 2  # x.json does not exist
        assert parsers == [cli._LEAVES[words][0]]
    capsys.readouterr()
