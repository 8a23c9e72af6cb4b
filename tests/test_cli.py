import json

import pytest

from rbsys import documents as docs
from rbsys import regular_bimodule, zero_cocycle
from rbsys.cli import main

from instances import f2_zero_instance, line_system, perturbed_phi, triangular_system


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


@pytest.mark.parametrize(
    "content",
    [b"[" * 1100 + b"]" * 1100, b'{"schema": "rbs/v1", "kind": "\xff"}', b'{"dim": ' + b"9" * 5000 + b"}"],
    ids=["nested-1100-deep", "not-utf-8", "5000-digit-integer"],
)
def test_validate_unreadable_json_exits_2_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().out


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
    monkeypatch.setattr(cohomology, "phi", perturbed_phi(cohomology.phi, 0, 1, Fraction(1, 3)))
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

    from rbsys import QQ

    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    rng = random.Random(0)
    cx = Complexes(sys, mod)
    sl = cx.slice(RBS, 2)
    vec = random_matrix(QQ, sl.cols, 1, rng)
    while (sl @ vec).is_zero():
        vec = random_matrix(QQ, sl.cols, 1, rng)
    c = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))
    spath = tmp_path / "sys.json"
    docs.dump(docs.serialize_system(sys), spath)
    cpath = tmp_path / "c.json"
    docs.dump(docs.serialize_cocycle(c), cpath)
    assert main(["extend", "build", str(spath), str(cpath)]) == 1


def test_rbs_is_assembled_only_for_its_image(tmp_path, monkeypatch, capsys):
    # kernels, cocycle tests and gauge solves read the blocks of rbs_n; the
    # whole slice is assembled only where its image is needed: the LES
    # coboundary spans of rbs_0..rbs_2 and the census's B^2 = im rbs_1
    import random

    from rbsys import Complexes, apply_gauge, constant_deformation, h2_extension_census, les_check

    from instances import random_gauge

    assembled = []
    rbs = Complexes.rbs

    def counted(self, n):
        assembled.append(n)
        return rbs(self, n)

    monkeypatch.setattr(Complexes, "rbs", counted)
    sys = triangular_system(GF5(), 1, 2)
    mod = regular_bimodule(sys)
    assert les_check(sys, mod, 3).ok
    assert assembled == [0, 1, 2]
    assembled.clear()
    census = h2_extension_census(sys, mod)
    assert assembled == [1]

    sdoc = docs.serialize_system(sys)
    spath, cpath, dpath = (str(tmp_path / name) for name in ("S.json", "C.json", "D.json"))
    docs.dump(sdoc, spath)
    docs.dump(docs.serialize_cocycle(census[-1][0], sdoc), cpath)
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, random.Random(5)))
    docs.dump(docs.serialize_deformation(defn, sys, system_doc=sdoc), dpath)
    assembled.clear()
    assert main(["extend", "build", spath, cpath, "-o", str(tmp_path / "E.json")]) == 0
    assert main(["deform", "rigidify", spath, dpath]) == 0
    assert main(["deform", "infinitesimal", spath, dpath]) == 0
    assert "composite gauge" in capsys.readouterr().out
    assert assembled == []


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


def test_extend_build_builds_each_block_once(tmp_path, monkeypatch):
    # the cocycle test inside build reads rbs_2 = [[delta_2, 0], [-phi_2,
    # -partial_1]]: two Hochschild slices, one phi and the doubled module once
    from collections import Counter

    from rbsys import cohomology

    calls = Counter()

    def counted(name):
        original = getattr(cohomology, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cohomology, name, wrapper)

    for name in ("hochschild_slice", "phi", "_d_module_unchecked"):
        counted(name)
    sys = triangular_system(GF5(), 1, 2)  # d = 3
    spath, cpath = str(tmp_path / "sys.json"), str(tmp_path / "c.json")
    docs.dump(docs.serialize_system(sys), spath)
    docs.dump(docs.serialize_cocycle(zero_cocycle(sys, regular_bimodule(sys))), cpath)
    assert main(["extend", "build", spath, cpath, "-o", str(tmp_path / "ext.json")]) == 0
    assert calls == {"hochschild_slice": 2, "phi": 1, "_d_module_unchecked": 1}


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
    ],
)
def test_malformed_scalars_and_counts_exit_2(field, path, value, extra, message, tmp_path, capsys):
    from rbsys import GF, QQ, constant_deformation

    sys = triangular_system(QQ if field == "Q" else GF(field), 1, 1)
    found = {
        "sys": docs.serialize_system(sys),
        "defn": docs.serialize_deformation(constant_deformation(sys, 1), sys),
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
    # next block.  Both are printed (pytest -s).  Opt in with pytest -m slow.
    import os
    import random
    import subprocess
    import sys as _sys
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
    argv = ["cohomology", str(spath), str(mpath), "--what", "rbs", "--max-degree", "5", "--cap", "30000", "--json"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    # rbs with tracemalloc on, its peak written to stderr
    traced = (
        "import sys, tracemalloc; tracemalloc.start(); from rbsys.cli import main; code = main(sys.argv[1:]); "
        "print(tracemalloc.get_traced_memory()[1], file=sys.stderr); sys.exit(code)"
    )
    proc = subprocess.Popen(
        [_sys.executable, "-c", traced, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = proc.stdout.read(), proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert json.loads(out)["h"] == [0] * 6
    peak = int(err)
    print(f"corner: max RSS {usage.ru_maxrss / 1024:.1f} MiB, tracemalloc peak {peak / 2**20:.1f} MiB")
    assert usage.ru_maxrss <= 400 * 1024  # KiB
    assert peak <= 240 * 2**20


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
