import json

import pytest

from rbsys import documents as docs
from rbsys import regular_bimodule, zero_cocycle
from rbsys.cli import main

from instances import f2_zero_instance, line_system, triangular_system


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

    from rbsys import CochainComplex, Matrix, RBS
    from rbsys.cohomology import Cochain
    from rbsys.extensions import cocycle_from_cochain

    from instances import random_matrix

    from rbsys import QQ

    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    rng = random.Random(0)
    cx = CochainComplex(RBS, sys, mod)
    sl = cx.slice(2).matrix
    vec = random_matrix(QQ, sl.cols, 1, rng)
    while (sl @ vec).is_zero():
        vec = random_matrix(QQ, sl.cols, 1, rng)
    c = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))
    spath = tmp_path / "sys.json"
    docs.dump(docs.serialize_system(sys), spath)
    cpath = tmp_path / "c.json"
    docs.dump(docs.serialize_cocycle(c), cpath)
    assert main(["extend", "build", str(spath), str(cpath)]) == 1


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


def test_env_cap_override(f2_zero_path, monkeypatch):
    monkeypatch.setenv("RBS_DIM_CAP", "2")
    assert main(["cohomology", f2_zero_path, "--max-degree", "3"]) == 2
    monkeypatch.setenv("RBS_DIM_CAP", "50000")
    assert main(["cohomology", f2_zero_path, "--max-degree", "3"]) == 0


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
