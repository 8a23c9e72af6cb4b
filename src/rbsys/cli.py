"""Batch command-line front door.

Subcommands wire the library modules to JSON documents on disk:

  validate    axiom checks for system / bimodule / extension documents
  star        write the star algebra of a system as a system document
  semidirect  write the semidirect product of a system and a bimodule
  cohomology  dimension table for one of the three complexes
  les         long-exact-sequence exactness report
  rba-embed   embedding/cokernel check for a weight-lambda operator
  deform      verify | infinitesimal | rigidify | op-verify
  extend      build | extract | census | check-iso

Exit codes: 0 all checks pass, 1 a mathematical check fails (first witness
reported), 2 malformed input, shape mismatch, or cap exceeded.  Every
command accepts --json for a machine-readable report with the same numbers.
--cap sets the slice-size guard; when it is not given, the environment
variable RBS_DIM_CAP replaces the default of 20000.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from . import documents as docs
from .algebra import check_associative
from .bimodules import check_rbs_bimodule, regular_bimodule, semidirect_product
from .cohomology import (
    ALG,
    RBS,
    RBSO,
    DimensionCapExceeded,
    betti,
    les_check,
    rba_embedding_check,
    resolve_cap,
)
from .deformation import (
    DeformationData,
    DeformationReport,
    OperatorDeformation,
    infinitesimal,
    rigidify,
    verify_deformation,
    verify_operator_deformation,
)
from .extensions import (
    NotACocycle,
    build_extension,
    check_extension,
    check_iso,
    extract_cocycle,
    h2_extension_census,
    same_class_check,
)
from .systems import check_rbs, star_algebra, check_rb_operator, RotaBaxterSystem
from .documents import DocumentError
from .linalg import QQ

PASS, FAIL, BAD_INPUT = 0, 1, 2


class _Reporter:
    def __init__(self, as_json):
        self.as_json = as_json
        self.payload = {}
        self.lines = []

    def line(self, text):
        self.lines.append(text)

    def set(self, key, value):
        self.payload[key] = value

    def flush(self):
        if self.as_json:
            # over Q a failing verdict's witness values can be Fractions
            print(json.dumps(self.payload, indent=2, default=QQ.scalar_token))
        else:
            for line in self.lines:
                print(line)


def _witness_dict(verdict):
    out = {"ok": bool(verdict)}
    if not verdict:
        out["tag"] = verdict.tag
        if verdict.witness is not None:
            out["witness"] = list(verdict.witness) if isinstance(verdict.witness, tuple) else verdict.witness
        if verdict.lhs is not None:
            out["lhs"] = verdict.lhs
            out["rhs"] = verdict.rhs
    return out


def _emit_document(rep, doc, output, label):
    """Report doc; write it to output when given, else print it."""
    rep.set("document", doc)
    if output:
        docs.dump(doc, output)
        rep.line(f"{label} written to {output}")
    else:
        rep.line(json.dumps(doc, indent=2))


def _column_tokens(field, col):
    return [field.scalar_token(col[i, 0]) for i in range(col.rows)]


def _load_system(path):
    doc = docs.load(path)
    return docs.parse_system(doc), doc


def _load_bimodule(path, sys_obj, system_doc, system_path):
    doc = docs.load(path)
    docs.check_system_reference(doc, system_doc, path, system_path)
    return docs.parse_bimodule(doc, sys_obj)


def _bimodule_or_regular(args, sys_obj, system_doc):
    if getattr(args, "bimodule", None):
        return _load_bimodule(args.bimodule, sys_obj, system_doc, args.system)
    return regular_bimodule(sys_obj)


def _system_guard(sys_obj, rep):
    """Report the first failing axiom; mathematical failures exit 1, not 2."""
    assoc = check_associative(sys_obj.alg)
    if not assoc:
        rep.set("system", _witness_dict(assoc))
        rep.line(f"input is not associative: {assoc.describe()}")
        return False
    axioms = check_rbs(sys_obj)
    if not axioms:
        rep.set("system", _witness_dict(axioms))
        rep.line(f"input fails the operator equations: {axioms.describe()}")
        return False
    return True


def cmd_validate(args, rep):
    sys_obj, system_doc = _load_system(args.system)
    checks = []
    assoc = check_associative(sys_obj.alg)
    checks.append(("associativity", assoc))
    if assoc:
        checks.append(("system_axioms", check_rbs(sys_obj)))
    if args.bimodule and all(v for _, v in checks):
        mod = _load_bimodule(args.bimodule, sys_obj, system_doc, args.system)
        checks.append(("bimodule_axioms", check_rbs_bimodule(mod)))
    rep.set("checks", {name: _witness_dict(v) for name, v in checks})
    for name, verdict in checks:
        rep.line(f"{name}: {verdict.describe()}")
        if not verdict:
            return FAIL
    return PASS


def cmd_star(args, rep):
    sys_obj, _ = _load_system(args.system)
    if not _system_guard(sys_obj, rep):
        return FAIL
    alg = star_algebra(sys_obj)
    out_sys = RotaBaxterSystem(alg, sys_obj.R, sys_obj.S)
    commuting = sys_obj.R @ sys_obj.S == sys_obj.S @ sys_obj.R
    _emit_document(rep, docs.serialize_system(out_sys, name="star"), args.output, "star algebra")
    rep.set("operators_commute", commuting)
    rep.line(f"operators commute (star system keeps the axioms): {commuting}")
    return PASS


def cmd_semidirect(args, rep):
    sys_obj, system_doc = _load_system(args.system)
    if not _system_guard(sys_obj, rep):
        return FAIL
    mod = _bimodule_or_regular(args, sys_obj, system_doc)
    doc = docs.serialize_system(semidirect_product(mod), name="semidirect")
    _emit_document(rep, doc, args.output, "semidirect product")
    return PASS


_TAGS = {"alg": ALG, "rbso": RBSO, "rbs": RBS}


def cmd_cohomology(args, rep):
    sys_obj, system_doc = _load_system(args.system)
    if not _system_guard(sys_obj, rep):
        return FAIL
    mod = _bimodule_or_regular(args, sys_obj, system_doc)
    report = betti(_TAGS[args.what], sys_obj, mod, args.max_degree, args.cap)
    rep.set("complex", args.what)
    rep.set("rows", report.rows)
    rep.set("h", report.h)
    rep.line(f"complex: {args.what}")
    rep.line(f"{'n':>3} {'dim':>6} {'rank':>6} {'ker':>6} {'im':>6} {'H^n':>6}")
    for row in report.rows:
        rep.line(
            f"{row['n']:>3} {row['dim']:>6} {row['rank']:>6} {row['kernel']:>6} "
            f"{row['image_below']:>6} {row['h']:>6}"
        )
    return PASS


def cmd_les(args, rep):
    sys_obj, system_doc = _load_system(args.system)
    if not _system_guard(sys_obj, rep):
        return FAIL
    mod = _bimodule_or_regular(args, sys_obj, system_doc)
    report = les_check(sys_obj, mod, args.max_degree, args.cap)
    rep.set("ok", report.ok)
    rep.set(
        "slots",
        [
            {"name": s.name, "degree": s.degree, "image": s.image_dim, "kernel": s.kernel_dim, "ok": s.ok}
            for s in report.slots
        ],
    )
    for s in report.slots:
        rep.line(f"slot {s.name}^{s.degree}: image {s.image_dim}, kernel {s.kernel_dim}, {'ok' if s.ok else 'FAIL'}")
    rep.line(f"long exact sequence: {'exact' if report.ok else 'EXACTNESS FAILURE'}")
    return PASS if report.ok else FAIL


def cmd_rba_embed(args, rep):
    sys_obj, _ = _load_system(args.system)
    lam = sys_obj.field.coerce(args.weight)
    verdict = check_rb_operator(sys_obj.alg, sys_obj.R, lam)
    if not verdict:
        rep.set("rb_operator", _witness_dict(verdict))
        rep.line(f"R is not a weight-{args.weight} operator: {verdict.describe()}")
        return FAIL
    report = rba_embedding_check(sys_obj.alg, sys_obj.R, lam, args.max_degree, args.cap)
    rep.set("ok", report.ok)
    rep.set("degrees", report.details)
    for row in report.details:
        rep.line(
            f"degree {row['n']}: injective={row['injective']} closed={row['image_closed']} "
            f"chain={row['chain_map']} cokernel={row['quotient_matches_display']}"
        )
    rep.line(f"embedding check: {'ok' if report.ok else 'FAIL'}")
    return PASS if report.ok else FAIL


def _load_deformation(args, sys_obj, system_doc):
    doc = docs.load(args.deformation)
    docs.check_system_reference(doc, system_doc, args.deformation, args.system)
    return docs.parse_deformation(doc, sys_obj)


def cmd_deform(args, rep):
    sys_obj, system_doc = _load_system(args.system)
    if not _system_guard(sys_obj, rep):
        return FAIL
    defn = _load_deformation(args, sys_obj, system_doc)
    sub = args.deform_cmd
    if sub == "op-verify":
        if isinstance(defn, DeformationData):
            if not all(m.is_zero() for m in defn.mus[1:]):
                raise DocumentError("op-verify needs an operator deformation (omit \"mus\")")
            defn = OperatorDeformation(defn.order, defn.Rs, defn.Ss)
        report = DeformationReport(verify_operator_deformation(sys_obj, defn))
        bad = report.failing_orders()
        rep.set("ok", report.ok)
        rep.set("failing_orders", bad)
        rep.line(f"operator deformation: {'valid' if report.ok else f'fails at orders {bad}'}")
        return PASS if report.ok else FAIL
    if isinstance(defn, OperatorDeformation):
        raise DocumentError(f"{sub} needs a full deformation document (with \"mus\")")
    if sub == "verify":
        report = verify_deformation(sys_obj, defn)
        bad = report.failing_orders()
        rep.set("ok", report.ok)
        rep.set("failing_orders", bad)
        rep.line(f"deformation: {'valid' if report.ok else f'fails at orders {bad}'}")
        return PASS if report.ok else FAIL
    if sub == "infinitesimal":
        cochain, ok = infinitesimal(sys_obj, defn, args.cap)
        rep.set("cocycle", ok)
        rep.set("coordinates", _column_tokens(sys_obj.field, cochain.vector))
        rep.line(f"infinitesimal packaged; cocycle: {ok}")
        return PASS if ok else FAIL
    if sub == "rigidify":
        report = rigidify(sys_obj, defn, args.cap)
        if report.success:
            gauge_tokens = [docs._matrix_tokens(p) for p in report.gauge.psis]
            rep.set("success", True)
            rep.set("gauge", gauge_tokens)
            rep.line("rigidified: composite gauge")
            for k, mat in enumerate(gauge_tokens):
                rep.line(f"  order {k}: {mat}")
            return PASS
        rep.set("success", False)
        rep.set("stuck_order", report.stuck_order)
        rep.set("stuck_class", _column_tokens(sys_obj.field, report.stuck_class.vector))
        rep.line(f"stuck at order {report.stuck_order}; cohomology class coordinates:")
        rep.line("  " + str(rep.payload["stuck_class"]))
        return FAIL
    raise DocumentError(f"unknown deform subcommand {sub!r}")


def cmd_extend(args, rep):
    sub = args.extend_cmd
    if sub == "check-iso":
        ext1 = docs.parse_extension(docs.load(args.ext1))
        ext2 = docs.parse_extension(docs.load(args.ext2))
        iso = docs.parse_iso(docs.load(args.iso), ext1.hat.dim, ext1.hat.field)
        diagram = check_iso(ext1, ext2, iso)
        rep.set("diagram", _witness_dict(diagram))
        rep.line(f"diagram checks: {diagram.describe()}")
        if not diagram:
            return FAIL
        same = same_class_check(ext1, ext2, iso)
        rep.set("same_class", _witness_dict(same))
        rep.line(f"same cohomology class: {same.describe()}")
        return PASS if same else FAIL
    if sub == "extract":
        ext = docs.parse_extension(docs.load(args.extension))
        verdict = check_extension(ext)
        if not verdict:
            rep.set("extension", _witness_dict(verdict))
            rep.line(f"not a valid extension: {verdict.describe()}")
            return FAIL
        _emit_document(rep, docs.serialize_cocycle(extract_cocycle(ext)), args.output, "cocycle")
        return PASS

    sys_obj, system_doc = _load_system(args.system)
    if not _system_guard(sys_obj, rep):
        return FAIL
    if sub == "build":
        mod = _bimodule_or_regular(args, sys_obj, system_doc)
        cdoc = docs.load(args.cocycle)
        docs.check_system_reference(cdoc, system_doc, args.cocycle, args.system)
        c = docs.parse_cocycle(cdoc, sys_obj, mod)
        try:
            ext = build_extension(sys_obj, mod, c, args.cap)
        except NotACocycle:
            rep.line("payload is not a 2-cocycle; refusing to build")
            rep.set("cocycle", False)
            return FAIL
        _emit_document(rep, docs.serialize_extension(ext), args.output, "extension")
        return PASS
    if sub == "census":
        mod = _bimodule_or_regular(args, sys_obj, system_doc)
        entries = h2_extension_census(sys_obj, mod, cap=args.census_cap, dim_cap=args.cap)
        rep.set("h2_dim", len(entries) - 1)
        rep.line(f"dim H^2 = {len(entries) - 1}")
        written = []
        for k, (c, ext) in enumerate(entries):
            label = "trivial" if k == 0 else f"h2_{k - 1}"
            if args.output:
                path = f"{args.output.removesuffix('.json')}_{label}.json"
                docs.dump(docs.serialize_extension(ext), path)
                written.append(path)
                rep.line(f"{label}: written to {path}")
            else:
                rep.line(f"{label}: extension of total dimension {ext.hat.dim}")
        rep.set("written", written)
        return PASS
    raise DocumentError(f"unknown extend subcommand {sub!r}")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--max-degree", type=int, default=3, help="top cohomological degree")
    common.add_argument("--cap", type=int, default=None, help="cochain dimension guard")

    parser = argparse.ArgumentParser(
        prog="rbs",
        description="Exact computations with finite-dimensional Rota-Baxter systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", parents=[common], help="axiom checks for documents")
    p.add_argument("system")
    p.add_argument("bimodule", nargs="?", default=None)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("star", parents=[common], help="star algebra of a system")
    p.add_argument("system")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_star)

    p = subs.add_parser("semidirect", parents=[common], help="semidirect product system")
    p.add_argument("system")
    p.add_argument("bimodule", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_semidirect)

    p = subs.add_parser("cohomology", parents=[common], help="dimension table of a complex")
    p.add_argument("system")
    p.add_argument("bimodule", nargs="?", default=None)
    p.add_argument("--what", choices=["alg", "rbso", "rbs"], default="rbs")
    p.set_defaults(func=cmd_cohomology)

    p = subs.add_parser("les", parents=[common], help="long exact sequence check")
    p.add_argument("system")
    p.add_argument("bimodule", nargs="?", default=None)
    p.set_defaults(func=cmd_les)

    p = subs.add_parser("rba-embed", parents=[common], help="weight-lambda embedding check")
    p.add_argument("system")
    p.add_argument("--weight", required=True, help="weight lambda (exact scalar)")
    p.set_defaults(func=cmd_rba_embed)

    p = subs.add_parser("deform", parents=[common], help="deformation commands")
    p.add_argument("deform_cmd", choices=["verify", "infinitesimal", "rigidify", "op-verify"])
    p.add_argument("system")
    p.add_argument("deformation")
    p.set_defaults(func=cmd_deform)

    p = subs.add_parser("extend", parents=[common], help="extension commands")
    ext_subs = p.add_subparsers(dest="extend_cmd", required=True)

    b = ext_subs.add_parser("build", parents=[common])
    b.add_argument("system")
    b.add_argument("cocycle")
    b.add_argument("--bimodule", default=None)
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=cmd_extend)

    e = ext_subs.add_parser("extract", parents=[common])
    e.add_argument("extension")
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=cmd_extend)

    c = ext_subs.add_parser("census", parents=[common])
    c.add_argument("system")
    c.add_argument("--bimodule", default=None)
    c.add_argument("--census-cap", type=int, default=64)
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=cmd_extend)

    i = ext_subs.add_parser("check-iso", parents=[common])
    i.add_argument("ext1")
    i.add_argument("ext2")
    i.add_argument("iso")
    i.set_defaults(func=cmd_extend)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap is None:
        args.cap = resolve_cap(None)
    rep = _Reporter(args.json)
    try:
        code = args.func(args, rep)
    except (DocumentError, DimensionCapExceeded, ValueError) as exc:
        rep.set("error", str(exc))
        rep.line(f"error: {exc}")
        rep.flush()
        return BAD_INPUT
    rep.set("exit_code", code)
    rep.flush()
    return code


if __name__ == "__main__":
    _sys.exit(main())
