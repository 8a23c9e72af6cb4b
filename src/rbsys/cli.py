"""Batch command-line front door.

Subcommands wire the library modules to JSON documents on disk:

  validate    axiom checks for system / bimodule documents
  star        write the star algebra of a system as a system document
  semidirect  write the semidirect product of a system and a bimodule
  cohomology  dimension table for one of the three complexes
  les         long-exact-sequence exactness report
  rba-embed   embedding/cokernel check for a weight-lambda operator
  deform      verify | infinitesimal | rigidify | op-verify
  extend      build | extract | census | check-iso

Exit codes: 0 all checks pass, 1 a mathematical check fails (first witness
reported), 2 malformed input, shape mismatch, cap exceeded, or an output
file that cannot be written.  A system, bimodule or extension read by a
leaf that fails its axioms is exit 1, with its witness.  Every leaf
command (``deform verify``, not ``deform``) accepts --json for a
machine-readable report with the same numbers, --max-degree and --cap;
they follow the leaf's name, as in ``rbs extend census S --json``.
--cap bounds each cochain space a leaf builds a differential into, and
C^2_rbs, the payload space of deform infinitesimal and extend build; when
it is not given, the environment variable RBS_DIM_CAP replaces the default
of 20000.  main reads it once, before any leaf runs, so a value that is
not a positive integer is exit 2 for every leaf, even one that builds no
complex; so is --cap below 1, and --census-cap below 0 for the census.
"""

from __future__ import annotations

import argparse
import json
import re
import sys as _sys

from . import documents as docs
from .algebra import check_associative
from .bimodules import check_rbs_bimodule, regular_bimodule, semidirect_product
from .cohomology import betti, les_check, rba_embedding_check, resolve_cap
from .deformation import infinitesimal, rigidify, verify_deformation
from .extensions import (
    NotACocycle,
    build_extension,
    check_extension,
    check_iso,
    extract_cocycle,
    h2_extension_census,
    same_class,
)
from .systems import check_rbs, star_algebra, check_rb_operator, RotaBaxterSystem
from .documents import DocumentError, parse_scalar
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
            out["witness"] = verdict.witness
        if verdict.lhs is not None:
            out["lhs"] = verdict.lhs
            out["rhs"] = verdict.rhs
    return out


def _emit_document(rep, doc, output, label):
    """Report doc; write it to output when given, else print it.  A write
    that fails raises before doc joins the report."""
    if output:
        docs.dump(doc, output)
        rep.line(f"{label} written to {output}")
    else:
        rep.line(json.dumps(doc, indent=2))
    rep.set("document", doc)


def _column_tokens(field, col):
    return [field.scalar_token(col[i, 0]) for i in range(col.rows)]


def _load_system(path):
    doc = docs.load(path)
    return docs.parse_system(doc), doc


def _load_bimodule(path, sys_obj, system_doc, system_path):
    doc = docs.load(path)
    docs.check_system_reference(doc, system_doc, path, system_path)
    return docs.parse_bimodule(doc, sys_obj)


class _CheckFails(Exception):
    """An input fails a mathematical check; its witness is reported, exit 1."""


def _require(rep, key, verdict, label):
    """Report a failing verdict and its witness under key, then fail with
    exit 1: a mathematical failure, not malformed input."""
    if not verdict:
        rep.set(key, _witness_dict(verdict))
        rep.line(f"{label}: {verdict.describe()}")
        raise _CheckFails


def _bimodule_or_regular(args, rep, sys_obj, system_doc):
    """The bimodule document after its axiom checks, or the regular bimodule."""
    if not getattr(args, "bimodule", None):
        return regular_bimodule(sys_obj)
    mod = _load_bimodule(args.bimodule, sys_obj, system_doc, args.system)
    _require(rep, "bimodule", check_rbs_bimodule(mod), "bimodule fails the axioms")
    return mod


def _guarded_system(args, rep):
    """The system and its document, after the axiom checks."""
    sys_obj, system_doc = _load_system(args.system)
    _require(rep, "system", check_associative(sys_obj.alg), "input is not associative")
    _require(rep, "system", check_rbs(sys_obj), "input fails the operator equations")
    return sys_obj, system_doc


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
    sys_obj, _ = _guarded_system(args, rep)
    alg = star_algebra(sys_obj)
    out_sys = RotaBaxterSystem(alg, sys_obj.R, sys_obj.S)
    commuting = sys_obj.R @ sys_obj.S == sys_obj.S @ sys_obj.R
    _emit_document(rep, docs.serialize_system(out_sys, name="star"), args.output, "star algebra")
    rep.set("operators_commute", commuting)
    rep.line(f"operators commute (star system keeps the axioms): {commuting}")
    return PASS


def cmd_semidirect(args, rep):
    sys_obj, system_doc = _guarded_system(args, rep)
    mod = _bimodule_or_regular(args, rep, sys_obj, system_doc)
    doc = docs.serialize_system(semidirect_product(mod), name="semidirect")
    _emit_document(rep, doc, args.output, "semidirect product")
    return PASS


def cmd_cohomology(args, rep):
    sys_obj, system_doc = _guarded_system(args, rep)
    mod = _bimodule_or_regular(args, rep, sys_obj, system_doc)
    report = betti(args.what, sys_obj, mod, args.max_degree, args.cap)
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
    sys_obj, system_doc = _guarded_system(args, rep)
    mod = _bimodule_or_regular(args, rep, sys_obj, system_doc)
    report = les_check(sys_obj, mod, args.max_degree, args.cap)
    rep.set("ok", report.ok)
    rep.set(
        "slots",
        [
            {"name": s.name, "degree": s.degree, "image": s.image_dim, "kernel": s.kernel_dim, "ok": s.ok}
            | ({} if s.ok else _witness_dict(s.witness))
            for s in report.slots
        ],
    )
    for s in report.slots:
        rep.line(f"slot {s.name}^{s.degree}: image {s.image_dim}, kernel {s.kernel_dim}, {'ok' if s.ok else 'FAIL'}")
        if not s.ok:
            rep.line(f"  {s.witness.describe()}")
    rep.line(f"long exact sequence: {'exact' if report.ok else 'EXACTNESS FAILURE'}")
    return PASS if report.ok else FAIL


def cmd_rba_embed(args, rep):
    sys_obj, _ = _load_system(args.system)
    lam = parse_scalar(sys_obj.field, args.weight, "--weight")
    verdict = check_rb_operator(sys_obj.alg, sys_obj.R, lam)
    _require(rep, "rb_operator", verdict, f"R is not a weight-{args.weight} operator")
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


def _deformation_input(args, rep, full=True):
    """(system, deformation) read against each other; full refuses an
    operator-only document, one without "mus"."""
    sys_obj, system_doc = _guarded_system(args, rep)
    doc = docs.load(args.deformation)
    docs.check_system_reference(doc, system_doc, args.deformation, args.system)
    defn = docs.parse_deformation(doc, sys_obj)
    if full and "mus" not in doc:
        raise DocumentError(f"{args.deform_cmd} needs a full deformation document (with \"mus\")")
    return sys_obj, defn


def _report_orders(rep, report, label):
    bad = report.failing_orders()
    rep.set("ok", report.ok)
    rep.set("failing_orders", bad)
    rep.line(f"{label}: {'valid' if report.ok else f'fails at orders {bad}'}")
    return PASS if report.ok else FAIL


def cmd_deform_verify(args, rep):
    report = verify_deformation(*_deformation_input(args, rep))
    return _report_orders(rep, report, "deformation")


def cmd_deform_op_verify(args, rep):
    # mu held fixed: the system's checks make the assoc residuals zero
    sys_obj, defn = _deformation_input(args, rep, full=False)
    if not all(m.is_zero() for m in defn.mus[1:]):
        raise DocumentError("op-verify needs an operator deformation (omit \"mus\")")
    return _report_orders(rep, verify_deformation(sys_obj, defn), "operator deformation")


def cmd_deform_infinitesimal(args, rep):
    sys_obj, defn = _deformation_input(args, rep)
    cochain = infinitesimal(sys_obj, defn, args.cap)
    rep.set("cocycle", True)
    rep.set("coordinates", _column_tokens(sys_obj.field, cochain.vector))
    rep.line("infinitesimal packaged; cocycle: True")
    return PASS


def cmd_deform_rigidify(args, rep):
    sys_obj, defn = _deformation_input(args, rep)
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
    rep.line(f"stuck at order {report.stuck_order}; cocycle coordinates:")
    rep.line("  " + str(rep.payload["stuck_class"]))
    return FAIL


def cmd_extend_check_iso(args, rep):
    ext1 = docs.parse_extension(docs.load(args.ext1))
    ext2 = docs.parse_extension(docs.load(args.ext2))
    _require(rep, "ext1", check_extension(ext1), "ext1 is not a valid extension")
    _require(rep, "ext2", check_extension(ext2), "ext2 is not a valid extension")
    iso = docs.parse_iso(docs.load(args.iso), ext1.hat.dim, ext1.hat.field)
    diagram = check_iso(ext1, ext2, iso)
    rep.set("diagram", _witness_dict(diagram))
    rep.line(f"diagram checks: {diagram.describe()}")
    if not diagram:
        return FAIL
    same = same_class(ext1, ext2, iso, args.cap)
    rep.set("same_class", _witness_dict(same))
    rep.line(f"same cohomology class: {same.describe()}")
    return PASS if same else FAIL


def cmd_extend_extract(args, rep):
    ext = docs.parse_extension(docs.load(args.extension))
    _require(rep, "extension", check_extension(ext), "not a valid extension")
    _emit_document(rep, docs.serialize_cocycle(extract_cocycle(ext, cap=args.cap)), args.output, "cocycle")
    return PASS


def cmd_extend_build(args, rep):
    sys_obj, system_doc = _guarded_system(args, rep)
    mod = _bimodule_or_regular(args, rep, sys_obj, system_doc)
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


def cmd_extend_census(args, rep):
    if args.census_cap < 0:
        raise ValueError(f"--census-cap must be a non-negative integer, got {args.census_cap}")
    sys_obj, system_doc = _guarded_system(args, rep)
    mod = _bimodule_or_regular(args, rep, sys_obj, system_doc)
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


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--max-degree", type=int, default=3, help="top cohomological degree")
    common.add_argument("--cap", type=int, default=None, help="cochain dimension guard")

    def leaf(group, name, func, *positionals, help=None):
        # the common options belong to leaves only: a group that also took
        # them would have its values overwritten by the leaf's defaults
        p = group.add_parser(name, parents=[common], help=help)
        for dest in positionals:
            p.add_argument(dest)
        p.set_defaults(func=func)
        return p

    parser = argparse.ArgumentParser(
        prog="rbs",
        description="Exact computations with finite-dimensional Rota-Baxter systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = leaf(subs, "validate", cmd_validate, "system", help="axiom checks for documents")
    p.add_argument("bimodule", nargs="?", default=None)

    p = leaf(subs, "star", cmd_star, "system", help="star algebra of a system")
    p.add_argument("-o", "--output", default=None)

    p = leaf(subs, "semidirect", cmd_semidirect, "system", help="semidirect product system")
    p.add_argument("bimodule", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None)

    p = leaf(subs, "cohomology", cmd_cohomology, "system", help="dimension table of a complex")
    p.add_argument("bimodule", nargs="?", default=None)
    p.add_argument("--what", choices=["alg", "rbso", "rbs"], default="rbs")

    p = leaf(subs, "les", cmd_les, "system", help="long exact sequence check")
    p.add_argument("bimodule", nargs="?", default=None)

    p = leaf(subs, "rba-embed", cmd_rba_embed, "system", help="weight-lambda embedding check")
    p.add_argument("--weight", required=True, help="weight lambda (exact scalar)")
    # argparse takes "-..." for an option unless this matches it; add -a/b
    p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    group = subs.add_parser("deform", help="deformation commands")
    deform = group.add_subparsers(dest="deform_cmd", required=True)
    leaf(deform, "verify", cmd_deform_verify, "system", "deformation")
    leaf(deform, "infinitesimal", cmd_deform_infinitesimal, "system", "deformation")
    leaf(deform, "rigidify", cmd_deform_rigidify, "system", "deformation")
    leaf(deform, "op-verify", cmd_deform_op_verify, "system", "deformation")

    group = subs.add_parser("extend", help="extension commands")
    extend = group.add_subparsers(dest="extend_cmd", required=True)

    p = leaf(extend, "build", cmd_extend_build, "system", "cocycle")
    p.add_argument("--bimodule", default=None)
    p.add_argument("-o", "--output", default=None)

    p = leaf(extend, "extract", cmd_extend_extract, "extension")
    p.add_argument("-o", "--output", default=None)

    p = leaf(extend, "census", cmd_extend_census, "system")
    p.add_argument("--bimodule", default=None)
    p.add_argument("--census-cap", type=int, default=64)
    p.add_argument("-o", "--output", default=None)

    leaf(extend, "check-iso", cmd_extend_check_iso, "ext1", "ext2", "iso")

    return parser


def _leaves(parser, path=()):
    """{words: (leaf, path)} for every leaf below parser: words are the
    command words that name the leaf, and path pairs each with the dest
    that its group's subparsers set."""
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                step = path + ((action.dest, word),)
                table.update(_leaves(sub, step) or {tuple(w for _, w in step): (sub, step)})
    return table


# built once, at import: main only parses
_PARSER = _build_parser()
_LEAVES = _leaves(_PARSER)


def _parse(argv):
    """The namespace of argv, as the full parser gives it.  When the leading
    words of argv name a leaf, that leaf alone parses the rest, and the
    words are set as the groups' subparsers set them; the leaf reports its
    own usage errors, as it does below the full parser.  An argv whose
    leading words name no leaf, or with words that its leaf does not take,
    goes to the full parser, which reports the error."""
    argv = _sys.argv[1:] if argv is None else list(argv)
    for n in (1, 2):
        if tuple(argv[:n]) in _LEAVES:
            leaf, path = _LEAVES[tuple(argv[:n])]
            args, rest = leaf.parse_known_args(argv[n:])
            if not rest:
                for dest, word in path:
                    setattr(args, dest, word)
                return args
            break
    return _PARSER.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    rep = _Reporter(args.json)
    try:
        # RBS_DIM_CAP is read here, once, for every leaf
        if args.cap is not None and args.cap <= 0:
            raise ValueError(f"--cap must be a positive integer, got {args.cap}")
        args.cap = resolve_cap(args.cap)
        code = args.func(args, rep)
    except _CheckFails:
        code = FAIL
    except ValueError as exc:  # DocumentError and DimensionCapExceeded among them
        rep.set("error", str(exc))
        rep.line(f"error: {exc}")
        rep.flush()
        return BAD_INPUT
    rep.set("exit_code", code)
    rep.flush()
    return code


if __name__ == "__main__":
    _sys.exit(main())
