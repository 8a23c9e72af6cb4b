"""The three workloads: fixed slot lists, and the documents and jobs they make.

A slot fixes a family, its dimensions and its parameters; the run seed only
scrambles.  Every job is an argv for ``rbsys.cli.main``.  Documents are
written through ``rbsys.documents`` into a work directory during set-up.

  rank_ladder    ``rbs cohomology --what rbs`` over a ladder of systems and
                 bimodules: GF(2), GF(5), GF(40009) and Q; d, m in {2, 3, 4};
                 degrees 3-5.  Only rungs that finish are kept: Q with d = 3
                 stops at degree 3, because degree 4 takes more than 600 s.
                 Nearly all of the time is rank elimination of a few large
                 slices, most of it the one Q d = 3 degree-3 slice.
  les_sweep      ``rbs les --max-degree 3`` over many small instances (dims
                 <= 3, and <= 2 over Q).  Many small slices, each assembled
                 several times and reduced to canonical kernels, so per-call
                 overhead adds up.  The prime-field part has no Q work at all.
  deform_extend  per system: validate; deform verify / infinitesimal /
                 rigidify on gauged constant deformations of orders 2-4;
                 extend build (writing a file) then extract (reading it); and
                 the H^2 census over prime fields.  Heavy on solve and
                 products rather than rank, and on document reads and writes.
"""

from __future__ import annotations

import os

from rbsys import (
    RBS,
    Cochain,
    GaugeSeries,
    Matrix,
    apply_gauge,
    constant_deformation,
    h2_extension_census,
    rbs_d,
)
from rbsys import documents as docs
from rbsys.extensions import cocycle_from_cochain

from .families import FIELDS, random_matrix, run_rng, scrambled_pair

CAP = 20000

WORKLOADS = ("rank_ladder", "les_sweep", "deform_extend")


def _slot(name, field, family, **extra):
    return dict(name=name, field=field, family=family, **extra)


def _fam(family, d=None, m=None, module="regular"):
    return dict(family=family, d=d, m=m, module=module)


def _ladder(field, tag, rungs):
    return [
        _slot(f"rl_{tag}_{label}_deg{deg}", field, fam, degree=deg)
        for label, fam, degrees in rungs
        for deg in degrees
    ]


def rank_ladder_slots():
    small = [
        ("line_m4", _fam("line", 1, 4, "zero"), (3, 4, 5)),
        ("idem2", _fam("idem", 2), (3, 4, 5)),
        ("zero2_m4", _fam("zero", 2, 4, "zero"), (3, 4, 5)),
        ("zero3_m2", _fam("zero", 3, 2, "zero"), (3, 4)),
        ("zero4_m2", _fam("zero", 4, 2, "zero"), (3,)),
        ("idem3", _fam("idem", 3), (3,)),
        ("tri", _fam("tri"), (3, 4)),
    ]
    large = [
        ("line_m4", _fam("line", 1, 4, "zero"), (3, 4, 5)),
        ("idem2", _fam("idem", 2), (3, 4, 5)),
        ("zero2_m4", _fam("zero", 2, 4, "zero"), (3, 4)),
        ("zero4_m2", _fam("zero", 4, 2, "zero"), (3,)),
        ("idem3", _fam("idem", 3), (3,)),
        ("tri", _fam("tri"), (3,)),
    ]
    rationals = [
        ("line_m4", _fam("line", 1, 4, "zero"), (3, 4, 5)),
        ("idem2", _fam("idem", 2), (3, 4)),
        ("zero2_m3", _fam("zero", 2, 3, "zero"), (3,)),
        ("tri", _fam("tri"), (3,)),  # degree 4 takes more than 600 s
    ]
    return (
        _ladder("2", "gf2", small)
        + _ladder("5", "gf5", small + [("idem4", _fam("idem", 4), (3,))])
        + _ladder("40009", "gf40009", large)
        + _ladder("Q", "q", rationals)
    )


def les_sweep_slots():
    shapes = [
        ("zero1", _fam("zero", 1)),
        ("zero2", _fam("zero", 2)),
        ("zero2_m2", _fam("zero", 2, 2, "zero")),
        ("zero3_m1", _fam("zero", 3, 1, "zero")),
        ("line", _fam("line")),
        ("line_m2", _fam("line", 1, 2, "zero")),
        ("idem2", _fam("idem", 2)),
        ("idem2_m1", _fam("idem", 2, 1, "zero")),
        ("idem3", _fam("idem", 3)),
        ("tri", _fam("tri")),
    ]
    # a small Q share, dims <= 2, so that every backend has work here
    rational = [shapes[i] for i in (0, 4, 5, 6, 7)]
    out = []
    for field, tag, chosen, copies in (
        ("2", "gf2", shapes, 4),
        ("5", "gf5", shapes, 4),
        ("40009", "gf40009", shapes, 3),
        ("Q", "q", rational, 2),
    ):
        for copy in range(copies):
            out += [_slot(f"ls_{tag}_{label}_v{copy}", field, fam) for label, fam in chosen]
    return out


def deform_extend_slots():
    out = []
    for field, tag in (("Q", "q"), ("5", "gf5"), ("40009", "gf40009")):
        out += [
            _slot(f"de_{tag}_line", field, _fam("line"), orders=(2, 3, 4)),
            _slot(f"de_{tag}_idem2", field, _fam("idem", 2), orders=(2, 3, 4)),
            _slot(f"de_{tag}_zero2", field, _fam("zero", 2), orders=(2, 3, 4)),
            _slot(f"de_{tag}_tri", field, _fam("tri"), orders=(2, 3, 4)),
        ]
    return out


SLOTS = {
    "rank_ladder": rank_ladder_slots,
    "les_sweep": les_sweep_slots,
    "deform_extend": deform_extend_slots,
}


class Job:
    """One rbs invocation and what its report is checked against."""

    __slots__ = ("key", "argv", "field", "cocycle")

    def __init__(self, key, argv, field, cocycle=None):
        self.key = key
        self.argv = [str(a) for a in argv]
        self.field = field
        self.cocycle = cocycle

    @property
    def command(self):
        return " ".join(self.argv[:2]) if self.argv[0] in ("deform", "extend") else self.argv[0]


def _write_pair(workdir, name, sys, mod, set_index=0):
    sys_doc = docs.serialize_system(sys, name=f"{name}.set{set_index}")
    sys_path = os.path.join(workdir, f"{name}.system.json")
    mod_path = os.path.join(workdir, f"{name}.bimodule.json")
    docs.dump(sys_doc, sys_path)
    docs.dump(docs.serialize_bimodule(mod, sys_doc), mod_path)
    return sys_doc, sys_path, mod_path


def _flags(max_degree=None):
    out = ["--cap", CAP, "--json"]
    if max_degree is not None:
        out = ["--max-degree", max_degree] + out
    return out


def _gauge(sys, order, rng):
    field, d = sys.field, sys.dim
    psis = [Matrix.identity(field, d)] + [random_matrix(field, d, d, rng) for _ in range(order)]
    return GaugeSeries(order, psis)


def _cocycle(sys, mod, rng):
    """A degree-2 cocycle: an H^2 class plus a coboundary over GF(p); over Q
    (infinitely many classes) a coboundary rbs_d(1) @ v."""
    field = sys.field
    d1 = rbs_d(1, sys, mod).matrix
    vec = d1 @ random_matrix(field, d1.cols, 1, rng)
    if field.is_prime_field:
        for c, _ext in h2_extension_census(sys, mod)[1:2]:
            vec = vec + c.as_cochain().vector
    return cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))


def make_jobs(workload, seed, set_index, workdir):
    """Write one document set for a workload and return its job list."""
    os.makedirs(workdir, exist_ok=True)
    jobs = []
    for spec in SLOTS[workload]():
        name, field = spec["name"], FIELDS[spec["field"]]
        # Over Q every random draw (scramble, gauges, cocycles) is fixed per
        # slot: the cost of Fraction arithmetic swings by a third with the
        # sizes of the entries drawn, which would swamp any bound.
        rng = run_rng(seed, set_index, name) if field.is_prime_field else run_rng(0, 0, name)
        sys, mod = scrambled_pair(field, spec, rng)
        sys_doc, sys_path, mod_path = _write_pair(workdir, name, sys, mod, set_index)
        fspec = sys_doc["field"]
        if workload == "rank_ladder":
            argv = ["cohomology", sys_path, mod_path, "--what", "rbs"] + _flags(spec["degree"])
            jobs.append(Job(name, argv, fspec))
        elif workload == "les_sweep":
            jobs.append(Job(name, ["les", sys_path, mod_path] + _flags(3), fspec))
        else:
            jobs += _deform_extend_jobs(spec, sys, mod, sys_doc, sys_path, mod_path, rng, workdir)
    return jobs


def _deform_extend_jobs(spec, sys, mod, sys_doc, sys_path, mod_path, rng, workdir):
    name, fspec = spec["name"], sys_doc["field"]
    jobs = [Job(f"{name}/validate", ["validate", sys_path, mod_path] + _flags(), fspec)]
    for order in spec["orders"]:
        defn = apply_gauge(constant_deformation(sys, order), _gauge(sys, order, rng))
        path = os.path.join(workdir, f"{name}.order{order}.deformation.json")
        docs.dump(docs.serialize_deformation(defn, sys, sys_doc), path)
        for sub in ("verify", "infinitesimal", "rigidify"):
            jobs.append(Job(f"{name}/o{order}/{sub}", ["deform", sub, sys_path, path] + _flags(), fspec))
    cocycle_doc = docs.serialize_cocycle(_cocycle(sys, mod, rng), sys_doc)
    coc_path = os.path.join(workdir, f"{name}.cocycle.json")
    ext_path = os.path.join(workdir, f"{name}.extension.json")
    docs.dump(cocycle_doc, coc_path)
    jobs.append(Job(f"{name}/build", ["extend", "build", sys_path, coc_path, "-o", ext_path] + _flags(), fspec))
    jobs.append(Job(f"{name}/extract", ["extend", "extract", ext_path] + _flags(), fspec, cocycle=cocycle_doc))
    if sys.field.is_prime_field:
        jobs.append(Job(f"{name}/census", ["extend", "census", sys_path] + _flags(), fspec))
    return jobs


def warmup_job(workdir):
    """A tiny job run untimed after each set-up, so lazy imports and caches
    inside numpy and the interpreter are settled before timing."""
    rng = run_rng(0, "warmup")
    spec = _slot("warmup_line", "2", _fam("line"))
    sys, mod = scrambled_pair(FIELDS["2"], spec, rng)
    doc, sys_path, mod_path = _write_pair(workdir, "warmup_line", sys, mod)
    return Job("warmup", ["les", sys_path, mod_path] + _flags(2), doc["field"])
