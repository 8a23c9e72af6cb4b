"""Spans around the package's functions, recorded from outside the package.

While a Tracer is entered, every public module-level function of the
``rbsys`` modules, the elimination and product methods of ``Matrix`` and the
private elimination kernel ``linalg._rref_array`` are replaced by wrappers
that record one span per call: name, start, end, parent span and job id.
Modules import names from each other (``cli`` binds ``betti``, ``deformation``
binds ``phi``), so every binding of a function object in every ``rbsys``
module is replaced, and every original is restored on exit.

Spans stay in memory; ``layer_metrics`` turns them into per-layer self times
(span time minus the time covered by child spans) and counts.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import sys
import time

from .stats import BACKENDS, backend_of_prime

MODULES = (
    "linalg",
    "algebra",
    "systems",
    "bimodules",
    "cohomology",
    "deformation",
    "extensions",
    "documents",
    "cli",
)

MATRIX_METHODS = ("rref", "rank", "kernel_basis", "solve", "inverse", "__matmul__", "kron")

# helpers whose cost belongs to their caller
SKIP = {"documents.canonical_json", "documents.document_hash", "cohomology.resolve_cap"}

ELIM = {
    "linalg.Matrix.rref",
    "linalg.Matrix.rank",
    "linalg.Matrix.kernel_basis",
    "linalg.Matrix.solve",
    "linalg.Matrix.inverse",
    "linalg.column_space_rank",
    "linalg._rref_array",
}
PRODUCT = {"linalg.Matrix.__matmul__", "linalg.Matrix.kron"}
ASSEMBLY = {
    "cohomology.hochschild_slice",
    "cohomology.delta",
    "cohomology.partial",
    "cohomology.phi",
    "cohomology.rbs_d",
}
ANALYSIS = {"cohomology.betti", "cohomology.les_check"}
ALGEBRA_CHECK = {"algebra.check_associative", "algebra.check_bimodule"}
SYSTEMS_CHECK = {"systems.check_rbs", "systems.check_rb_operator"}


def layer_of(name):
    """The per-layer metric a span's self time is charged to."""
    module, _, func = name.partition(".")
    if name in ELIM:
        return "linalg.elim"
    if name in PRODUCT:
        return "linalg.product"
    if name in ASSEMBLY:
        return "cohomology.assembly"
    if name in ANALYSIS:
        return "cohomology.analysis"
    if name in ALGEBRA_CHECK:
        return "algebra.check"
    if name in SYSTEMS_CHECK:
        return "systems.check"
    if module in ("bimodules", "deformation", "extensions"):
        return module
    if module == "documents":
        if func == "load" or func.startswith("parse_") or func == "check_system_reference":
            return "documents.parse"
        if func == "dump" or func.startswith("serialize_"):
            return "documents.serialize"
    if module == "cli":
        return "cli.self"
    return f"{module}.other"


def _note_backend(args, _result):
    first = args[0]
    if isinstance(first, list):  # column_space_rank(mats)
        return (backend_of_prime(first[0].field.p) if first else None,)
    return (backend_of_prime(first.field.p),)


def _note_rref_array(args, _result):
    rows, cols = args[0].shape
    return (backend_of_prime(args[1].p), rows, cols)


def _note_slice(args, result, degree_arg):
    mat = getattr(result, "matrix", result)
    return (args[degree_arg], mat.shape)


def _note_load(args, _result):
    return os.path.getsize(args[0])


def _note_dump(args, _result):
    return os.path.getsize(args[1])


def _note_for(name):
    if name == "linalg._rref_array":
        return _note_rref_array
    if name == "linalg.Matrix.rref":  # noted before the call, in the wrapper
        return None
    if name in ELIM:
        return _note_backend
    if name == "cohomology.hochschild_slice":
        return lambda a, r: _note_slice(a, r, 2)
    if name in ASSEMBLY:
        return lambda a, r: _note_slice(a, r, 0)
    if name == "documents.load":
        return _note_load
    if name == "documents.dump":
        return _note_dump
    return None


def _targets():
    """(owner, attribute, span name, original) for every function to wrap."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"rbsys.{short}"]
        for attr, val in list(vars(mod).items()):
            if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if (attr.startswith("_") and name != "linalg._rref_array") or name in SKIP:
                continue
            out.append((mod, attr, name, val))
    matrix = sys.modules["rbsys.linalg"].Matrix
    for attr in MATRIX_METHODS:
        out.append((matrix, attr, f"linalg.Matrix.{attr}", vars(matrix)[attr]))
    return out


class Tracer:
    """Context manager that records spans for every call into ``rbsys``."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name id, start, end, parent index, job id]
        self.notes = {}  # span index -> note recorded by the name's note hook
        self.job = None
        self._stack = []
        self._patches = []

    def __enter__(self):
        wrappers = {}
        for owner, attr, name, original in _targets():
            wrappers[id(original)] = (original, self._wrap(original, name))
            setattr(owner, attr, wrappers[id(original)][1])
            self._patches.append((owner, attr, original))
        # other bindings of the same function objects, e.g. names one module
        # imported from another, or re-exported by the package
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rbsys" or modname.startswith("rbsys.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, notes = self.spans, self._stack, self.notes
        note = _note_for(name)
        clock = time.perf_counter
        rref = name == "linalg.Matrix.rref"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            record = [name_id, 0.0, 0.0, parent, self.job]
            spans.append(record)
            stack.append(idx)
            if rref:  # answered from the stored echelon form?
                notes[idx] = (backend_of_prime(args[0].field.p), args[0]._rref is not None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[1] = start
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def self_times(self):
        """Per-span self time: duration minus the time covered by children."""
        child = [0.0] * len(self.spans)
        for _nid, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_n, start, end, _p, _j) in enumerate(self.spans)]

    def dump(self, path):
        """Write the spans and notes as JSON lines (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i, span in enumerate(self.spans):
                note = self.notes.get(i)
                fh.write(json.dumps(span + ([note] if note is not None else [])) + "\n")


def layer_metrics(tracer, passes):
    """Per-layer metrics per traced pass, from a tracer's spans."""
    selfs = tracer.self_times()
    names = tracer.names
    layers = {}
    elim = dict.fromkeys(BACKENDS, 0.0)
    counts = dict(
        elim_calls=0, elim_entries=0, elim_max_entries=0, rref_calls=0, rref_reuse=0,
        product_calls=0, slice_builds=0, check_rbs_calls=0, trivialize_steps=0,
        bytes_in=0, bytes_out=0,
    )
    distinct = set()
    for i, (nid, _start, _end, _parent, job) in enumerate(tracer.spans):
        name = names[nid]
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + selfs[i]
        note = tracer.notes.get(i)
        if layer == "linalg.elim":
            if name == "linalg._rref_array":
                _backend, rows, cols = note
                counts["elim_calls"] += 1
                counts["elim_entries"] += rows * cols * min(rows, cols)
                counts["elim_max_entries"] = max(counts["elim_max_entries"], rows * cols)
            elif name == "linalg.Matrix.rref":
                counts["rref_calls"] += 1
                counts["rref_reuse"] += note[1]
            if note is not None and note[0] is not None:
                elim[note[0]] += selfs[i]
        elif layer == "linalg.product":
            counts["product_calls"] += 1
        elif layer == "cohomology.assembly":
            counts["slice_builds"] += 1
            if note is not None:
                distinct.add((job, name, note[0], note[1]))
        elif name == "systems.check_rbs":
            counts["check_rbs_calls"] += 1
        elif name == "deformation.trivialize_step":
            counts["trivialize_steps"] += 1
        elif name == "documents.load" and note is not None:
            counts["bytes_in"] += note
        elif name == "documents.dump" and note is not None:
            counts["bytes_out"] += note
    n = max(passes, 1)
    out = {
        "linalg.elim_qq_s": (elim["qq"] / n, "s"),
        "linalg.elim_gf_small_s": (elim["gf_small"] / n, "s"),
        "linalg.elim_gf_large_s": (elim["gf_large"] / n, "s"),
        "linalg.elim_calls": (counts["elim_calls"] / n, "count"),
        "linalg.elim_entries": (counts["elim_entries"] / n, "count"),
        "linalg.elim_max_entries": (counts["elim_max_entries"], "count"),
        "linalg.rref_reuse_ratio": (_ratio(counts["rref_reuse"], counts["rref_calls"]), "ratio"),
        "linalg.product_calls": (counts["product_calls"] / n, "count"),
        "linalg.product_s": (layers.get("linalg.product", 0.0) / n, "s"),
        "cohomology.assembly_s": (layers.get("cohomology.assembly", 0.0) / n, "s"),
        "cohomology.slice_builds": (counts["slice_builds"] / n, "count"),
        "cohomology.slice_distinct": (len(distinct) / n, "count"),
        "cohomology.slice_distinct_ratio": (_ratio(len(distinct), counts["slice_builds"]), "ratio"),
        "cohomology.analysis_s": (layers.get("cohomology.analysis", 0.0) / n, "s"),
        "algebra.check_s": (layers.get("algebra.check", 0.0) / n, "s"),
        "systems.check_s": (layers.get("systems.check", 0.0) / n, "s"),
        "systems.check_rbs_calls": (counts["check_rbs_calls"] / n, "count"),
        "bimodules.s": (layers.get("bimodules", 0.0) / n, "s"),
        "deformation.s": (layers.get("deformation", 0.0) / n, "s"),
        "deformation.trivialize_steps": (counts["trivialize_steps"] / n, "count"),
        "extensions.s": (layers.get("extensions", 0.0) / n, "s"),
        "documents.parse_s": (layers.get("documents.parse", 0.0) / n, "s"),
        "documents.serialize_s": (layers.get("documents.serialize", 0.0) / n, "s"),
        "documents.bytes_in": (counts["bytes_in"] / n, "bytes"),
        "documents.bytes_out": (counts["bytes_out"] / n, "bytes"),
        "cli.self_s": (layers.get("cli.self", 0.0) / n, "s"),
    }
    for layer, total in sorted(layers.items()):
        if layer.endswith(".other"):
            out[f"{layer}_s"] = (total / n, "s")
    return out


def _ratio(num, den):
    return num / den if den else 0.0

