"""Run one ``qcatk`` command with spans recorded around calls into the
public functions of each module.

    python3 perfbench/traced.py SPANS.json CMD_ID -- <qcatk arguments>

The qcatk package must be importable (``PYTHONPATH=src``).  Wrappers are
installed in every ``qcatk`` module namespace that holds the function (so
``from .cats import nerve`` is covered) and on the classes that define the
traced methods; then ``qcatk.cli.main`` runs with the given arguments.  Each
call becomes a span ``[name, start, end, parent, error, extra]``: ``parent``
is the index of the enclosing traced span or -1, ``error`` is 1 when the call
raised, ``extra`` is a dict of counts or null.  The spans stay in memory and
are written to SPANS.json when the command ends.  The hot per-simplex methods
``face`` and ``degeneracy`` are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

MODULES = ("simplicial", "cats", "quasicat", "homology", "joinslice", "waldhausen",
           "sconstruction", "ktheory", "lifting", "io", "zoo", "cli")

# span name -> (module, attribute path)
TRACED = {
    "io.load_path": ("io", "load_path"),
    "io.parse_any": ("io", "parse_any"),
    "io.dumps": ("io", "dumps"),
    "simplicial.enumerate_maps": ("simplicial", "enumerate_maps"),
    "simplicial.iso_check": ("simplicial", "iso_check"),
    "simplicial.inner_horn_filler": ("simplicial", "inner_horn_filler"),
    "simplicial.MaterializedSSet": ("simplicial", "MaterializedSSet.__init__"),
    "simplicial.SimplicialSet.simplices": ("simplicial", "SimplicialSet.simplices"),
    "cats.FinCategory.check": ("cats", "FinCategory.check"),
    "cats.FinFunctor.check": ("cats", "FinFunctor.check"),
    "cats.nerve": ("cats", "nerve"),
    "cats.nerve_functor_map": ("cats", "nerve_functor_map"),
    "cats.groupoid_core": ("cats", "groupoid_core"),
    "quasicat.ho_category": ("quasicat", "ho_category"),
    "quasicat.homotopy_classes": ("quasicat", "homotopy_classes"),
    "quasicat.tau1_map_equivalence": ("quasicat", "tau1_map_equivalence"),
    "homology.smith_normal_form": ("homology", "smith_normal_form"),
    "homology.pi1_abelianized": ("homology", "pi1_abelianized"),
    "homology.pi0": ("homology", "pi0"),
    "sconstruction.s_n": ("sconstruction", "s_n"),
    "sconstruction.f_n": ("sconstruction", "f_n"),
    "ktheory.k0_via_diagonal": ("ktheory", "k0_via_diagonal"),
    "ktheory.k0_presentation_oracle": ("ktheory", "k0_presentation_oracle"),
    "ktheory.approximation_verify": ("ktheory", "approximation_verify"),
    "waldhausen.validate_waldhausen": ("waldhausen", "validate_waldhausen"),
    "waldhausen.cof_ho_equivalence": ("waldhausen", "cof_ho_equivalence"),
    "lifting.rlp_check": ("lifting", "rlp_check"),
    "lifting.higher_iterate_verify": ("lifting", "higher_iterate_verify"),
    "lifting.components_hypothesis_check": ("lifting", "components_hypothesis_check"),
}

SEARCH = "simplicial.enumerate_maps"  # spans split into .functor and .generic


def span_names() -> list[str]:
    """Every span name the tracer records."""
    names = []
    for name in TRACED:
        names += [f"{name}.functor", f"{name}.generic"] if name == SEARCH else [name]
    return names + ["cli.command"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        # repeat detection by object identity; holding the objects keeps ids unique
        self.seen: dict[str, dict] = {}

    def seen_before(self, kind: str, obj) -> bool:
        table = self.seen.setdefault(kind, {})
        if id(obj) in table:
            return True
        table[id(obj)] = obj
        return False

    def wrap(self, name, fn, extra=None, name_of=None):
        """Wrap ``fn`` in a span; ``extra(args, kwargs, result)`` returns a
        dict of counts, ``name_of(args, kwargs)`` refines the span name."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error, result = 1, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = 0
                return result
            finally:
                end = clock()
                stack.pop()
                counts = extra(args, kwargs, result) if extra and not error else None
                spans[idx] = [span_name, start, end, parent, error, counts]

        return traced


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def install(tracer: Tracer):
    mods = {m: importlib.import_module(f"qcatk.{m}") for m in MODULES}

    def functor_path(args, kwargs) -> bool:
        """The path ``enumerate_maps`` takes: a target category plus use_category."""
        X = _arg(args, kwargs, 1, "X")
        return bool(_arg(args, kwargs, 4, "use_category", True)) and X.category is not None

    def maps_path(args, kwargs):
        return SEARCH + (".functor" if functor_path(args, kwargs) else ".generic")

    def maps_extra(args, kwargs, result):
        counts = {"maps": len(result)}
        if not functor_path(args, kwargs):
            X = _arg(args, kwargs, 1, "X")
            counts["repeat_target"] = int(tracer.seen_before("generic_target", X))
        return counts

    extras = {
        "io.load_path": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
        "io.dumps": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
        SEARCH: maps_extra,
        "simplicial.inner_horn_filler": lambda a, k, r: {"filled": int(r is not None)},
        "simplicial.MaterializedSSet": lambda a, k, r: {"gens": sum(a[0].n_gens)},
        "cats.FinCategory.check": lambda a, k, r: {"morphisms": len(a[0].morphisms)},
        "cats.nerve": lambda a, k, r: {"gens": sum(r.n_gens)},
        "homology.smith_normal_form": lambda a, k, r: {
            "entries": sum(len(row) for row in _arg(a, k, 0, "A"))},
        "quasicat.ho_category": lambda a, k, r: {
            "repeat": int(tracer.seen_before("ho_input", _arg(a, k, 0, "X")))},
        "lifting.rlp_check": lambda a, k, r: {"problems": r["problems"]},
    }
    for name, (mod, path) in TRACED.items():
        owner = mods[mod]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, extras.get(name),
                              maps_path if name == SEARCH else None)
        if outer:  # a method: replace it on its class
            setattr(owner, attr, wrapped)
            continue
        for m in mods.values():
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    cli = mods["cli"]
    for key, value in list(vars(cli).items()):
        if key.startswith("cmd_") and callable(value):
            setattr(cli, key, tracer.wrap("cli.command", value))
    return cli


def main(argv) -> int:
    out_path, cmd_id, sep, *qargs = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json CMD_ID -- <qcatk arguments>")
    tracer = Tracer()
    cli = install(tracer)
    code = 1
    try:
        code = cli.main(qargs)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"cmd": int(cmd_id), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
