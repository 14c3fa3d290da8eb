"""Command-line front end: input validation, constructions, and verification
reports.  All input and output is JSON (UTF-8, sorted keys).

Exit codes: 0 = pass, 1 = finding (including schema violations, argument
errors and files that cannot be read or written, each a JSON error on
stderr), 2 = the command's search budget or a dimension bound was
exceeded.  Every report embeds the dimension bound and budget it was
computed with."""

from __future__ import annotations

import argparse
import sys

from . import io
from .ssets import (
    DEFAULT_BUDGET,
    BoundExceeded,
    BudgetExceeded,
    NotQuasicategory,
    SimplexKey,
    SimplicialMap,
    SimplicialSet,
    budget,
)

EXIT_PASS = 0
EXIT_FINDING = 1
EXIT_BUDGET = 2


# ---------------------------------------------------------------------------
# report JSON-ification


def _jsonable(x, reprs=None):
    """Best-effort conversion of report payloads to plain JSON values.
    ``reprs`` holds the repr of each distinct ``SimplexKey`` met so far, so
    one call computes each once."""
    t = type(x)  # plain values first, by exact type: SimplexKey is a tuple subclass
    if t is str or t is int or t is bool or t is float or x is None:
        return x
    if reprs is None:
        reprs = {}
    if t is SimplexKey:
        r = reprs.get(x)
        if r is None:
            r = reprs[x] = repr(x)
        return r
    if t is dict:
        return {k if isinstance(k, str) else repr(k): _jsonable(v, reprs) for k, v in x.items()}
    if t is list or t is tuple:
        return [_jsonable(v, reprs) for v in x]
    # a group presentation or a category exists only once a command has
    # imported homology or fincat
    homology = sys.modules.get(f"{__package__}.homology")
    fincat = sys.modules.get(f"{__package__}.fincat")
    if homology and isinstance(x, homology.AbelianGroupPresentation):
        return {"free_rank": x.free_rank, "torsion": list(x.torsion),
                "invariant_factors": invariant_factors(x)}
    if isinstance(x, SimplicialMap):
        return {"source_gens": x.source.n_gens, "target_gens": x.target.n_gens,
                "assign": {repr(g): repr(k) for g, k in sorted(x.assign.items())}}
    if isinstance(x, SimplicialSet):
        return {"gens": x.n_gens, "bound": x.bound}
    if fincat and isinstance(x, fincat.FinCategory):
        return fincat.serialize_category(x)
    if isinstance(x, (dict, list, tuple)):  # other subclasses, as the plain types
        return _jsonable(dict(x) if isinstance(x, dict) else list(x), reprs)
    if isinstance(x, (set, frozenset)):
        return sorted(repr(v) for v in x)
    if isinstance(x, (str, int, float)):  # bool has no subclasses
        return x
    return repr(x)


def invariant_factors(g) -> list[int]:
    """Torsion invariant factors of an ``AbelianGroupPresentation``
    followed by one 0 per free rank; the trivial group gives []."""
    return list(g.torsion) + [0] * g.free_rank


def _emit(report, args, ok: bool) -> int:
    report = _jsonable(report)
    report.setdefault("dim", args.dim)
    report.setdefault("budget", args.budget)
    report.setdefault("seed", args.seed)
    report["command"] = args.command
    text = io.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if ok else EXIT_FINDING


# ---------------------------------------------------------------------------
# input helpers


def _load(path, want=None):
    obj = io.load_path(path)
    kind, value = io.parse_any(obj)
    if want is not None and kind != want:
        raise io.SchemaError(f"expected a {want} file, found {kind}")
    return kind, value


def _vertex_by_name(X: SimplicialSet, name: str) -> SimplexKey:
    names = io._gen_names(X)
    for g in X.gens(0):
        if names[g] == name:
            return SimplexKey(g)
    raise io.SchemaError(f"no vertex named {name!r}", "/vertex")


def _require_grid_data(W, pointer: str):
    """Grid levels are diagram categories over the category of a nerve with
    exactly one all-zero diagram, so Waldhausen data without a ``category``
    block, or whose zero is not a zero object of it, is a schema finding."""
    C = W.underlying.category
    if C is None:
        raise io.SchemaError("grid constructions need a nerve with a category block",
                             pointer + "/sset/category")
    z = W.underlying.labels[W.zero.gen]
    for o in C.objects:
        to, back = len(C.hom(z, o)), len(C.hom(o, z))
        if (to, back) != (1, 1):
            raise io.SchemaError(
                f"grid constructions need a zero object, but {io._name_of(z)} has "
                f"{to} morphisms to {io._name_of(o)} and {back} from it", pointer + "/zero")


def _require_indices(values, pointer: str):
    """Level and shape indices count vertices of a simplex, so none is
    negative."""
    if min(values, default=0) < 0:
        raise io.SchemaError("indices must be at least 0", pointer)


def _require_ho_dim(args):
    if args.dim < 2:
        raise io.SchemaError(
            "homotopy-category and K0 commands need --dim at least 2", "/dim")


# ---------------------------------------------------------------------------
# subcommands
#
# Each command imports the checkers it uses when it runs, so that starting a
# command loads only the modules it needs.


def cmd_validate(args):
    kind, value = _load(args.input)
    report = {"kind": kind, "valid": True}
    if kind == "waldhausen":
        from .waldhausen import validate_waldhausen

        rep = validate_waldhausen(value, args.dim)
        report["axioms"] = rep
        report["valid"] = not rep["violations"]
    elif kind == "exact":
        from .waldhausen import validate_exact

        rep = validate_exact(value)
        report["exact"] = rep
        report["valid"] = rep["ok"]
    return _emit(report, args, report["valid"])


def cmd_nerve(args):
    from .cats import nerve

    _, C = _load(args.input, "category")
    N = nerve(C, args.dim)
    return _emit({"sset": io.serialize_sset(N)}, args, True)


def cmd_tau1(args):
    from . import quasicat as qc

    _require_ho_dim(args)
    _, X = _load(args.input, "sset")
    pres = qc.tau1_presentation(X)
    return _emit({"presentation": pres}, args, True)


def cmd_ho(args):
    from . import quasicat as qc
    from .fincat import serialize_category

    _require_ho_dim(args)
    _, X = _load(args.input, "sset")
    try:
        ho = qc.ho_category(X)
    except ValueError as exc:
        # classes that compose ill-definedly or not associatively
        raise NotQuasicategory(str(exc)) from exc
    return _emit({"category": serialize_category(ho.cat)}, args, True)


def cmd_join(args):
    from .families import join
    from .simplicial import iso_check

    if len(args.inputs) != (3 if args.check_assoc else 2):
        raise io.SchemaError("join takes two input files, or three with --check-assoc",
                             "/inputs")
    _, A = _load(args.inputs[0], "sset")
    _, B = _load(args.inputs[1], "sset")
    span = join(A, B, args.dim)
    report = {"sset": io.serialize_sset(span.sset)}
    ok = True
    if args.check_assoc:
        _, C = _load(args.inputs[2], "sset")
        left = join(span.sset, C, args.dim).sset
        right = join(A, join(B, C, args.dim).sset, args.dim).sset
        iso = iso_check(left, right, args.dim)
        ok = iso is not None
        report = {"associative": ok,
                  "left_gens": left.n_gens, "right_gens": right.n_gens}
    return _emit(report, args, ok)


def cmd_slice(args):
    from . import joinslice as js

    _, f = _load(args.input, "map")
    S = js.slice_over(f, args.dim)
    return _emit({"sset": io.serialize_sset(S)}, args, True)


def cmd_overcat(args):
    from . import joinslice as js

    _, X = _load(args.input, "sset")
    y = _vertex_by_name(X, args.vertex)
    O, _ = js.over_quasicategory(X, y, args.dim)
    return _emit({"sset": io.serialize_sset(O)}, args, True)


def cmd_comma(args):
    from . import joinslice as js

    _, G = _load(args.input, "map")
    y = _vertex_by_name(G.target, args.vertex)
    K, _, _ = js.comma(G, y, args.dim)
    return _emit({"sset": io.serialize_sset(K)}, args, True)


def cmd_contractible(args):
    from .homology import weak_contractibility_report

    _, X = _load(args.input, "sset")
    rep = weak_contractibility_report(X, args.dim)
    return _emit(rep, args, rep["verdict"] != "refuted")


def cmd_waldhausen_check(args):
    from .waldhausen import validate_waldhausen

    _, W = _load(args.input, "waldhausen")
    rep = validate_waldhausen(W, args.dim)
    return _emit(rep, args, not rep["violations"])


def cmd_sconstruct(args):
    from .sconstruction import s_n

    _require_indices([args.n], "/n")
    if args.dim < 1:
        # the level's cofibrations are edges of its nerve
        raise io.SchemaError("sconstruct needs --dim at least 1", "/dim")
    _, W = _load(args.input, "waldhausen")
    _require_grid_data(W, "")
    level = s_n(W, args.n, args.dim)
    report = {
        "n": args.n,
        "objects": len(level.cat.objects),
        "morphisms": len(level.cat.morphisms),
        "cofibrations": len(level.wdata.cof),
        "sset": io.serialize_sset(level.sset),
        "level_report": level.report,
    }
    return _emit(report, args, True)


def cmd_k0(args):
    from . import ktheory as kt

    _require_ho_dim(args)
    _, W = _load(args.input, "waldhausen")
    _require_grid_data(W, "")
    rep = kt.k0_agreement(W, args.dim)
    report = {
        "invariant_factors": invariant_factors(rep["diagonal"]),
        "group": str(rep["diagonal"]),
        "routes_agree": rep["agree"],
        "diagonal": rep["diagonal"],
        "oracle": rep["oracle"],
    }
    return _emit(report, args, rep["agree"])


def cmd_approx(args):
    from . import ktheory as kt

    _require_ho_dim(args)
    _, G = _load(args.input, "exact")
    _require_grid_data(G.source, "/source")
    _require_grid_data(G.target, "/target")
    rep = kt.approximation_verify(G, args.dim)
    ok = rep["applicable"] and rep["conclusion"]["pass"]
    return _emit(rep, args, ok)


def cmd_lift(args):
    from . import lifting as lf

    _require_indices(args.nbar, "/nbar")
    nbar = tuple(args.nbar)
    kind, value = _load(args.input)
    if kind == "exact":
        value = value.themap
    if args.shape == "strong-replacement":
        if kind == "category":
            raise io.SchemaError("strong replacement needs a simplicial set, "
                                 "Waldhausen, map or exact-map file")
        target = value.underlying if kind == "waldhausen" else value
        rep = lf.rlp_check(target, nbar, kind="strong-replacement")
    else:
        if kind not in ("map", "exact"):
            raise io.SchemaError("prism lifting needs a map file")
        rep = lf.rlp_check(value, nbar, kind="prism")
    return _emit(rep, args, rep["verdict"] == "pass")


def cmd_iterate(args):
    from . import lifting as lf
    from .waldhausen import validate_exact

    _require_ho_dim(args)
    _require_indices(args.n, "/n")
    if len(args.n) > 2:
        raise io.SchemaError("at most two iterations are supported", "/n")
    _, G = _load(args.input, "exact")
    _require_grid_data(G.source, "/source")
    _require_grid_data(G.target, "/target")
    exact = validate_exact(G)
    if not exact["ok"]:
        # a map that is not exact induces no functor between the levels
        return _emit({"exact": exact}, args, False)
    rep = lf.higher_iterate_verify(G, tuple(args.n), args.dim)
    ok = rep["consistent_with_statement"] and rep["consistent_with_cof_statement"]
    return _emit(rep, args, ok)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A parser whose argument errors are schema findings, reported as JSON
    like every other bad input; subcommand parsers inherit it."""

    def error(self, message):
        raise io.SchemaError(message)


def _commands() -> dict:
    """name -> (handler, help, number of input files), in the order of the
    help text.  Built when a parser is, so a wrapper installed on a cmd_*
    function after import is the handler that runs."""
    return {
        "validate": (cmd_validate, "schema- and axiom-check an input file", 1),
        "nerve": (cmd_nerve, "nerve of a category, truncated at --dim", 1),
        "tau1": (cmd_tau1, "fundamental-category presentation of a simplicial set", 1),
        "ho": (cmd_ho, "homotopy category of a quasicategory", 1),
        "join": (cmd_join, "join of simplicial sets", 2),
        "slice": (cmd_slice, "slice over a diagram (right adjoint to join)", 1),
        "overcat": (cmd_overcat, "overquasicategory at a vertex", 1),
        "comma": (cmd_comma, "comma of a map at a target vertex", 1),
        "contractible": (cmd_contractible, "weak contractibility report", 1),
        "waldhausen-check": (cmd_waldhausen_check, "verify the cofibration-structure axioms", 1),
        "sconstruct": (cmd_sconstruct, "one level of the S-construction", 1),
        "k0": (cmd_k0, "K0 invariant factors, by two independent routes", 1),
        "approx": (cmd_approx, "approximation-statement desk check on an exact map", 1),
        "lift": (cmd_lift, "right-lifting-property check", 1),
        "iterate": (cmd_iterate, "iterated-level equivalence verification", 1),
    }


def _add_command(sub, name: str, func, help: str, inputs: int) -> None:
    p = sub.add_parser(name, help=help)
    if inputs == 1:
        p.add_argument("input", help="JSON input file")
    else:
        p.add_argument("inputs", nargs="+", help="JSON input files")
    p.add_argument("--dim", type=int, default=2,
                   help="verification dimension bound (default 2)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="search nodes the whole command may visit (default 1e6)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized searches (default 0)")
    p.add_argument("--out", help="write the report here instead of stdout")
    if name == "join":
        p.add_argument("--check-assoc", action="store_true", dest="check_assoc",
                       help="check associativity on three inputs instead")
    elif name in ("overcat", "comma"):
        p.add_argument("--vertex", required=True, help="target vertex name")
    elif name == "sconstruct":
        p.add_argument("--n", type=int, required=True, help="level index")
    elif name == "lift":
        p.add_argument("--shape", choices=["prism", "strong-replacement"],
                       default="prism")
        p.add_argument("--nbar", type=int, nargs="*", default=[],
                       help="spine-product shape indices (default: point)")
    elif name == "iterate":
        p.add_argument("--n", type=int, nargs="+", required=True,
                       help="iteration indices (at most two)")
    p.set_defaults(func=func)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``: when it starts with a known command, that
    command's subparser alone, which parses ``argv`` as the full parser
    would; otherwise (help, a missing or an unknown command), or when
    ``argv`` is None, the parser of every subcommand."""
    top = _Parser(
        prog="qcatk",
        description="Finite simplicial sets, quasicategories, and K-theory "
                    "verification reports.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    commands = _commands()
    if argv and argv[0] in commands:
        commands = {argv[0]: commands[argv[0]]}
    for name, spec in commands.items():
        _add_command(sub, name, *spec)
    return top


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = build_parser(argv).parse_args(argv)
        if args.budget <= 0:
            raise io.SchemaError("budget must be positive", "/budget")
        if args.dim < 0:
            raise io.SchemaError("--dim must be at least 0", "/dim")
        with budget(args.budget):
            return args.func(args)
    except io.SchemaError as exc:
        print(io.dumps({"error": str(exc), "pointer": exc.pointer}),
              file=sys.stderr)
        return EXIT_FINDING
    except (BudgetExceeded, BoundExceeded) as exc:
        print(io.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, NotQuasicategory) as exc:  # an unreadable input or unwritable report
        print(io.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_FINDING


if __name__ == "__main__":
    sys.exit(main())
