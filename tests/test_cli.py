"""End-to-end command-line runs: exit codes, JSON reports, and file output."""

import ast
import collections
import copy
import fractions
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from qcatk import ssets as ss
import qcatk
from qcatk import cli, fincat, io
from qcatk import quasicat as qc
from qcatk import simplicial as sx
from qcatk.cats import cyclic_group_category, nerve, pointed_sets_category
from qcatk.cli import build_parser, main
from qcatk.waldhausen import (
    ExactFunctorData,
    WaldhausenData,
    nerve_waldhausen,
    pointed_sets_waldhausen,
)
from qcatk.zoo import pointed_sets_with_duplicate
from testlib import (
    chain_poset,
    cyclic_nerve_waldhausen,
    identity_exact,
    ill_defined_composition_set,
    maximal_marking_waldhausen,
    non_associative_set,
)


@pytest.fixture
def files(tmp_path):
    out = {}

    def save(name, doc):
        p = tmp_path / f"{name}.json"
        p.write_text(io.dumps(doc))
        out[name] = str(p)

    save("d1", io.serialize_sset(sx.delta(1)))
    save("d2", io.serialize_sset(sx.delta(2)))
    save("nz3", io.serialize_sset(nerve(cyclic_group_category(3), 3)))
    save("z3", fincat.serialize_category(cyclic_group_category(3)))
    save("chain2", fincat.serialize_category(chain_poset(2)))
    save("ps2", io.serialize_waldhausen(pointed_sets_waldhausen(2, 2)))
    save("dup", io.serialize_exact(pointed_sets_with_duplicate(2, 2)[1]))
    save("bdincl", io.serialize_map(
        sx.delta_inclusion(sx.boundary(2), sx.delta(2), lambda v: v)))
    out["dir"] = tmp_path
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = captured.out or captured.err
    return code, json.loads(payload)


def test_validate_reports_schema_kind(files, capsys):
    code, rep = _run(capsys, ["validate", files["ps2"]])
    assert code == 0
    assert rep["valid"]
    assert rep["kind"] == "waldhausen"
    assert rep["command"] == "validate"


def test_nerve_and_tau1_round_trip(files, capsys):
    code, rep = _run(capsys, ["nerve", files["z3"], "--dim", "3"])
    assert code == 0
    assert rep["sset"]["generators"] == io.load_path(files["nz3"])["generators"]
    code, rep = _run(capsys, ["tau1", files["nz3"]])
    assert code == 0
    assert len(rep["presentation"]["objects"]) == 1
    assert len(rep["presentation"]["generators"]) == 2
    # each simplex, degenerate or not, by its own repr
    pres = qc.tau1_presentation(io.parse_sset(io.load_path(files["nz3"])))
    assert rep["presentation"] == {
        "objects": [repr(k) for k in pres["objects"]],
        "generators": [repr(k) for k in pres["generators"]],
        "relations": [[repr(h), [repr(g), repr(f)]] for h, (g, f) in pres["relations"]]}


def test_ho_of_a_nerve_recovers_the_category(files, capsys):
    code, rep = _run(capsys, ["ho", files["nz3"]])
    assert code == 0
    assert len(rep["category"]["objects"]) == 1


def test_join_with_associativity_check(files, capsys):
    code, rep = _run(
        capsys,
        ["join", files["d1"], files["d1"], files["d1"], "--check-assoc",
         "--dim", "3"],
    )
    assert code == 0
    assert rep["associative"]


def test_the_join_of_two_nerves_validates(files, capsys):
    code, rep = _run(capsys, ["nerve", files["chain2"]])
    assert code == 0
    nerve_path = files["dir"] / "n.json"
    nerve_path.write_text(io.dumps(rep["sset"]))
    code, rep = _run(capsys, ["join", str(nerve_path), str(nerve_path)])
    assert code == 0
    join_path = files["dir"] / "j.json"
    join_path.write_text(io.dumps(rep["sset"]))
    code, rep = _run(capsys, ["validate", str(join_path)])
    assert code == 0
    assert rep["valid"]


def test_a_join_truncated_below_its_top_dimension_is_not_refuted(files, capsys):
    """Delta[1] * Delta[0] is Delta[2]; at --dim 1 only its 1-skeleton is
    written, so the file keeps bound 1 and H1 = Z of it refutes nothing."""
    d0 = files["dir"] / "d0.json"
    d0.write_text(io.dumps(io.serialize_sset(sx.delta(0))))
    code, rep = _run(capsys, ["join", files["d1"], str(d0), "--dim", "1"])
    assert code == 0
    assert rep["sset"]["bound"] == 1
    join_path = files["dir"] / "j.json"
    join_path.write_text(io.dumps(rep["sset"]))
    code, rep = _run(capsys, ["contractible", str(join_path)])
    assert code == 0
    assert rep["verdict"] == "inconclusive"


def test_k0_emits_invariant_factors(files, capsys):
    code, rep = _run(capsys, ["k0", files["ps2"]])
    assert code == 0
    assert rep["routes_agree"]
    assert rep["invariant_factors"] == [0]
    # group presentations in the report carry their invariant factors too
    assert rep["diagonal"] == {"free_rank": 1, "torsion": [], "invariant_factors": [0]}


def test_approx_passes_on_the_skeleton_inclusion(files, capsys):
    code, rep = _run(capsys, ["approx", files["dup"]])
    assert code == 0
    assert rep["applicable"] and rep["conclusion"]["pass"]


@pytest.mark.parametrize("argv", [["approx"], ["iterate", "--n", "1"], ["iterate", "--n", "2"]])
def test_a_map_that_is_not_exact_is_a_finding(files, capsys, argv):
    # the identity of N(Ps<=2), from the maximal marking to the injective
    # one, is a simplicial map that does not preserve cofibrations
    S = maximal_marking_waldhausen(pointed_sets_category(2), 1, 2)
    T = pointed_sets_waldhausen(2)
    ident = ss.SimplicialMap(S.underlying, T.underlying,
                             ss.SimplicialMap.identity(S.underlying).assign)
    path = files["dir"] / "not_exact.json"
    path.write_text(io.dumps(io.serialize_exact(ExactFunctorData(ident, S, T))))
    code, rep = _run(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 1
    exact = rep["hypotheses"]["exact"] if argv[0] == "approx" else rep["exact"]["ok"]
    assert exact is False


def test_a_simplicial_set_that_is_not_a_quasicategory_exits_one(files, capsys):
    # the inner horn of Delta[2] has no composite of its two edges
    path = files["dir"] / "horn.json"
    path.write_text(io.dumps(io.serialize_sset(sx.horn(2, 1))))
    code = main(["ho", str(path)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "no composite found for 1.0 then 1.1"


def test_waldhausen_data_that_is_not_a_quasicategory_is_reported(files, capsys):
    path = files["dir"] / "horn_w.json"
    W = WaldhausenData(sx.horn(2, 1), ss.SimplexKey((0, 0)), frozenset())
    path.write_text(io.dumps(io.serialize_waldhausen(W)))
    code = main(["waldhausen-check", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    rep = json.loads(captured.out)
    assert rep["checks"]["quasicategory"] is False
    assert [v[0] for v in rep["violations"]] == ["not-quasicategory"]


def test_waldhausen_check_below_bound_4_needs_the_category_block(files, capsys):
    # without a category block each pushout is an initial cocone in a slice,
    # which reads the data to dimension 4; with the block the bound-3 data
    # is enough
    doc = io.serialize_waldhausen(pointed_sets_waldhausen(2, 3))
    path = files["dir"] / "ps2_bound3.json"
    path.write_text(io.dumps(doc))
    code, rep = _run(capsys, ["waldhausen-check", str(path)])
    assert code == 0 and rep["ok"]
    path.write_text(io.dumps(_without_category(doc)))
    code = main(["waldhausen-check", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "map enumeration needs dimension 4 but bound is 3"}


def test_lift_prism_failure_sets_the_finding_exit_code(files, capsys):
    code, rep = _run(capsys, ["lift", files["bdincl"], "--shape", "prism"])
    assert code == 1
    assert rep["verdict"] == "fail"


@pytest.mark.parametrize("shape", ["prism", "strong-replacement"])
@pytest.mark.parametrize("name", ["nz3", "chain2", "ps2", "bdincl", "dup"])
def test_lift_reads_each_input_kind_or_says_why_not(files, capsys, name, shape):
    # prism lifting reads a map, of a map or an exact-map file; strong
    # replacement reads a simplicial set, the target of a map, or the
    # underlying set of Waldhausen data, and no category
    code = main(["lift", files[name], "--shape", shape])
    captured = capsys.readouterr()
    if name in ("bdincl", "dup") or (shape == "strong-replacement" and name != "chain2"):
        assert code in (0, 1) and captured.err == ""
        assert json.loads(captured.out)["kind"] == shape
    else:
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err)["pointer"] == "/"


def test_sconstruct_reports_level_counts(files, capsys):
    code, rep = _run(capsys, ["sconstruct", files["ps2"], "--n", "2"])
    assert code == 0
    assert rep["objects"] == 3


def _without_category(doc):
    """The document with every ``category`` block dropped."""
    if isinstance(doc, dict):
        return {k: _without_category(v) for k, v in doc.items() if k != "category"}
    return doc


@pytest.mark.parametrize("argv, pointer", [
    (["k0"], "/sset/category"),
    (["sconstruct", "--n", "1"], "/sset/category"),
    (["approx"], "/source/sset/category"),
    (["approx"], "/target/sset/category"),
    (["iterate", "--n", "1"], "/source/sset/category"),
])
def test_grid_commands_need_a_category_block(files, capsys, argv, pointer):
    # grid levels are diagram categories over the category of a nerve
    if argv[0] in ("approx", "iterate"):
        doc = io.serialize_exact(pointed_sets_with_duplicate(2, 2)[1])
    else:
        doc = io.serialize_waldhausen(pointed_sets_waldhausen(3))
    side = pointer.split("/")[1]
    if side == "sset":
        doc = _without_category(doc)
    else:
        doc[side] = _without_category(doc[side])
    path = files["dir"] / "no_category.json"
    path.write_text(io.dumps(doc))
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["pointer"] == pointer


@pytest.mark.parametrize("block", [True, False], ids=["category", "plain"])
def test_a_boolean_degeneracy_is_a_schema_error(files, capsys, block):
    # JSON false equals 0 in Python, but it is no degeneracy index
    doc = io.serialize_sset(nerve(cyclic_group_category(2), 2))
    assert doc["faces"]["1|1"][1] == ["*", [0]]
    doc["faces"]["1|1"][1] = ["*", [False]]
    if not block:
        doc = _without_category(doc)
    path = files["dir"] / "false_degeneracy.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "degeneracies must be nonnegative integers (at /faces/1|1/1/1)",
        "pointer": "/faces/1|1/1/1"}


def _point_into_the_cyclic_nerve():
    """The exact-map document of the inclusion of N(Ps<=1) as the zero of
    N(Z/2): the source has a zero object, the target does not."""
    S, T = nerve_waldhausen(pointed_sets_category(1), 1, [], 2), cyclic_nerve_waldhausen(True)
    point = ss.SimplicialMap(S.underlying, T.underlying, {(0, 0): T.zero})
    return io.serialize_exact(ExactFunctorData(point, S, T))


@pytest.mark.parametrize("argv, pointer", [
    (["k0"], "/zero"),
    (["sconstruct", "--n", "1"], "/zero"),
    (["iterate", "--n", "1"], "/source/zero"),
    (["iterate", "--n", "2"], "/source/zero"),
    (["approx"], "/source/zero"),
    (["approx"], "/target/zero"),
])
def test_grid_commands_need_a_zero_object(files, capsys, argv, pointer):
    # the zero * of N(Z/2) has two morphisms to itself, so every level has
    # two all-zero diagrams
    if pointer == "/zero":
        doc = io.serialize_waldhausen(cyclic_nerve_waldhausen(False))
    elif pointer == "/source/zero":
        doc = io.serialize_exact(identity_exact(cyclic_nerve_waldhausen(True)))
    else:
        doc = _point_into_the_cyclic_nerve()
    path = files["dir"] / "no_zero.json"
    path.write_text(io.dumps(doc))
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["pointer"] == pointer
    assert "* has 2 morphisms to * and 2 from it" in err["error"]


def test_approx_reports_factorization_by_the_definition(files, capsys):
    # every edge of both sides marked but one isomorphism of the target: the
    # target is not all marked, yet every edge factors
    _, G = pointed_sets_with_duplicate(2, 2)

    def marking(W, drop):
        X = W.underlying
        cof = frozenset(ss.SimplexKey(g) for g in X.gens(1)) - {drop}
        return WaldhausenData(X, W.zero, cof, W.universe)

    iso = ss.SimplexKey(G.target.underlying.gen_of_label(((("dup", (2, 2, (1,)), True, False)),)))
    doc = ExactFunctorData(G.themap, marking(G.source, None), marking(G.target, iso))
    path = files["dir"] / "unmarked_iso.json"
    path.write_text(io.dumps(io.serialize_exact(doc)))
    code, rep = _run(capsys, ["approx", str(path)])
    assert code == 1
    assert rep["hypotheses"]["source_all_maps_cofibrations"] is True
    assert rep["hypotheses"]["target_admits_factorization"] is True


# the messages name edges as the input file does
NOT_COMPOSING = {
    ill_defined_composition_set: "composition ill-defined on classes 1.0, 1.1: [1.2, 1.3]",
    non_associative_set: "associativity fails at 1.0, 1.1, 1.2",
}


@pytest.mark.parametrize("build", list(NOT_COMPOSING))
def test_homotopy_categories_that_do_not_compose_are_findings(files, capsys, build):
    message = NOT_COMPOSING[build]
    X, _ = build()
    path = files["dir"] / "x.json"
    path.write_text(io.dumps(io.serialize_sset(X)))
    code = main(["ho", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {"error": message}
    path.write_text(io.dumps(io.serialize_waldhausen(
        WaldhausenData(X, ss.SimplexKey((0, 0)), frozenset()))))
    for command in ["waldhausen-check", "validate"]:
        code, rep = _run(capsys, [command, str(path)])
        assert code == 1
        rep = rep.get("axioms", rep)
        assert rep["checks"]["quasicategory"] is False
        assert rep["violations"] == [["not-quasicategory", [message]]]


def test_report_payloads_convert_by_exact_type_first():
    # the plain values a report holds, and what the payload branches give
    Pair = collections.namedtuple("Pair", "a b")

    class Name(str):
        pass

    key = ss.SimplexKey((1, 0), (0,))
    report = {"key": key, "keys": [key, (key, 2.5)], "pair": Pair(1, key),
              "ordered": collections.OrderedDict(b=1, a=[None]), "set": {key},
              "name": Name("x"), "other": fractions.Fraction(1, 2), (0, 1): True,
              "sset": sx.delta(1), "category": chain_poset(1)}
    assert cli._jsonable(report) == {
        "key": repr(key), "keys": [repr(key), [repr(key), 2.5]], "pair": [1, repr(key)],
        "ordered": {"b": 1, "a": [None]}, "set": [repr(key)], "name": "x",
        "other": "Fraction(1, 2)", "(0, 1)": True, "sset": {"gens": [2, 1], "bound": None},
        "category": fincat.serialize_category(chain_poset(1))}


def test_budget_exhaustion_exits_two(files, capsys):
    code = main(["k0", files["ps2"], "--budget", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize("limit, code", [(1600, 2), (1877, 2), (1878, 0)])
def test_the_budget_bounds_the_whole_command(files, capsys, limit, code):
    # approx on dup(2,2) makes many searches, 1,878 nodes in all; the largest
    # of them has 1,483, so a budget per search let it pass at 1,600
    assert main(["approx", files["dup"], "--budget", str(limit)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert json.loads(captured.err)["error"] == f"search budget of {limit} nodes exceeded"


def test_dimension_guard_exits_one_with_pointer(files, capsys):
    code = main(["ho", files["nz3"], "--dim", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["pointer"] == "/dim"


@pytest.mark.parametrize("argv", [
    ["validate", "ps2"], ["nerve", "z3"], ["tau1", "nz3"], ["ho", "nz3"], ["join", "d1", "d2"],
    ["slice", "bdincl"], ["overcat", "d2", "--vertex", "0.0"],
    ["comma", "bdincl", "--vertex", "0.0"], ["contractible", "d2"], ["waldhausen-check", "ps2"],
    ["sconstruct", "ps2", "--n", "1"], ["k0", "ps2"], ["approx", "dup"], ["lift", "bdincl"],
    ["iterate", "dup", "--n", "1"],
], ids=lambda argv: argv[0])
def test_a_negative_dimension_bound_is_one_json_error(files, capsys, argv):
    code = main([files.get(a, a) for a in argv] + ["--dim", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err) == {"error": "--dim must be at least 0 (at /dim)",
                                        "pointer": "/dim"}


@pytest.mark.parametrize("where", ["missing", "directory-input", "directory-out"])
def test_missing_file_exits_one(files, capsys, where):
    # an input that cannot be read and a report path that cannot be written
    # are findings, each one JSON error on stderr
    argv = {"missing": ["validate", str(files["dir"] / "absent.json")],
            "directory-input": ["validate", str(files["dir"])],
            "directory-out": ["validate", files["d1"], "--out", str(files["dir"])]}[where]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert list(json.loads(captured.err)) == ["error"]


@pytest.mark.parametrize("content", [b'{"generators": [["a"]], "faces": {', b"\xff\xfe{}"])
def test_malformed_json_exits_one_with_a_pointer(files, capsys, content):
    bad = files["dir"] / "malformed.json"
    bad.write_bytes(content)
    code = main(["validate", str(bad)])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["pointer"] == "/"
    assert err["error"].startswith("malformed JSON")


def _mistyped_documents():
    face = {"bound": 1, "generators": [["a", "b"], ["e"]],
            "faces": {"e": [[["x"], []], ["a", []]]}}
    cat = fincat.serialize_category(chain_poset(1))
    row, composite, identity = (copy.deepcopy(cat) for _ in range(3))
    row["compose"]["(1, 1)"] = [["(0, 1)", "(0, 1)"]]
    composite["compose"]["(1, 1)"]["(0, 1)"] = ["(0, 1)"]
    identity["ids"]["1"] = ["(1, 1)"]
    return [
        pytest.param(face, "/faces/e/0/0", id="face-name-list"),
        pytest.param(row, "/compose/(1, 1)", id="compose-row-list"),
        pytest.param(composite, "/compose/(1, 1)/(0, 1)", id="composite-list"),
        pytest.param(identity, "/ids/1", id="identity-list"),
    ]


@pytest.mark.parametrize("doc,pointer", _mistyped_documents())
def test_mistyped_names_exit_one_with_a_pointer(files, capsys, doc, pointer):
    bad = files["dir"] / "mistyped.json"
    bad.write_text(json.dumps(doc))
    code = main(["validate", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["pointer"] == pointer


def test_a_contradictory_identity_composite_exits_one(files, capsys):
    # "1b after f" is listed as g, although 1b is the identity of b
    doc = {"objects": ["a", "b"],
           "homs": {"a": {"a": ["1a"], "b": ["f", "g"]}, "b": {"b": ["1b"]}},
           "ids": {"a": "1a", "b": "1b"},
           "compose": {"1b": {"f": "g"}}}
    bad = files["dir"] / "identity.json"
    bad.write_text(json.dumps(doc))
    code = main(["validate", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"].startswith("category laws fail: left identity fails at 'f'")


def test_out_flag_writes_the_report_to_a_file(files, capsys):
    target = files["dir"] / "report.json"
    code = main(["contractible", files["d2"], "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["verdict"].startswith("confirmed")


def test_canonical_form_is_stable_under_validate(files, capsys):
    code, rep = _run(capsys, ["validate", files["bdincl"]])
    assert code == 0
    assert io.canonical(io.load_path(files["bdincl"])) == io.load_path(files["bdincl"])


def test_importing_the_front_end_loads_no_checker(files):
    # each command imports its checkers when it runs: a nerve file is read,
    # and its homotopy category and tau1 computed, by the two cores alone
    # (ssets and fincat), without simplicial or cats; a lift on a file
    # without a category block loads no category at all, ho no homology, the
    # grid commands no joinslice, no command the paper checks, and nothing
    # dataclasses
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcatk.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    checkers = ["cats", "families", "fincat", "homology", "joinslice", "ktheory", "lifting",
                "quasicat", "sconstruction", "simplicial", "statements", "waldhausen"]
    loaded = (f"print([m for m in {checkers!r} if 'qcatk.' + m in sys.modules], "
              "[m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    report = ["--out", str(files["dir"] / "report.json")]
    # a nerve file read through its category block loads fincat, and the
    # same file without the block loads nothing more than a simplicial set
    # does; quasicat imports fincat only where it builds a category, and
    # simplicial only where it builds shapes, horns or products
    plain = files["dir"] / "nz3-plain.json"
    plain.write_text(io.dumps({k: v for k, v in io.load_path(files["nz3"]).items()
                               if k != "category"}))
    k0 = ("['cats', 'fincat', 'homology', 'ktheory', 'quasicat', 'sconstruction', "
          "'simplicial', 'waldhausen'] []")
    commands = {
        ("validate", files["nz3"]): "['fincat'] []",
        ("validate", str(plain)): "[] []",
        ("tau1", files["nz3"]): "['fincat', 'quasicat'] []",
        ("tau1", str(plain)): "['quasicat'] []",
        ("ho", files["nz3"]): "['fincat', 'quasicat'] []",
        ("lift", files["bdincl"]): "['lifting', 'simplicial'] []",
        ("lift", files["nz3"], "--shape", "strong-replacement"):
            "['fincat', 'lifting', 'simplicial'] []",
        ("k0", files["ps2"]): k0,
        ("approx", files["dup"]): k0,
        ("sconstruct", files["ps2"], "--n", "1"):
            "['cats', 'fincat', 'quasicat', 'sconstruction', 'simplicial', 'waldhausen'] []",
        ("iterate", files["dup"], "--n", "1"):
            "['cats', 'fincat', 'lifting', 'quasicat', 'sconstruction', 'simplicial', "
            "'waldhausen'] []",
    }
    probes = {"import sys, qcatk.io, qcatk.cli; " + loaded: "[] []"}
    for argv, want in commands.items():
        probes[f"import sys, qcatk.cli; qcatk.cli.main({list(argv) + report!r}); " + loaded] = want
    for probe, want in probes.items():
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == want


def test_no_module_of_the_library_imports_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize in every command
    root = os.path.dirname(os.path.abspath(qcatk.__file__))
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", name


def _perfbench_module(monkeypatch, name, as_name):
    """A script of perfbench/, loaded read-only under ``as_name`` for the test."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(as_name, os.path.join(root, "perfbench", name))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, as_name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_names_a_qcatk_attribute(monkeypatch):
    # perfbench/traced.py wraps functions by name, so a rename would drop a span silently
    traced = _perfbench_module(monkeypatch, "traced.py", "perfbench_traced")
    assert traced.TRACED
    for module in traced.MODULES:
        importlib.import_module(f"qcatk.{module}")
    for name, (module, attr) in traced.TRACED.items():
        assert module in traced.MODULES, name
        obj = importlib.import_module(f"qcatk.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), name
            obj = getattr(obj, part)
        # the tracer patches the namespaces of MODULES only, so a traced
        # function must be defined where TRACED names it; a traced method is
        # patched on its class, which may be one of the two cores' that the
        # module imports
        homes = {f"qcatk.{module}"} | ({"qcatk.ssets", "qcatk.fincat"} if "." in attr else set())
        assert obj.__module__ in homes, name


def test_a_traced_command_records_its_spans(files, tmp_path):
    # perfbench/traced.py wraps the functions in the namespaces of its MODULES;
    # a slice reaches the map search through families.MapFamily, outside them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcatk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = {
        ("lift", files["nz3"], "--shape", "strong-replacement"):
            {"cli.command", "io.load_path", "lifting.rlp_check"},
        ("slice", files["bdincl"]):
            {"cli.command", "simplicial.MaterializedSSet", "simplicial.enumerate_maps.generic"},
    }
    for argv, want in runs.items():
        spans = tmp_path / "spans.json"
        subprocess.run([sys.executable, os.path.join(root, "perfbench", "traced.py"),
                        str(spans), "0", "--", *argv, "--out", str(tmp_path / "report.json")],
                       env=env, check=True)
        names = {span[0] for span in json.loads(spans.read_text())["spans"]}
        assert want <= names, argv


def test_every_qcatk_name_the_benchmark_catalogue_imports_resolves():
    # perfbench/catalogue.py builds the benchmark inputs from library names
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "catalogue.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "qcatk"
                for alias in node.names]
    assert imported
    for module, name in imported:
        # ``from qcatk import zoo`` names a submodule
        assert (hasattr(importlib.import_module(module), name)
                or importlib.util.find_spec(f"{module}.{name}") is not None), f"{module}.{name}"
        obj = getattr(importlib.import_module(module), name, None)
        if obj is not None and not isinstance(obj, type(qcatk)):
            # defined there, or in one of the two cores that the module imports
            assert obj.__module__ in (module, "qcatk.ssets", "qcatk.fincat"), f"{module}.{name}"


def test_every_benchmark_report_keeps_its_recorded_digest(monkeypatch, tmp_path):
    # perfbench/run.py rejects a run whose reports differ from the digests in
    # perfbench/expected.json; this finds such drift without the benchmark
    monkeypatch.setitem(sys.modules, "traced",
                        _perfbench_module(monkeypatch, "traced.py", "perfbench_traced"))
    run = _perfbench_module(monkeypatch, "run.py", "perfbench_run")
    catalogue = _perfbench_module(monkeypatch, "catalogue.py", "perfbench_catalogue")
    expected = json.loads((run.BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    out = tmp_path / "report.json"
    keys = set()
    for workload in catalogue.WORKLOADS.values():
        entries = catalogue.all_entries(workload)
        paths = run.write_inputs(catalogue, entries, workload.plain, tmp_path / workload.name)
        for entry in entries:
            code = main(entry.argv(str(paths[entry.instance])) + ["--out", str(out)])
            report = out.read_bytes()
            out.unlink()
            assert code == entry.exit_code, (workload.name, entry.key)
            assert entry.verdict(json.loads(report)), (workload.name, entry.key)
            assert hashlib.sha256(report).hexdigest() == expected[entry.key], (
                workload.name, entry.key)
            keys.add(entry.key)
    assert keys == set(expected)


def _swapped_vertices_doc(exact):
    """Delta[1] -> Delta[1] with its two vertices swapped and its edge kept,
    as a map file or, over Delta[1] marked along its edge, as an exact-map
    file."""
    D = sx.delta(1)
    ident = ss.SimplicialMap.identity(D)
    if exact:
        W = WaldhausenData(D, ss.SimplexKey((0, 0)), frozenset({ss.SimplexKey((1, 0))}))
        doc = io.serialize_exact(ExactFunctorData(ident, W, W))
    else:
        doc = io.serialize_map(ident)
    doc = json.loads(json.dumps(doc))
    doc["assign"]["0.0"], doc["assign"]["0.1"] = ["0.1", []], ["0.0", []]
    return doc


def _name_in_two_dimensions_doc():
    doc = json.loads(json.dumps(io.serialize_sset(sx.delta(1))))
    doc["generators"][1] = ["0.0"]
    return doc


@pytest.mark.parametrize("build, argv, pointer, message", [
    (lambda: _swapped_vertices_doc(False), ["validate"], "/assign/1.0",
     "not a simplicial map: map fails d_0 at generator 1.0: 0.0 != 0.1"),
    (lambda: _swapped_vertices_doc(True), ["validate"], "/assign/1.0",
     "not a simplicial map: map fails d_0 at generator 1.0: 0.0 != 0.1"),
    (_name_in_two_dimensions_doc, ["validate"], "/generators/1",
     "generator '0.0' repeated across dimensions"),
    (lambda: io.serialize_sset(sx.delta(2)), ["overcat", "--vertex", "nosuch"], "/vertex",
     "no vertex named 'nosuch'"),
], ids=["map-face", "exact-map-face", "name-in-two-dimensions", "no-such-vertex"])
def test_input_faults_are_named_as_in_the_file(tmp_path, capsys, build, argv, pointer,
                                               message):
    path = tmp_path / "input.json"
    path.write_text(io.dumps(build()))
    code, err = _run(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 1
    assert err == {"error": f"{message} (at {pointer})", "pointer": pointer}


@pytest.mark.parametrize("argv, pointer", [
    (["join", "d1"], "/inputs"),
    (["join", "d1", "d1", "d1"], "/inputs"),
    (["join", "d1", "d1", "--check-assoc"], "/inputs"),
    (["iterate", "dup", "--n", "1", "1", "1"], "/n"),
    (["iterate", "dup", "--n", "-1"], "/n"),
    (["sconstruct", "ps2", "--n", "-1"], "/n"),
    (["lift", "bdincl", "--nbar", "-1"], "/nbar"),
    (["k0", "ps2", "--budget", "0"], "/budget"),
    # a level nerve below dimension 1 has no edges to mark
    (["sconstruct", "ps2", "--n", "1", "--dim", "0"], "/dim"),
])
def test_nonsense_arguments_are_one_json_error(files, capsys, argv, pointer):
    argv = [files.get(a, a) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err)["pointer"] == pointer


@pytest.mark.parametrize("argv, message", [
    (["k0"], "the following arguments are required: input"),
    (["k0", "ps2", "--dim", "x"], "argument --dim: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
])
def test_argument_errors_exit_one_with_a_json_error(files, capsys, argv, message):
    # exit code 2 belongs to an exceeded budget or bound, not to argparse
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err) == {"error": f"{message} (at /)", "pointer": "/"}


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["k0", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


COMMANDS = ["validate", "nerve", "tau1", "ho", "join", "slice", "overcat", "comma",
            "contractible", "waldhausen-check", "sconstruct", "k0", "approx", "lift", "iterate"]

# the command lines of the README, then help, argument errors and no command
PARSER_CASES = [
    ["validate", "INPUT.json"], ["nerve", "CATEGORY.json", "--dim", "3"],
    ["tau1", "SSET.json"], ["ho", "SSET.json"], ["join", "A.json", "B.json"],
    ["join", "A.json", "B.json", "C.json", "--check-assoc"], ["slice", "MAP.json"],
    ["overcat", "SSET.json", "--vertex", "v"], ["comma", "MAP.json", "--vertex", "v"],
    ["contractible", "SSET.json"], ["waldhausen-check", "W.json"],
    ["sconstruct", "W.json", "--n", "2"], ["k0", "W.json"], ["approx", "EXACT.json"],
    ["lift", "INPUT.json", "--shape", "prism", "--nbar", "1", "1"],
    ["lift", "INPUT.json", "--shape", "strong-replacement"],
    ["iterate", "EXACT.json", "--n", "1", "1"],
    ["k0", "W.json", "--budget", "5", "--seed", "3", "--out", "r.json"],
] + [[name, "--help"] for name in COMMANDS] + [
    [], ["--help"], ["-h"], ["frobnicate", "x.json"], ["--dim", "3"],
    ["lift", "x.json", "--shape", "cube"], ["sconstruct", "W.json"], ["iterate", "E.json"],
    ["overcat", "S.json"], ["k0"], ["k0", "W.json", "--dim", "x"], ["k0", "W.json", "extra"],
    ["lift", "x.json", "--nbar", "one"], ["join"],
]


def _parse(parser, argv, capsys):
    """Namespace, schema error, exit code, stdout and stderr of one parse."""
    namespace = error = code = None
    try:
        namespace = vars(parser.parse_args(argv))
    except io.SchemaError as exc:
        error = (str(exc), exc.pointer)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return namespace, error, code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_the_parser_of_one_command_parses_as_the_full_parser(capsys, argv):
    # main builds only the subparser its command names; help, usage and
    # errors must not change
    def commands(parser):
        return list(parser._actions[-1].choices)  # the subparsers action

    assert commands(build_parser()) == COMMANDS
    if argv and argv[0] in COMMANDS:
        assert commands(build_parser(argv)) == [argv[0]]
    full = _parse(build_parser(), argv, capsys)
    assert _parse(build_parser(argv), argv, capsys) == full
    assert full != (None, None, None, "", "")
