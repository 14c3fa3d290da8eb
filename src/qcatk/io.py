"""JSON serialization for simplicial sets, categories, Waldhausen data,
and simplicial maps.

Formats (all UTF-8 JSON with sorted keys):

* simplicial set: ``{"bound": n-or-null, "generators": [[names per dim]],
  "faces": {name: [key, ...]}}`` with an optional ``"category"`` block for
  nerves.  A simplex key is ``[generator-name, [degeneracy indices]]``.
* category: ``{"objects": [...], "homs": {src: {tgt: [names]}},
  "compose": {g: {f: h}}, "ids": {obj: name}}`` (composition ``g after f``).
  A composite with an identity may be left out; the canonical form lists
  every composable pair.
* Waldhausen data: ``{"sset": ..., "zero": key, "cofibrations": [keys],
  "universe": {...}}``.
* map: ``{"source": sset, "target": sset, "assign": {name: key}}``; an
  exact map uses Waldhausen data for source and target instead.

Parsing validates the schema and reports violations with a JSON pointer.
``serialize(parse(x))`` is the canonical form of ``x``: generator ordering
is sorted per dimension and all keys are emitted deterministically.

The category codec is :mod:`qcatk.fincat`'s, loaded only when a category is
read or written.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _string

from .ssets import SimplexKey, SimplicialMap, SimplicialSet


class SchemaError(ValueError):
    """A schema violation, carrying a JSON pointer to the offending spot."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.message = message
        self.pointer = pointer or "/"


def _expect(cond, message, pointer):
    if not cond:
        raise SchemaError(message, pointer)


# ---------------------------------------------------------------------------
# naming


def _nerve_names(X: SimplicialSet):
    """For a nerve: vertex names are object names, higher names join the
    morphism string with '|', each morphism named once.  Returns None if
    that naming is ambiguous."""
    mname = {m: _name_of(m) for m in X.category.morphisms}
    names = {}
    for g in X.all_gens():
        label = X.labels[g]
        if g[0] == 0:
            names[g] = _name_of(label)
        else:
            names[g] = "|".join(map(mname.__getitem__, label))
    if len(set(names.values())) != len(names):
        return None
    return names


def _gen_names(X: SimplicialSet) -> dict:
    """Stable generator names: nerve-derived names for nerves, string labels
    when present and unique, otherwise "dim.index"."""
    names = _nerve_names(X) if X.category is not None else None
    return _label_names(X) if names is None else names


def _label_names(X: SimplicialSet) -> dict:
    """String labels when present and unique, otherwise "dim.index"."""
    gens = X.all_gens()
    labels = [X.labels.get(g) for g in gens]
    if all(isinstance(l, str) for l in labels) and len(set(labels)) == len(labels):
        return dict(zip(gens, labels))
    return {g: f"{g[0]}.{g[1]}" for g in gens}


def _name_of(x) -> str:
    return x if isinstance(x, str) else repr(x)


def _key_json(names: dict, k: SimplexKey) -> list:
    """A simplex key as ``[generator-name, [degeneracy indices]]``."""
    return [names[k.gen], list(k.degens)]


def key_names(X: SimplicialSet, keys) -> list[str]:
    """The keys as X's file names them, for messages: a nondegenerate key
    by its generator's name, a degenerate one as the JSON text of
    ``[generator-name, [degeneracy indices]]``."""
    names = _gen_names(X)
    return [json.dumps(_key_json(names, k), ensure_ascii=False) if k.degens
            else names[k.gen] for k in keys]


# ---------------------------------------------------------------------------
# simplicial sets


def serialize_sset(X: SimplicialSet) -> dict:
    return _sset_json(X)[0]


def _sset_json(X: SimplicialSet) -> tuple[dict, dict]:
    """The document of ``serialize_sset`` and the generator names in it.
    Face rows share one ``[name, [degeneracies]]`` list per distinct face
    key, so the document must not be edited in place."""
    # the names of ``_gen_names``, computed once: they also decide whether
    # the category block is written
    nerve_names = _nerve_names(X) if X.category is not None else None
    names = _label_names(X) if nerve_names is None else nerve_names
    keys: dict = {}  # one [name, [degeneracies]] list per distinct face key
    out = {
        "bound": X.bound,
        "generators": [sorted(names[g] for g in X.gens(n))
                       for n in range(X.top_dim + 1)],
        "faces": {
            names[g]: [keys.get(k) or keys.setdefault(k, _key_json(names, k))
                       for k in X.faces[g]]
            for g in X.all_gens() if g[0] >= 1
        },
    }
    if nerve_names is not None:
        from .fincat import serialize_category  # loaded with the nerve's category

        out["category"] = serialize_category(X.category)
    return out, names


def _parse_key(obj, gen_of_name, expect_dim, pointer) -> SimplexKey:
    _expect(isinstance(obj, list) and len(obj) == 2, "key must be [name, [degens]]",
            pointer)
    name, degens = obj
    _expect(isinstance(name, str), "generator name must be a string", pointer + "/0")
    _expect(name in gen_of_name, f"unknown generator {name!r}", pointer + "/0")
    # exact ints: JSON true and false would pass isinstance(i, int)
    _expect(isinstance(degens, list) and all(type(i) is int and i >= 0 for i in degens),
            "degeneracies must be nonnegative integers", pointer + "/1")
    _expect(all(degens[i] > degens[i + 1] for i in range(len(degens) - 1)),
            "degeneracy word must be strictly decreasing", pointer + "/1")
    g = gen_of_name[name]
    if expect_dim is not None:
        _expect(g[0] + len(degens) == expect_dim,
                f"key has dimension {g[0] + len(degens)}, expected {expect_dim}",
                pointer)
    return SimplexKey(g, tuple(degens))


def parse_sset(obj, pointer: str = "") -> SimplicialSet:
    _expect(isinstance(obj, dict), "simplicial set must be an object", pointer)
    _expect("generators" in obj, "missing 'generators'", pointer)
    _expect("faces" in obj, "missing 'faces'", pointer)
    gens_lists = obj["generators"]
    _expect(isinstance(gens_lists, list), "'generators' must be a list of lists",
            pointer + "/generators")
    gen_of_name: dict[str, tuple] = {}
    labels = {}
    n_gens = []
    for n, layer in enumerate(gens_lists):
        p = f"{pointer}/generators/{n}"
        _expect(isinstance(layer, list) and all(isinstance(s, str) for s in layer),
                "each dimension must list generator names", p)
        ordered = sorted(layer)
        _expect(len(set(ordered)) == len(ordered), "duplicate generator name", p)
        for i, name in enumerate(ordered):
            if name in gen_of_name:
                raise SchemaError(f"generator {name!r} repeated across dimensions", p)
            gen_of_name[name] = (n, i)
            labels[(n, i)] = name
        n_gens.append(len(ordered))
    if "category" in obj:
        # a nerve file is read through its category; on any mismatch the
        # generic route below parses it and reports the first fault
        from . import fincat

        X = fincat.nerve_from_document(obj, n_gens, labels, pointer)
        if X is not None:
            return X
    faces_obj = obj["faces"]
    _expect(isinstance(faces_obj, dict), "'faces' must be an object", pointer + "/faces")
    faces = {}
    # a face key is a function of its name, degeneracy word and expected
    # dimension alone, so each distinct triple is validated once; keys that
    # are not a list of a string name and a list of ints (say a degeneracy
    # 1.0, equal to 1 but rejected) always take the validating path.  Messages
    # and pointers of the hot loops are formatted only on failure.
    memo: dict[tuple, SimplexKey] = {}
    for name, g in gen_of_name.items():
        n = g[0]
        if n == 0:
            _expect(name not in faces_obj or faces_obj[name] == [],
                    "vertices take no faces", f"{pointer}/faces/{name}")
            continue
        if name not in faces_obj:
            raise SchemaError(f"missing faces of {name!r}", pointer + "/faces")
        lst = faces_obj[name]
        if not (isinstance(lst, list) and len(lst) == n + 1):
            raise SchemaError(f"generator of dimension {n} needs {n + 1} faces",
                              f"{pointer}/faces/{name}")
        row = []
        for i, k in enumerate(lst):
            if (type(k) is list and len(k) == 2 and type(k[0]) is str
                    and type(k[1]) is list
                    and (not k[1] or all(type(j) is int for j in k[1]))):
                m = (k[0], tuple(k[1]), n)
                key = memo.get(m)
                if key is None:
                    key = memo[m] = _parse_key(k, gen_of_name, n - 1,
                                               f"{pointer}/faces/{name}/{i}")
            else:
                key = _parse_key(k, gen_of_name, n - 1, f"{pointer}/faces/{name}/{i}")
            row.append(key)
        faces[g] = tuple(row)
    for name in faces_obj:
        if name not in gen_of_name:
            raise SchemaError(f"faces given for unknown generator {name!r}",
                              f"{pointer}/faces/{name}")
    bound = obj.get("bound")
    _expect(bound is None or (isinstance(bound, int) and not isinstance(bound, bool)
                              and bound >= 0),
            "'bound' must be null or a nonnegative integer", pointer + "/bound")
    if bound is not None:
        for n in range(bound + 1, len(n_gens)):
            _expect(n_gens[n] == 0, f"generators in dimension {n} above the bound {bound}",
                    f"{pointer}/generators/{n}")
    category = None
    if "category" in obj:
        category = fincat.parse_category(obj["category"], pointer + "/category")
        labels = fincat.nerve_labels_from_names(labels, category, pointer)
    X = SimplicialSet(n_gens, faces, labels=labels, bound=bound, category=category)
    try:
        X.check()
    except Exception as exc:  # simplicial identity failures
        raise SchemaError(f"simplicial identities fail: {exc}", pointer) from exc
    if category is not None:
        fincat.check_nerve_structure(X, category, pointer)
    return X


# ---------------------------------------------------------------------------
# Waldhausen data and maps


def serialize_waldhausen(W: WaldhausenData) -> dict:
    return _waldhausen_json(W)[0]


def _waldhausen_json(W: WaldhausenData) -> tuple[dict, dict]:
    sset, names = _sset_json(W.underlying)
    return {
        "sset": sset,
        "zero": _key_json(names, W.zero),
        "cofibrations": sorted(_key_json(names, k) for k in W.cof),
        "universe": W.universe,
    }, names


def parse_waldhausen(obj, pointer: str = "") -> WaldhausenData:
    from .waldhausen import WaldhausenData

    _expect(isinstance(obj, dict), "Waldhausen data must be an object", pointer)
    for field in ("sset", "zero", "cofibrations"):
        _expect(field in obj, f"missing '{field}'", pointer)
    X = parse_sset(obj["sset"], pointer + "/sset")
    gen_of_name = {name: g for g, name in _gen_names(X).items()}
    zero = _parse_key(obj["zero"], gen_of_name, 0, pointer + "/zero")
    cofs = []
    _expect(isinstance(obj["cofibrations"], list), "'cofibrations' must be a list",
            pointer + "/cofibrations")
    for i, k in enumerate(obj["cofibrations"]):
        p = f"{pointer}/cofibrations/{i}"
        e = _parse_key(k, gen_of_name, 1, p)
        _expect(not e.is_degenerate, "marked edges are stored nondegenerate", p)
        cofs.append(e)
    universe = obj.get("universe")
    _expect(universe is None or isinstance(universe, dict),
            "'universe' must be null or an object", pointer + "/universe")
    return WaldhausenData(X, zero, frozenset(cofs), universe)


def _assign_json(f: SimplicialMap, snames: dict, tnames: dict) -> dict:
    return {snames[g]: _key_json(tnames, k) for g, k in f.assign.items()}


def serialize_map(f: SimplicialMap) -> dict:
    (source, snames), (target, tnames) = _sset_json(f.source), _sset_json(f.target)
    return {"source": source, "target": target, "assign": _assign_json(f, snames, tnames)}


def _parse_checked_map(obj, source: SimplicialSet, target: SimplicialSet,
                       pointer: str) -> SimplicialMap:
    """The map that the ``"assign"`` block of the object at ``pointer``
    gives, checked to commute with the face maps."""
    assign_obj, p_assign = obj["assign"], pointer + "/assign"
    _expect(isinstance(assign_obj, dict), "'assign' must be an object", p_assign)
    s_names = _gen_names(source)
    s_of_name = {name: g for g, name in s_names.items()}
    t_of_name = {name: g for g, name in _gen_names(target).items()}
    assign = {}
    for name, k in assign_obj.items():
        p = f"{p_assign}/{name}"
        _expect(name in s_of_name, f"unknown source generator {name!r}", p)
        g = s_of_name[name]
        assign[g] = _parse_key(k, t_of_name, g[0], p)
    missing = [s_names[g] for g in source.all_gens() if g not in assign]
    _expect(not missing, f"assignment missing generators {missing[:3]!r}", p_assign)
    f = SimplicialMap(source, target, assign)
    try:
        f.check()
    except ValueError as exc:  # _parse_key checked the dimensions, so a face fails
        g, i, lhs, rhs = exc.witness
        got, want = key_names(target, (lhs, rhs))
        raise SchemaError(f"not a simplicial map: map fails d_{i} at generator "
                          f"{s_names[g]}: {got} != {want}", f"{p_assign}/{s_names[g]}") from None
    return f


def parse_map(obj, pointer: str = "") -> SimplicialMap:
    _expect(isinstance(obj, dict), "map must be an object", pointer)
    for field in ("source", "target", "assign"):
        _expect(field in obj, f"missing '{field}'", pointer)
    source = parse_sset(obj["source"], pointer + "/source")
    target = parse_sset(obj["target"], pointer + "/target")
    return _parse_checked_map(obj, source, target, pointer)


def serialize_exact(G: ExactFunctorData) -> dict:
    (source, snames), (target, tnames) = _waldhausen_json(G.source), _waldhausen_json(G.target)
    return {"source": source, "target": target, "assign": _assign_json(G.themap, snames, tnames)}


def parse_exact(obj, pointer: str = "") -> ExactFunctorData:
    from .waldhausen import ExactFunctorData

    _expect(isinstance(obj, dict), "exact map must be an object", pointer)
    for field in ("source", "target", "assign"):
        _expect(field in obj, f"missing '{field}'", pointer)
    Ws = parse_waldhausen(obj["source"], pointer + "/source")
    Wt = parse_waldhausen(obj["target"], pointer + "/target")
    return ExactFunctorData(_parse_checked_map(obj, Ws.underlying, Wt.underlying, pointer),
                            Ws, Wt)


# ---------------------------------------------------------------------------
# kind detection and canonical forms


def detect_kind(obj) -> str:
    if not isinstance(obj, dict):
        raise SchemaError("input must be a JSON object")
    if "sset" in obj:
        return "waldhausen"
    if "assign" in obj:
        return "exact" if isinstance(obj.get("source"), dict) and "sset" in obj["source"] else "map"
    if "faces" in obj or "generators" in obj:
        return "sset"
    if "homs" in obj:
        return "category"
    raise SchemaError("unrecognized input kind")


_CODECS = {
    "sset": (parse_sset, serialize_sset),
    "waldhausen": (parse_waldhausen, serialize_waldhausen),
    "map": (parse_map, serialize_map),
    "exact": (parse_exact, serialize_exact),
}


def _codec(kind: str) -> tuple:
    """The parser and the serializer of a kind."""
    if kind == "category":
        from .fincat import parse_category, serialize_category  # only when a category is read

        return parse_category, serialize_category
    return _CODECS[kind]


def parse_any(obj):
    kind = detect_kind(obj)
    return kind, _codec(kind)[0](obj)


def canonical(obj) -> dict:
    """Canonical form: parse then re-serialize."""
    kind, value = parse_any(obj)
    return _codec(kind)[1](value)


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False)`` and a newline, written in one pass: with an
    indent, ``json`` leaves its C encoder.  Dict keys must be strings."""
    return _dump(obj, "\n") + "\n"


_LITERALS = {None: "null", True: "true", False: "false"}


def _dump(x, nl: str) -> str:
    """The JSON text of x, at the indent that ``nl`` (a newline and spaces)
    opens.  Strings and empty lists, most of the values in a simplicial set's
    document, are written in place inside their container."""
    if isinstance(x, str):
        return _string(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(
            [_string(v) if type(v) is str else "[]" if type(v) is list and not v
             else _dump(v, inner) for v in x]) + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [_string(k) + ": " + (_string(v) if type(v) is str else _dump(v, inner))
             for k, v in sorted(x.items())]) + nl + "}"
    if x is None or x is True or x is False:
        return _LITERALS[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return json.dumps(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def load_path(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"malformed JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"malformed JSON: not UTF-8 at byte {exc.start}") from exc
