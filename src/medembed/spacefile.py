"""On-disk space format: one self-describing JSON document per space.

Layout::

    {"type": "tree" | "median_graph",
     "n": <vertex count>,
     "root": <vertex id>,
     "parent": [...]            # trees: parent array, root maps to itself
     "edges": [[u, v], ...]     # median graphs: undirected edge list
     "generator": {...}}        # optional provenance (spec label + seed)

Files written here are canonical (compact separators, fixed key order,
trailing newline), so saving a loaded file reproduces it byte for byte.
``SpaceFile`` holds the ids as int64 arrays, or as tuples where some id
does not fit one, so ``build_space`` can report it as given.

``load_spacefile`` reads the one large array of a canonical file with
numpy: where the file opens with the canonical type, n, root and array
key, and the array's bytes are decimal numbers of at most 18 digits with
no leading zero, between exactly the brackets and commas of a parent
array or of a list of pairs, ``np.fromstring`` parses them. The rest of
the document, with the array replaced by ``[]``, goes through ``json``
and must repeat no key. Any other file, or any file where one of these
checks fails, takes the ``json`` route over the whole text, so every
``SpaceFormatError`` keeps its type and message.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .cube import MedianGraph
from .errors import SpaceFormatError
from .sparse import edge_array, root_distances
from .tree import RootedTree


@dataclass(frozen=True, eq=False)
class SpaceFile:
    """A space file's fields. ``parent`` and ``edges`` may be given as
    any sequences of ids; they are held as int64 arrays (edges m x 2)
    where every id fits int64, and as given otherwise."""

    type: str
    n: int
    root: int
    parent: Optional[Union[np.ndarray, tuple]] = None
    edges: Optional[Union[np.ndarray, tuple]] = None
    generator: Optional[dict] = None

    def __post_init__(self):
        for name in ("parent", "edges"):
            ids = getattr(self, name)
            if ids is not None:
                object.__setattr__(self, name, _id_array(ids))

    def __eq__(self, other):
        """Equal fields, with the ids compared as arrays (so a tuple and an
        array of the same ids are equal)."""
        if not isinstance(other, SpaceFile):
            return NotImplemented
        return ((self.type, self.n, self.root, self.generator)
                == (other.type, other.n, other.root, other.generator)
                and all(_same_ids(getattr(self, name), getattr(other, name))
                        for name in ("parent", "edges")))


def _id_array(ids):
    """``ids`` as an int64 array if every id is an integer that fits one,
    else as given: a huge id is then reported as written."""
    if isinstance(ids, np.ndarray) and ids.dtype == np.int64:
        return ids
    try:
        a = np.asarray(ids)
    except ValueError:  # ragged pairs: build_space reports them
        return ids
    fits = a.dtype.kind == "i" or a.size == 0 or (
        a.dtype.kind == "u" and int(a.max()) < 2**63)
    return a.astype(np.int64) if fits else ids


def _same_ids(a, b) -> bool:
    if a is None or b is None:
        return a is b
    try:
        return np.array_equal(np.asarray(a), np.asarray(b))
    except ValueError:  # ragged pairs, kept as given
        return a == b


def to_spacefile(space: Union[RootedTree, MedianGraph],
                 generator: Optional[dict] = None) -> SpaceFile:
    if isinstance(space, RootedTree):
        return SpaceFile(
            type="tree",
            n=space.vertex_count,
            root=space.root,
            parent=np.asarray(space.parent, dtype=np.int64),
            generator=generator,
        )
    if isinstance(space, MedianGraph):
        return SpaceFile(
            type="median_graph",
            n=space.vertex_count,
            root=space.root,
            edges=np.column_stack([space.eu, space.ev]).astype(np.int64, copy=False),
            generator=generator,
        )
    raise TypeError(f"cannot serialize {type(space).__name__}")


def dumps_spacefile(sf: SpaceFile) -> str:
    doc: dict = {"type": sf.type, "n": sf.n, "root": sf.root}
    if sf.type == "tree":
        if sf.parent is not None:
            doc["parent"] = _listed(sf.parent)
        elif sf.edges is not None:
            doc["edges"] = _listed(sf.edges)
        else:
            raise SpaceFormatError("tree file needs parent or edges")
    elif sf.type == "median_graph":
        if sf.edges is None:
            raise SpaceFormatError("median_graph file needs edges")
        doc["edges"] = _listed(sf.edges)
    else:
        raise SpaceFormatError(f"unknown space type {sf.type!r}")
    if sf.generator is not None:
        doc["generator"] = sf.generator
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _listed(ids):
    """Ids as ``json`` writes them: an array as lists of Python ints."""
    return ids.tolist() if isinstance(ids, np.ndarray) else ids


def save_spacefile(sf: SpaceFile, path) -> None:
    Path(path).write_text(dumps_spacefile(sf))


def load_spacefile(path) -> SpaceFile:
    doc = _canonical_document(path)
    if doc is None:
        doc = _json_document(path)
    if not isinstance(doc, dict):
        raise SpaceFormatError(f"{path}: top level must be an object")
    for key in ("type", "n", "root"):
        if key not in doc:
            raise SpaceFormatError(f"{path}: missing field {key!r}")
    stype = doc["type"]
    if stype not in ("tree", "median_graph"):
        raise SpaceFormatError(f"{path}: unknown space type {stype!r}")
    try:
        n = _integer(doc["n"])
        root = _integer(doc["root"])
        parent = edges = None
        if stype == "tree" and "parent" in doc:
            parent = doc["parent"]
            if not isinstance(parent, np.ndarray):
                parent = tuple(_integer(p) for p in parent)
        elif "edges" in doc:
            edges = doc["edges"]
            if not isinstance(edges, np.ndarray):
                edges = tuple((_integer(u), _integer(v)) for u, v in edges)
    except (TypeError, ValueError) as exc:
        raise SpaceFormatError(f"{path}: malformed field ({exc})") from exc
    if parent is not None and len(parent) != n:
        raise SpaceFormatError(f"{path}: parent array length != n")
    if parent is None and edges is None:
        needs = "parent or edges" if stype == "tree" else "edges"
        raise SpaceFormatError(f"{path}: {stype} needs {needs}")
    generator = doc.get("generator")
    if generator is not None and not isinstance(generator, dict):
        raise SpaceFormatError(f"{path}: generator must be an object")
    return SpaceFile(type=stype, n=n, root=root, parent=parent, edges=edges,
                     generator=generator)


def _json_document(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except IsADirectoryError as exc:
        raise SpaceFormatError(f"{path}: is a directory") from exc
    except UnicodeDecodeError as exc:
        raise SpaceFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SpaceFormatError(f"{path}: JSON nested too deeply") from exc


# The opening of a canonical file, up to its array: the type, n and root
# keys, in that order, then the parent or edges key.
_CANONICAL_HEAD = re.compile(
    rb'\{"type":"(?:tree|median_graph)","n":[0-9]+,"root":[0-9]+,"(parent|edges)":\[')
_DIGITS = b"0123456789"
_CHUNK = 1 << 16  # bytes of the array read per check of its punctuation


class _RepeatedKey(Exception):
    pass


def _unique_keys(pairs) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise _RepeatedKey
    return doc


def _canonical_document(path) -> Optional[dict]:
    """The document of a canonical file, its parent array or m x 2 edge
    array parsed by numpy, or None if some check of the canonical form
    fails (see the module docstring), and then the file is read by
    ``json``. A non-empty number between the brackets and commas is
    free of leading zeros exactly when its digits are as many as its
    value's, and of at most 18 digits when, as well, it is below 10**18."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    head = _CANONICAL_HEAD.match(data)
    if head is None:
        return None
    key, start = head.group(1).decode(), head.end()
    del head  # it holds the bytes
    pairs = key == "edges"
    end = data.find(b"]]" if pairs else b"]", start) + pairs
    if end <= start:
        return None  # no closing bracket, or an empty array: both small
    # the punctuation, a chunk at a time: "[,]," repeated but for the
    # last comma, or commas only
    period = b"[,]," if pairs else b","
    pattern = period * (min(_CHUNK, end - start) // len(period) + 2)
    seen = digits = 0
    for at in range(start, end, _CHUNK):
        punct = data[at:min(at + _CHUNK, end)].translate(None, _DIGITS)
        phase = seen % len(period)
        if punct != pattern[phase:phase + len(punct)]:
            return None
        seen += len(punct)
        digits += min(_CHUNK, end - at) - len(punct)
    del pattern, punct
    count = (seen + 1) // len(period)
    if pairs:
        # a pair opens the array and follows each "],"; no number is empty
        canonical = ((seen + 1) % 4 == 0 and data[start] == ord("[")
                     and data.count(b"],[", start, end) == count - 1
                     and data.find(b"[,", start, end) < 0 and data.find(b",]", start, end) < 0)
    else:
        canonical = (data.find(b",,", start, end) < 0
                     and data[start] != ord(",") and data[end - 1] != ord(","))
    if not canonical:
        return None
    body = data[start:end]
    rest = data[:start - 1] + b"[]" + data[end + 1:]
    del data
    flat = body.translate(None, b"[]") if pairs else body
    del body
    try:
        # the count sizes the array once, where numpy would grow it
        ids = np.fromstring(flat, dtype=np.int64, count=count * (1 + pairs), sep=",")
    except ValueError:
        return None
    del flat
    if int(ids.max()) >= 10**18 or digits != len(ids) + sum(
            int(np.count_nonzero(ids >= 10**p)) for p in range(1, 18)):
        return None
    try:
        doc = json.loads(rest.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, _RepeatedKey):
        return None
    doc[key] = ids.reshape(-1, 2) if pairs else ids
    return doc


def _integer(x) -> int:
    """A JSON integer; a bool, a float (1.0 too) or a string is refused
    rather than truncated or coerced."""
    if type(x) is not int:
        raise TypeError(f"{json.dumps(x)} is not an integer")
    return x


def build_space(sf: SpaceFile) -> Union[RootedTree, MedianGraph]:
    """Materialize the stored space; invariants are re-validated on build."""
    label = ""
    if sf.generator and "spec" in sf.generator:
        label = str(sf.generator["spec"])
    try:
        if sf.type == "tree":
            if sf.parent is not None:
                return RootedTree(sf.parent, root=sf.root, label=label)
            parent = _parent_from_edges(sf.n, sf.edges, sf.root)
            return RootedTree(parent, root=sf.root, label=label)
        return MedianGraph(sf.n, sf.edges, root=sf.root, label=label)
    except ValueError as exc:
        raise SpaceFormatError(str(exc)) from exc


def _parent_from_edges(n, edges, root):
    if len(edges) != n - 1:
        raise SpaceFormatError("a tree on n vertices needs n-1 edges")
    if not 0 <= root < n:
        raise SpaceFormatError(f"root {root} out of range")
    e, out = edge_array(edges, n)
    if out < len(e):
        u, v = edges[out]
        raise SpaceFormatError(f"edge ({u},{v}) out of range")
    u, v = e.T
    # n - 1 edges reach every vertex only if they form a tree, in which each
    # vertex but the root has one edge to the level above: its parent.
    try:
        dist = root_distances(n, u, v, root)
    except ValueError:
        raise SpaceFormatError("edge list is not a connected tree") from None
    parent = np.full(n, root, dtype=np.int64)
    up = dist[u] > dist[v]
    parent[np.where(up, u, v)] = np.where(up, v, u)
    return parent
