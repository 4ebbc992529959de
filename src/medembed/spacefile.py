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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .cube import MedianGraph
from .errors import SpaceFormatError
from .sparse import edge_array, root_distances
from .tree import RootedTree


@dataclass(frozen=True)
class SpaceFile:
    type: str
    n: int
    root: int
    parent: Optional[tuple[int, ...]] = None
    edges: Optional[tuple[tuple[int, int], ...]] = None
    generator: Optional[dict] = None


def to_spacefile(space: Union[RootedTree, MedianGraph],
                 generator: Optional[dict] = None) -> SpaceFile:
    if isinstance(space, RootedTree):
        return SpaceFile(
            type="tree",
            n=space.vertex_count,
            root=space.root,
            parent=tuple(int(p) for p in space.parent),
            generator=generator,
        )
    if isinstance(space, MedianGraph):
        return SpaceFile(
            type="median_graph",
            n=space.vertex_count,
            root=space.root,
            edges=tuple((int(u), int(v)) for u, v in zip(space.eu, space.ev)),
            generator=generator,
        )
    raise TypeError(f"cannot serialize {type(space).__name__}")


def dumps_spacefile(sf: SpaceFile) -> str:
    doc: dict = {"type": sf.type, "n": sf.n, "root": sf.root}
    if sf.type == "tree":
        if sf.parent is not None:
            doc["parent"] = list(sf.parent)
        elif sf.edges is not None:
            doc["edges"] = [list(e) for e in sf.edges]
        else:
            raise SpaceFormatError("tree file needs parent or edges")
    elif sf.type == "median_graph":
        if sf.edges is None:
            raise SpaceFormatError("median_graph file needs edges")
        doc["edges"] = [list(e) for e in sf.edges]
    else:
        raise SpaceFormatError(f"unknown space type {sf.type!r}")
    if sf.generator is not None:
        doc["generator"] = sf.generator
    return json.dumps(doc, separators=(",", ":")) + "\n"


def save_spacefile(sf: SpaceFile, path) -> None:
    Path(path).write_text(dumps_spacefile(sf))


def load_spacefile(path) -> SpaceFile:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except IsADirectoryError as exc:
        raise SpaceFormatError(f"{path}: is a directory") from exc
    except UnicodeDecodeError as exc:
        raise SpaceFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SpaceFormatError(f"{path}: JSON nested too deeply") from exc
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
            parent = tuple(_integer(p) for p in doc["parent"])
        elif "edges" in doc:
            edges = tuple((_integer(u), _integer(v)) for u, v in doc["edges"])
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
