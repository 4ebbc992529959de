import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed import spacefile
from medembed.cube import CubeSpec, MedianGraph, gen_cube
from medembed.errors import SpaceFormatError
from medembed.spacefile import (
    SpaceFile,
    build_space,
    dumps_spacefile,
    load_spacefile,
    save_spacefile,
    to_spacefile,
)
from medembed.tree import RootedTree, TreeSpec, gen_tree


def test_tree_round_trip(tmp_path):
    t = gen_tree(TreeSpec.spider(3, 4))
    path = tmp_path / "s.json"
    save_spacefile(to_spacefile(t, generator={"spec": t.label}), path)
    first = path.read_bytes()
    sf = load_spacefile(path)
    save_spacefile(sf, path)
    assert path.read_bytes() == first
    rebuilt = build_space(sf)
    assert isinstance(rebuilt, RootedTree)
    assert rebuilt.vertex_count == t.vertex_count
    assert list(rebuilt.parent) == list(t.parent)
    assert rebuilt.root == t.root


def test_median_round_trip(tmp_path):
    g = gen_cube(CubeSpec.grid(3, 2))
    path = tmp_path / "g.json"
    save_spacefile(to_spacefile(g), path)
    first = path.read_bytes()
    sf = load_spacefile(path)
    save_spacefile(sf, path)
    assert path.read_bytes() == first
    rebuilt = build_space(sf)
    assert isinstance(rebuilt, MedianGraph)
    assert rebuilt.vertex_count == g.vertex_count
    assert rebuilt.edge_count == g.edge_count
    assert rebuilt.root == g.root


def test_tree_from_edge_list():
    sf = SpaceFile(type="tree", n=4, root=2,
                   edges=((0, 1), (1, 2), (2, 3)))
    t = build_space(sf)
    assert isinstance(t, RootedTree)
    assert t.root == 2
    assert int(t.parent[0]) == 1
    assert int(t.parent[3]) == 2


def test_bad_documents(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SpaceFormatError):
        load_spacefile(p)
    p.write_text('{"type":"tree","n":3}')
    with pytest.raises(SpaceFormatError):
        load_spacefile(p)
    p.write_text('{"type":"sphere","n":3,"root":0}')
    with pytest.raises(SpaceFormatError):
        load_spacefile(p)
    p.write_text('{"type":"tree","n":3,"root":0,"parent":[0,0]}')
    with pytest.raises(SpaceFormatError):
        load_spacefile(p)


def test_inconsistent_spaces_rejected():
    with pytest.raises(SpaceFormatError):
        build_space(SpaceFile(type="tree", n=3, root=0,
                              edges=((0, 1),)))  # too few edges
    with pytest.raises(SpaceFormatError):
        build_space(SpaceFile(type="tree", n=4, root=0,
                              edges=((0, 1), (2, 3), (1, 2), (3, 0))))
    with pytest.raises(SpaceFormatError):
        build_space(SpaceFile(type="median_graph", n=4, root=0,
                              edges=((0, 1), (2, 3))))  # disconnected
    for edges, message in (
            (((0, 1), (1, 0), (2, 3)), "^edge list is not a connected tree$"),
            (((0, 0), (1, 2), (2, 3)), "^edge list is not a connected tree$"),
            (((0, 1), (1, 2), (2, 9)), r"^edge \(2,9\) out of range$"),
            (((0, 1), (1, 2), (3, 2 ** 70)), rf"^edge \(3,{2 ** 70}\) out of range$")):
        with pytest.raises(SpaceFormatError, match=message):
            build_space(SpaceFile(type="tree", n=4, root=0, edges=edges))


def test_tree_edges_with_root_out_of_range_rejected():
    for root in (3, -1):
        with pytest.raises(SpaceFormatError):
            build_space(SpaceFile(type="tree", n=3, root=root,
                                  edges=((0, 1), (1, 2))))


def test_generator_must_be_an_object(tmp_path):
    p = tmp_path / "bad.json"
    for generator in ("5", '"grid"', "[1,2]"):
        p.write_text('{"type":"tree","n":2,"root":0,"parent":[0,0],'
                     f'"generator":{generator}}}')
        with pytest.raises(SpaceFormatError):
            build_space(load_spacefile(p))


def test_dumps_requires_fields():
    with pytest.raises(SpaceFormatError):
        dumps_spacefile(SpaceFile(type="median_graph", n=2, root=0))
    with pytest.raises(SpaceFormatError):
        dumps_spacefile(SpaceFile(type="tree", n=2, root=0))


# -- the canonical route and its fallback ------------------------------------------


def _outcome(path):
    """What loading and building a file gives: the SpaceFile, or the type
    and message of the error."""
    try:
        sf = load_spacefile(path)
        build_space(sf)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return sf


def _json_outcome(path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spacefile, "_canonical_document", lambda path: None)
        return _outcome(path)


HEAD = '{"type":"median_graph","n":4,"root":0,"edges":'
# documents, and whether their arrays are canonical: the numpy route reads
# them, and the error, if any, comes after
MALFORMED = [
    (HEAD + "[[0,1],[1,02],[2,3]]}\n", False),  # a leading zero
    (HEAD + "[[0,1],[1,00],[2,3]]}\n", False),
    (HEAD + "[[0,1],[,2],[2,3]]}\n", False),  # empty numbers
    (HEAD + "[[0,1],[1,],[2,3]]}\n", False),
    (HEAD + "[[0,1],[1,2],[2,3],]}\n", False),
    (HEAD + "[[0,1],[1,2],[2,9223372036854775808]]}\n", False),  # ids of 2**63 and more
    (HEAD + "[[0,1],[1,2],[2,99999999999999999999]]}\n", False),
    (HEAD + "[[0,1],[1,2],[2,1000000000000000000]]}\n", False),  # 19 digits
    (HEAD + "[[0,1],[1,2],[2,999999999999999999]]}\n", True),  # 18 digits
    (HEAD + "[[0,1],[1,2.5],[2,3]]}\n", False),  # floats
    (HEAD + "[[0,1],[1,2e0],[2,3]]}\n", False),
    (HEAD + "[[0,1],[1,-2],[2,3]]}\n", False),  # a negative id
    (HEAD + "[[0,1],[1,2],[2,3", False),  # truncated bodies
    (HEAD + "[[0,1],[1,2],[2,3]]", False),
    (HEAD + "[[0,1],[1,2],[2,3]", False),
    (HEAD + "[[0,1],[1,2]5,[2,3]]}\n", False),  # digits outside the pairs
    (HEAD + "[5[0,1],[1,2],[2,3]]}\n", False),
    (HEAD + "[[0,1,2],[1,2],[2,3]]}\n", False),  # not pairs
    (HEAD + "[[0,1],[1,2],[2,3]],\"edges\":[[0,1]]}\n", False),  # a repeated key
    (HEAD + "[[0,1],[1,2],[2,3]],\"generator\":{\"spec\":\"a\",\"spec\":\"b\"}}\n", False),
    (HEAD + "[[0,1],[1,2],[2,3]],\"generator\":5}\n", True),
    (HEAD + "[[0,1],[1,2],[2,3]],\"generator\":{\"spec\":\"\\u00e9\\ud800\"}}\n", True),
    (HEAD + "[[0,1],[1,2],[2,3]]}{}\n", False),  # trailing data
    (HEAD + "[[0,1],[1,2],[2,3]]]\n", False),
    (HEAD + "[[0,1],[1,2],[2,2]]}\n", True),  # a self-loop
    (HEAD + "[[0,1],[1,2],[2,77]]}\n", True),  # out of range
    (HEAD + "[]}\n", False),
    ('{"type":"median_graph","n":4,"root":0,"parent":[0,0,1,2]}\n', True),  # no edges
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,01,2]}\n', False),
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,,2]}\n', False),
    ('{"type":"tree","n":4,"root":0,"parent":[,0,0,1]}\n', False),
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,1,]}\n', False),
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,1]}\n', True),  # length != n
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,1,99999999999999999999]}\n', False),
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,-1,2]}\n', False),
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,1.0,2]}\n', False),
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,1,2', False),
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,3,2]}\n', True),  # a cycle
    ('{"type":"tree","n":04,"root":0,"parent":[0,0,1,2]}\n', False),
    ('{"type":"tree","n":4,"root":0,"parent":[0,0,1,2]}', True),  # valid, no newline
]


def test_canonical_route_keeps_every_error(tmp_path, monkeypatch):
    # every case, malformed or not, gives the same SpaceFile or the same
    # error type and message as the json route over the whole text, and no
    # malformed array is read by numpy
    path = tmp_path / "case.json"
    for doc, canonical in MALFORMED:
        path.write_text(doc)
        assert _outcome(path) == _json_outcome(path, monkeypatch), doc
        assert (spacefile._canonical_document(path) is not None) == canonical, doc


def test_bad_documents_fail_alike_on_both_routes(tmp_path, monkeypatch):
    # the malformed documents of the tests above and of the CLI's
    path = tmp_path / "bad.json"
    for data in (b"{not json", b'{"type":"tree","n":3}', b'{"type":"sphere","n":3,"root":0}',
                 b'{"type":"tree","n":3,"root":0,"parent":[0,0]}',
                 b'{"type":"tree","n":2,"root":0,"parent":[0,0],"generator":[1,2]}',
                 b'{"type":"tree","n":1,"root":0,"parent":[0],"generator":{"spec":"\xe9"}}',
                 b'{"type":"median_graph","n":2,"root":0,"edges":[[0,null]]}',
                 b'{"type":"median_graph","n":4,"root":true,"edges":[[0,1],[1,2],[2,3]]}',
                 b'{"type":"tree","n":3,"root":3,"edges":[[0,1],[1,2]]}'):
        path.write_bytes(data)
        got, want = _outcome(path), _json_outcome(path, monkeypatch)
        assert isinstance(got, tuple) and got == want, data


def test_valid_files_that_are_not_canonical_load_alike(tmp_path):
    # pretty-printed, other key orders, spaces: the json route, and the
    # same SpaceFile as the canonical file
    g = gen_cube(CubeSpec.grid(3, 4))
    canonical = tmp_path / "c.json"
    save_spacefile(to_spacefile(g, generator={"spec": g.label}), canonical)
    doc = json.loads(canonical.read_text())
    want = load_spacefile(canonical)
    assert spacefile._canonical_document(canonical) is not None
    other = tmp_path / "o.json"
    for text in (json.dumps(doc, indent=1), json.dumps(doc),
                 json.dumps(dict(reversed(list(doc.items()))), separators=(",", ":")),
                 json.dumps({"n": doc["n"], **doc}, separators=(",", ":")),
                 canonical.read_text().replace("],[", "], [", 1)):
        other.write_text(text)
        assert spacefile._canonical_document(other) is None
        assert load_spacefile(other) == want


ids = st.one_of(st.integers(0, 10**18 - 1), st.integers(10**18 - 10, 10**18 + 10),
                st.integers(2**63 - 3, 2**64), st.integers(-5, -1))


@given(st.sampled_from(["tree", "median_graph"]), st.lists(ids, min_size=1, max_size=40),
       st.one_of(st.none(), st.fixed_dictionaries({"spec": st.text(max_size=8)})))
@settings(max_examples=200, deadline=None)
def test_canonical_files_round_trip(tmp_path_factory, stype, numbers, generator):
    # saving what was loaded gives the same bytes, whichever route loaded it;
    # ids of at most 18 digits take the numpy route
    path = tmp_path_factory.mktemp("rt") / "s.json"
    if stype == "tree":
        sf = SpaceFile(type=stype, n=len(numbers), root=0, parent=tuple(numbers),
                       generator=generator)
    else:
        pairs = tuple(zip(numbers, numbers[1:] + numbers[:1]))
        sf = SpaceFile(type=stype, n=len(numbers), root=0, edges=pairs, generator=generator)
    save_spacefile(sf, path)
    first = path.read_bytes()
    fast = spacefile._canonical_document(path) is not None
    assert fast == all(0 <= x < 10**18 for x in numbers)
    loaded = load_spacefile(path)
    assert loaded == sf
    assert dumps_spacefile(loaded).encode() == first


def test_spacefile_equality_compares_ids():
    edges = ((0, 1), (1, 2))
    a = SpaceFile(type="median_graph", n=3, root=0, edges=edges)
    assert a.edges.dtype == np.int64 and a.edges.shape == (2, 2)
    assert a == SpaceFile(type="median_graph", n=3, root=0, edges=np.array(edges))
    assert a == SpaceFile(type="median_graph", n=3, root=0, edges=[list(e) for e in edges])
    assert a != SpaceFile(type="median_graph", n=3, root=0, edges=((0, 1), (1, 3)))
    assert a != SpaceFile(type="median_graph", n=3, root=0, edges=((0, 1),))
    assert a != SpaceFile(type="tree", n=3, root=0, edges=edges)
    assert a != SpaceFile(type="median_graph", n=3, root=0, edges=edges, generator={})
    huge = SpaceFile(type="tree", n=2, root=0, parent=(0, 2**70))
    assert huge.parent == (0, 2**70)  # kept as given: beyond int64
    assert huge == SpaceFile(type="tree", n=2, root=0, parent=[0, 2**70])
    assert huge != SpaceFile(type="tree", n=2, root=0, parent=(0, 1))
    assert SpaceFile(type="tree", n=1, root=0, parent=(0,)) != a


def test_canonical_load_holds_no_int_per_id(tmp_path):
    # grid 100x100: 40,400 ids in a 239 kB file; a Python int per id would
    # trace more than 1.1 MB
    path = tmp_path / "g.json"
    save_spacefile(to_spacefile(gen_cube(CubeSpec.grid(100, 100))), path)
    load_spacefile(path)
    tracemalloc.start()
    try:
        sf = load_spacefile(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sf.edges.dtype == np.int64 and sf.edges.shape == (20200, 2)
    assert peak <= 3 * path.stat().st_size
