import pytest

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
