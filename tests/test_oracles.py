"""The oracles of ``oracles.py`` stay outside the package, and stay
independent of the cube-path forest they check."""

import numpy as np
import pytest

import medembed
from medembed import cube, metrics, tree, weights
from medembed.cube import CubeSpec, MedianGraph, gen_cube
from medembed.tree import TreeSpec
import oracles

# defining module (or class) at the time they shipped -> names moved out
MOVED = {
    cube: ["CubeStep", "NormalCubePath", "MedianVerdict", "validate_median",
           "normal_cube_path", "distance_condition_sides",
           "square_closure_classes", "dimension_by_cliques"],
    MedianGraph: ["adj", "separators", "_walk_classes", "_neighbor_across",
                  "_cross_cube", "_step"],
    metrics: ["sq_row_norms", "_sq_distance_blocks", "_exhaustive_entries"],
    tree: ["geodesic_edges", "meeting_point"],
    tree.RootedTree: ["depth_triples"],
    weights: ["find_monotone_cutoff", "sq_partial_sum", "sq_partial_sums",
              "deficit_scan", "deficit_constant"],
}


@pytest.mark.parametrize("home, name", [
    pytest.param(home, name, id=f"{home.__name__}.{name}")
    for home, names in MOVED.items() for name in names])
def test_oracles_live_beside_the_tests(home, name):
    assert not hasattr(home, name)
    assert not hasattr(medembed, name)
    assert hasattr(oracles, name)


def test_package_drops_the_oracles_imports():
    # only the moved code used them
    assert not hasattr(cube, "NonTerminationError")
    assert not hasattr(cube, "LEVEL_ENTRIES")
    assert not hasattr(metrics, "TYPE_CHECKING")  # it typed the Gram's scipy matrices


def _k23():
    return MedianGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])


INDEPENDENCE_GRAPHS = {
    "grid3x4": lambda: gen_cube(CubeSpec.grid(3, 4)),
    "staircase5": lambda: gen_cube(CubeSpec.staircase(5)),
    "from-tree": lambda: gen_cube(CubeSpec.from_tree(TreeSpec.spider(3, 3))),
    "K23": _k23,
}


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, with arrays as lists, or the type and
    message of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the raise is the outcome
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return tuple(np.asarray(a).tolist() for a in out)
    return out.tolist() if isinstance(out, np.ndarray) else out


def _oracle_outcomes(g):
    return {
        "distance_condition_sides": _outcome(oracles.distance_condition_sides, g),
        "square_closure_classes": _outcome(oracles.square_closure_classes, g),
        "validate_median": _outcome(oracles.validate_median, g),
        "normal_cube_path": [_outcome(oracles.normal_cube_path, g, v)
                             for v in range(g.vertex_count)],
        "dimension_by_cliques": _outcome(oracles.dimension_by_cliques, g),
    }


@pytest.mark.parametrize("name", list(INDEPENDENCE_GRAPHS))
def test_oracles_never_read_the_forest(name, monkeypatch):
    # an oracle that read the forest would make every comparison with it
    # vacuous: with forest() raising, each returns what it returns with
    # a working forest, and no forest is built
    build = INDEPENDENCE_GRAPHS[name]
    want = _oracle_outcomes(build())

    def no_forest(self):
        raise AssertionError("an oracle read the forest")

    g = build()
    monkeypatch.setattr(MedianGraph, "forest", no_forest)
    assert _oracle_outcomes(g) == want
    assert g._forest is None


def test_independence_graphs_reach_both_outcomes():
    # the comparison above covers accepted and rejected graphs alike
    grid = _oracle_outcomes(INDEPENDENCE_GRAPHS["grid3x4"]())
    assert grid["validate_median"].valid and grid["dimension_by_cliques"] == 2
    assert all(path.start == v for v, path in enumerate(grid["normal_cube_path"]))
    k23 = _oracle_outcomes(_k23())
    assert not k23["validate_median"].valid
    assert any(isinstance(path, tuple) for path in k23["normal_cube_path"])
