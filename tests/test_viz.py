import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconv.corpus_io import (
    parse_constituency,
    parse_dependency,
    read_constituency_file,
    read_dependency_file,
)
from treeconv.pooling import assign_global, assign_three_slot, pool
from treeconv.synthetic import random_dependency_tree
from treeconv.tensor_core import Tape, Tensor
from treeconv.viz import NodeFractionMap, emit_dot, emit_json, fractions

from test_properties import random_bracketed

DATA = Path(__file__).parent / "data"

I_LOVED_IT_CONLL = (
    "1\tI\t_\t_\t_\t_\t2\tnsubj\n"
    "2\tloved\t_\t_\t_\t_\t0\troot\n"
    "3\tit\t_\t_\t_\t_\t2\tdobj\n"
)


def pool_tree(tree, arrays, assignment=None):
    fm = Tensor(np.stack(arrays))
    if assignment is None:
        assignment = assign_global(tree)
    return pool(Tape(), fm, assignment)


# --- a tiny independent DOT parser (subset grammar) -------------------------

_DOT_ID = r'(?:[A-Za-z_][A-Za-z0-9_]*|"(?:[^"\\]|\\.)*")'
_NODE_RE = re.compile(rf"^{_DOT_ID}\s*(\[[^\]]*\])?;$")
_EDGE_RE = re.compile(rf"^{_DOT_ID}\s*->\s*{_DOT_ID}\s*(\[[^\]]*\])?;$")
_ATTR_DEFAULT_RE = re.compile(r"^(node|edge|graph)\s*\[[^\]]*\];$")


def parse_dot(text):
    """Validate a digraph body; returns (node count, edge count)."""
    lines = [l.strip() for l in text.strip().splitlines()]
    assert lines[0].startswith("digraph") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if not line:
            continue
        if _ATTR_DEFAULT_RE.match(line):
            continue
        if _EDGE_RE.match(line):
            edges += 1
        elif _NODE_RE.match(line):
            nodes += 1
        else:
            raise AssertionError(f"line does not parse as DOT: {line!r}")
    return nodes, edges


class TestFractions:
    def test_single_node_global_gets_everything(self):
        tree = parse_dependency("1\tYes\t_\t_\t_\t_\t0\troot\n")
        _, prov = pool_tree(tree, [np.array([1.0, 2.0, 3.0])])
        fracs = fractions(prov, tree)
        assert fracs.fractions[0] == Fraction(1)
        assert fracs.total() == 1

    def test_hand_counted_three_node_tree(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        # dims: node0 wins dim0, node2 wins dims 1 and 2, node1 wins dim 3
        arrays = [
            np.array([9.0, 0.0, 1.0, 0.0]),
            np.array([1.0, 1.0, 2.0, 8.0]),
            np.array([2.0, 7.0, 6.0, 3.0]),
        ]
        _, prov = pool_tree(tree, arrays)
        fracs = fractions(prov, tree)
        assert fracs.fractions == [Fraction(1, 4), Fraction(1, 4), Fraction(2, 4)]

    def test_conservation_is_exact_over_random_trees(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 10))
            tree = random_dependency_tree(rng, [f"w{i}" for i in range(n)])
            arrays = [rng.normal(size=5) for _ in range(n)]
            _, prov = pool_tree(tree, arrays)
            assert fractions(prov, tree).total() == 1

    def test_losing_node_has_fraction_exactly_zero(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        arrays = [np.array([5.0, 5.0]), np.array([1.0, 1.0]), np.array([0.0, 0.0])]
        fracs = fractions(pool_tree(tree, arrays)[1], tree)
        assert fracs.fractions[1] == 0
        assert fracs.fractions[2] == 0

    def test_multi_slot_counts_all_slots(self):
        tree = parse_constituency("(1 (0 a) (0 b))")
        arrays = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        assignment = assign_three_slot(tree)  # root TOP, leaves left/right
        _, prov = pool_tree(tree, arrays, assignment)
        fracs = fractions(prov, tree)
        assert fracs.total() == 1
        assert fracs.fractions == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]


class TestEmitDot:
    def test_single_node_label(self):
        tree = parse_dependency("1\tw\t_\t_\t_\t_\t0\troot\n")
        dot = emit_dot(tree, NodeFractionMap([Fraction(1)]))
        assert '[label="w (1.00)"' in dot

    def test_output_parses_and_counts_match(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        rng = np.random.default_rng(1)
        _, prov = pool_tree(tree, [rng.normal(size=4) for _ in range(3)])
        dot = emit_dot(tree, fractions(prov, tree))
        nodes, edges = parse_dot(dot)
        assert nodes == 3
        assert edges == 2
        assert 'label="nsubj"' in dot and 'label="dobj"' in dot

    def test_color_intensity_monotone_in_fraction(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        fracs = NodeFractionMap([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        dot = emit_dot(tree, fracs)
        sats = [float(m.group(1))
                for m in re.finditer(r'fillcolor="0\.580 ([0-9.]+) 1\.000"', dot)]
        assert len(sats) == 3
        order = sorted(range(3), key=lambda v: fracs.fractions[v])
        assert sorted(range(3), key=lambda v: sats[v]) == order


class TestEmitJson:
    def test_zero_fractions_serialized_not_omitted(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        fracs = NodeFractionMap([Fraction(0), Fraction(1), Fraction(0)])
        data = json.loads(emit_json(tree, fracs))
        root = data["root"]
        assert root["fraction"] == 1.0
        assert [c["fraction"] for c in root["children"]] == [0.0, 0.0]

    def test_round_trip_reproduces_fractions_exactly(self):
        rng = np.random.default_rng(2)
        tree = random_dependency_tree(rng, [f"w{i}" for i in range(7)])
        _, prov = pool_tree(tree, [rng.normal(size=6) for _ in range(7)])
        fracs = fractions(prov, tree)
        data = json.loads(emit_json(tree, fracs))

        recovered = {}

        def walk(obj):
            recovered[obj["position"]] = obj["fraction"]
            for c in obj["children"]:
                walk(c)

        walk(data["root"])
        for v, node in enumerate(tree.nodes):
            assert recovered[node.position] == float(fracs.fractions[v])

    def test_one_object_per_word_with_fraction(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        rng = np.random.default_rng(3)
        _, prov = pool_tree(tree, [rng.normal(size=4) for _ in range(3)])
        data = json.loads(emit_json(tree, fractions(prov, tree)))

        words = []

        def walk(obj):
            words.append(obj["word"])
            assert "fraction" in obj
            for c in obj["children"]:
                walk(c)

        walk(data["root"])
        assert sorted(words) == ["I", "it", "loved"]


def nested_json(tree, fracs):
    """The JSON text as nested objects dumped by `json.dumps`: the
    recursive oracle for `emit_json` (fine for shallow trees)."""
    def build(v):
        node = tree.nodes[v]
        return {
            "word": node.word,
            "label": node.label,
            "relation": node.dep_relation,
            "position": node.position,
            "fraction": float(fracs.fractions[v]),
            "children": [build(c) for c in node.children],
        }

    return json.dumps({"kind": tree.kind, "root": build(tree.root)}, indent=2)


def uneven_fractions(rng, tree):
    """Fractions of odd denominators, some zero, so the floats need
    their full repr."""
    wins = [rng.randrange(4) * rng.randrange(1, 9) for _ in tree.nodes]
    wins[rng.randrange(len(wins))] += 1
    return NodeFractionMap([Fraction(w, sum(wins)) for w in wins])


class TestEmitJsonText:
    def test_tiny_corpora_match_nested_dump(self):
        rng = random.Random(0)
        trees = (read_constituency_file(DATA / "tiny_con.txt")
                 + read_dependency_file(DATA / "tiny_dep.conll")
                 + read_dependency_file(DATA / "trec_mini.conll"))
        for tree in trees:
            fracs = uneven_fractions(rng, tree)
            assert emit_json(tree, fracs) == nested_json(tree, fracs)

    @settings(deadline=None, max_examples=30)
    @given(st.randoms(use_true_random=True), st.integers(1, 100),
           st.booleans())
    def test_random_trees_match_nested_dump(self, rng, size, dependency):
        if dependency:
            tree = random_dependency_tree(
                np.random.default_rng(rng.randrange(2 ** 32)),
                [f"w{i}é" for i in range(size)])
        else:
            tree = parse_constituency(random_bracketed(rng, size)[0])
        fracs = uneven_fractions(rng, tree)
        assert emit_json(tree, fracs) == nested_json(tree, fracs)
