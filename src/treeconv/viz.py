"""Pooling-provenance visualization: per-node win fractions rendered as
DOT graphs and JSON trees.

For each node we count how many pooled feature dimensions it supplied
and divide by the total number of credited dimensions, using exact
rational arithmetic so the fractions always sum to exactly 1.  Global
pooling gives the most readable traces (one slot credits everything),
but any strategy is accepted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List

from .corpus_io import DEPENDENCY, ParseTree
from .errors import ContractError
from .pooling import PoolProvenance


@dataclass
class NodeFractionMap:
    """Fraction of credited pooled dimensions won by each node."""

    fractions: List[Fraction]

    def __len__(self) -> int:
        return len(self.fractions)

    def total(self) -> Fraction:
        return sum(self.fractions, Fraction(0))

    def argmax(self) -> int:
        return max(range(len(self.fractions)), key=lambda v: self.fractions[v])


def fractions(provenance: PoolProvenance, tree: ParseTree) -> NodeFractionMap:
    """Win counts over credited dimensions, as exact rationals.

    The denominator is the number of credited dimensions: slot count
    times n_c when every slot is populated; empty slots (possible only
    in degenerate 3-slot trees) credit nothing and shrink it.
    """
    wins = [0] * len(tree.nodes)
    for _slot, _dim, node in provenance.credited():
        if not 0 <= node < len(tree.nodes):
            raise ContractError(
                f"provenance names node {node}, tree has {len(tree.nodes)}"
            )
        wins[node] += 1
    credited = sum(wins)
    if credited == 0:
        raise ContractError("provenance credits no dimensions")
    return NodeFractionMap([Fraction(w, credited) for w in wins])


def _node_text(tree: ParseTree, v: int) -> str:
    node = tree.nodes[v]
    if node.word is not None:
        return node.word
    if node.label is not None:
        return str(node.label)
    return "*"


def emit_dot(tree: ParseTree, fracs: NodeFractionMap) -> str:
    """DOT digraph: nodes labeled `word (fraction)`, fill saturation
    monotone in the fraction, dependency edges labeled with relations."""
    if len(fracs) != len(tree.nodes):
        raise ContractError("fraction map does not cover the tree")
    lines = ["digraph sentence {", '  node [style=filled, shape=box];']
    for v in range(len(tree.nodes)):
        frac = float(fracs.fractions[v])
        text = _escape(_node_text(tree, v))
        color = f"0.580 {frac:.4f} 1.000"  # HSV: saturation tracks fraction
        lines.append(
            f'  n{v} [label="{text} ({frac:.2f})", fillcolor="{color}"];'
        )
    for v, node in enumerate(tree.nodes):
        for c in node.children:
            if tree.kind == DEPENDENCY:
                rel = _escape(tree.nodes[c].dep_relation or "")
                lines.append(f'  n{v} -> n{c} [label="{rel}"];')
            else:
                lines.append(f"  n{v} -> n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def emit_json(tree: ParseTree, fracs: NodeFractionMap) -> str:
    """Nested-object encoding of shape, words, relations and fractions.

    Zero fractions are written as 0.0 rather than omitted, and the
    float values round-trip exactly through a standard JSON parser.
    """
    return "".join(json_pieces(tree, fracs))


def json_pieces(tree: ParseTree, fracs: NodeFractionMap) -> Iterator[str]:
    """The text of `emit_json` in pieces, a few per walk event: what
    `json.dumps(..., indent=2)` gives for the nested objects, at any
    depth and without holding it all."""
    if len(fracs) != len(tree.nodes):
        raise ContractError("fraction map does not cover the tree")
    yield f'{{\n  "kind": {json.dumps(tree.kind)},\n  "root": '
    level, left = 1, False  # the open object's indent; the last event a leave
    for v, entering in tree.walk():
        node = tree.nodes[v]
        if entering and v != tree.root:
            level += 2
            yield ("," if left else "") + "\n" + "  " * level
        pad = "\n" + "  " * (level + 1)  # the object's fields
        if entering:
            fields = zip(("word", "label", "relation", "position", "fraction"),
                         (node.word, node.label, node.dep_relation,
                          node.position, float(fracs.fractions[v])))
            yield "{" + "".join(f'{pad}"{key}": {json.dumps(value)},'
                                for key, value in fields) \
                + f'{pad}"children": ' + ("[" if node.children else "[]")
        else:
            yield (pad + "]" if node.children else "") + pad[:-2] + "}"
            level -= 2
        left = not entering
    yield "\n}"
