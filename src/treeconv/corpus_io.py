"""Parse-tree, label, and embedding file readers with the unified
in-memory sentence representation.

Constituency input is one bracketed tree per line (treebank style, with
optional integer sentiment tags on constituents).  The reader is one
loop over regex tokens with an explicit stack, and it binarizes each
constituent as it closes, so a line of any depth or width parses in
linear time.  Dependency input is CoNLL-X blocks separated by blank
lines.  Embeddings use the word2vec text format: a "count dim" header
followed by "token v1 .. v_dim" rows.
"""

from __future__ import annotations

import os
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ContractError, DataError, FormatError, ParseError,
                     StructureError)

CONSTITUENCY = "constituency"
DEPENDENCY = "dependency"

# Fixed seed for the synthetic UNK row so corpora load reproducibly.
_UNK_SEED = 90210
# values per np.loadtxt call in load_embeddings: ~109 rows of 300, so a
# block's text and parsed array add under 1 MiB to the loader's peak
# memory, even with 17-digit values
PARSE_BLOCK_VALUES = 2**15
# relations with a dedicated weight slot in a dependency inventory
MAX_DEDICATED = 15


@dataclass
class TreeNode:
    word: Optional[str] = None
    embedding_index: Optional[int] = None
    children: List[int] = field(default_factory=list)
    dep_relation: Optional[str] = None
    depth_layer: int = 0
    position: Optional[int] = None  # 1-based word position (dependency only)
    label: Optional[int] = None     # sentiment tag on constituents


@dataclass
class ParseTree:
    kind: str
    nodes: List[TreeNode]
    root: int
    sentence_label: Optional[int] = None

    def __len__(self) -> int:
        return len(self.nodes)

    def depth(self) -> int:
        return max(n.depth_layer for n in self.nodes)

    def walk(self, v: Optional[int] = None) -> Iterator[Tuple[int, bool]]:
        """Depth-first events over the subtree at v (the root by default):
        (node, True) on entering a node, (node, False) on leaving it.

        The entering events come in pre-order and the leaving events in
        left-to-right post-order; entered minus left nodes is the depth
        below v.  The walk keeps its own stack, so trees of any depth are
        fine, and it reads the child lists afresh on every call.
        """
        stack = [(self.root if v is None else v, True)]
        while stack:
            event = stack.pop()
            yield event
            u, entering = event
            if entering:
                stack.append((u, False))
                for c in reversed(self.nodes[u].children):
                    stack.append((c, True))

    def leaf_indices(self) -> List[int]:
        """Childless nodes in left-to-right order (a constituency tree's
        node order, which `validate_tree` checks is the pre-order)."""
        order = range(len(self.nodes))
        if self.kind == DEPENDENCY:
            order = sorted(order, key=lambda v: self.nodes[v].position)
        return [v for v in order if not self.nodes[v].children]

    def words(self) -> List[str]:
        """Sentence tokens in surface order."""
        if self.kind == DEPENDENCY:
            order = sorted(self.nodes, key=lambda n: n.position)
            return [n.word for n in order]
        return [self.nodes[v].word for v in self.leaf_indices()]

    def word_count(self) -> int:
        return len(self.words())


def validate_tree(tree: ParseTree) -> None:
    """Check the structural invariants; raises StructureError on breach."""
    n = len(tree.nodes)
    if n == 0:
        raise StructureError("tree has no nodes")
    parent = [None] * n
    for v, node in enumerate(tree.nodes):
        for c in node.children:
            if parent[c] is not None:
                raise StructureError(f"node {c} has two parents")
            parent[c] = v
    roots = [v for v in range(n) if parent[v] is None]
    if roots != [tree.root]:
        raise StructureError(f"expected single root {tree.root}, found {roots}")
    seen = 0
    queue = deque([tree.root])
    while queue:
        v = queue.popleft()
        seen += 1
        node = tree.nodes[v]
        expect = 1 if v == tree.root else tree.nodes[parent[v]].depth_layer + 1
        if node.depth_layer != expect:
            raise StructureError(f"node {v} depth_layer {node.depth_layer} != {expect}")
        queue.extend(node.children)
    if seen != n:
        raise StructureError("child links do not form a tree")
    if tree.kind == DEPENDENCY:
        positions = sorted(node.position for node in tree.nodes)
        if positions != list(range(1, n + 1)):
            raise StructureError(f"word positions {positions} are not 1..{n}")
        for v, node in enumerate(tree.nodes):
            has_rel = node.dep_relation is not None
            if (v != tree.root) != has_rel:
                raise StructureError(f"node {v}: dep_relation presence is wrong")
    else:
        for v, node in enumerate(tree.nodes):
            if len(node.children) > 2:
                raise StructureError(f"node {v} has {len(node.children)} children")
        # numbered in pre-order, so a sub-sentence is a run of rows
        for turn, v in enumerate(u for u, entering in tree.walk() if entering):
            if v != turn:
                raise StructureError(f"node {v} is not numbered in pre-order")


# ---------------------------------------------------------------------------
# constituency trees
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\(\s*([^\s()]*)|\)|[^\s()]+")  # '(' with its tag, ')', word


def _parse_label(head: str) -> Optional[int]:
    try:
        return int(head)
    except ValueError:
        return None


def parse_constituency(text: str) -> ParseTree:
    """Parse one bracketed tree, binarizing n-ary constituents.

    Nodes with three or more children become right-branching chains of
    unlabeled auxiliary nodes; unary constituents are kept as-is.  Leaf
    order is preserved exactly.  Nodes are numbered in pre-order.
    """
    nodes: List[TreeNode] = []  # in closing order: children before parents
    stack = []  # open constituents: (offset of '(', tag, child nodes, words)
    for m in _TOKEN.finditer(text):
        at = m.start()
        if not stack:
            if nodes:
                raise ParseError(f"trailing content {text[at]!r}", offset=at)
            if text[at] != "(":
                raise ParseError(f"expected '(' but found {text[at]!r}",
                                 offset=at)
        if text[at] == "(":
            stack.append((at, m.group(1), [], []))
            continue
        if text[at] != ")":
            stack[-1][3].append(m.group())
            continue
        open_at, head, kids, words = stack.pop()
        if kids and words:
            raise ParseError("constituent mixes words and subtrees",
                             offset=open_at)
        if len(words) > 1:
            raise ParseError("constituent has more than one terminal",
                             offset=open_at)
        if not kids and not words:
            raise ParseError("empty constituent", offset=open_at)
        if len(kids) > 2:  # (a b c d) -> (a (X b (X c d)))
            tail = kids[-1]
            for k in reversed(kids[1:-1]):
                nodes.append(TreeNode(children=[k, tail]))
                tail = len(nodes) - 1
            kids = [kids[0], tail]
        nodes.append(TreeNode(word=words[0] if words else None,
                              children=kids, label=_parse_label(head)))
        if stack:
            stack[-1][2].append(len(nodes) - 1)
    if stack:
        raise ParseError("unbalanced '('", offset=stack[-1][0])
    if not nodes:
        raise ParseError("empty tree", offset=len(text))
    return subtree_at(ParseTree(kind=CONSTITUENCY, nodes=nodes,
                                root=len(nodes) - 1), len(nodes) - 1)


def serialize_constituency(tree: ParseTree) -> str:
    """Bracketed form of a (binarized) constituency tree.

    Unlabeled constituents serialize with the placeholder tag "X", which
    reads back as no label; re-parsing yields an isomorphic tree.
    """
    if tree.kind != CONSTITUENCY:
        raise ContractError("serialize_constituency needs a constituency tree")
    parts: List[str] = []
    for v, entering in tree.walk():
        node = tree.nodes[v]
        if entering:
            head = "X" if node.label is None else str(node.label)
            if v != tree.root:
                parts.append(" ")
            parts.append(f"({head}" if node.children
                         else f"({head} {node.word})")
        elif node.children:
            parts.append(")")
    return "".join(parts)


def subtree_at(tree: ParseTree, v: int) -> ParseTree:
    """Copy of the subtree rooted at node v as an independent tree, its
    nodes numbered in pre-order with depth_layer counted from 1 (the
    parser numbers its trees with it; training reads these nodes in
    place, as a span)."""
    nodes: List[TreeNode] = []
    path: List[TreeNode] = []  # copies of the nodes entered and not yet left
    for u, entering in tree.walk(v):
        if not entering:
            path.pop()
            continue
        src = tree.nodes[u]
        copy = TreeNode(word=src.word, embedding_index=src.embedding_index,
                        depth_layer=len(path) + 1, label=src.label)
        if path:
            path[-1].children.append(len(nodes))
        path.append(copy)
        nodes.append(copy)
    return ParseTree(kind=tree.kind, nodes=nodes, root=0,
                     sentence_label=tree.nodes[v].label)


def tagged_constituents(tree: ParseTree) -> List[int]:
    """The nodes that carry a tag, in node order: the roots of the
    sub-sentence samples."""
    if tree.kind != CONSTITUENCY:
        raise ContractError("sub-sentence extraction needs constituency trees")
    return [v for v, node in enumerate(tree.nodes) if node.label is not None]


def extract_subsentences(tree: ParseTree) -> List[ParseTree]:
    """Every tagged constituent as an independent labeled sample (a
    `subtree_at` copy), the whole sentence included when its root
    carries a tag.  `trainer.train` reads them in place, as spans; the
    benchmark counts samples with this."""
    return [subtree_at(tree, v) for v in tagged_constituents(tree)]


def read_constituency_file(source) -> List[ParseTree]:
    """One bracketed tree per non-blank line."""
    trees = []
    for lineno, line in enumerate(_as_lines(source), start=1):
        if not line.strip():
            continue
        try:
            trees.append(parse_constituency(line))
        except ParseError as e:
            raise ParseError(f"{e} (tree at line {lineno})") from e
    if not trees:
        raise ParseError("no trees in input", line=1)
    return trees


# ---------------------------------------------------------------------------
# dependency trees
# ---------------------------------------------------------------------------

def parse_dependency(block) -> ParseTree:
    """Parse one CoNLL-X record block into a dependency tree.

    Columns used: 1 = token id (1-based, contiguous), 2 = word form,
    7 = head id (0 marks the root), 8 = relation.  Lines need at least
    8 tab-separated columns.
    """
    if isinstance(block, str):
        lines = block.splitlines()
    else:
        lines = list(block)
    rows: List[Tuple[int, str, int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 8:
            raise ParseError(
                f"CoNLL line has {len(cols)} columns, need at least 8",
                line=lineno,
            )
        try:
            tok_id = int(cols[0])
            head = int(cols[6])
        except ValueError:
            raise ParseError("CoNLL id/head is not an integer", line=lineno)
        rows.append((tok_id, cols[1], head, cols[7]))
    if not rows:
        raise ParseError("empty CoNLL block", line=1)

    n = len(rows)
    ids = [r[0] for r in rows]
    if ids != list(range(1, n + 1)):
        raise ParseError(f"token ids {ids} are not contiguous 1..{n}")

    roots = [tok_id for tok_id, _, head, _ in rows if head == 0]
    if len(roots) != 1:
        raise StructureError(f"expected exactly one root token, found ids {roots}")

    nodes = []
    for tok_id, word, head, rel in rows:
        if not 0 <= head <= n:
            raise StructureError(f"token {tok_id} has head {head} outside 0..{n}")
        nodes.append(TreeNode(word=word, position=tok_id,
                              dep_relation=None if head == 0 else rel))
    for tok_id, _, head, _ in rows:
        if head != 0:
            nodes[head - 1].children.append(tok_id - 1)

    root = roots[0] - 1
    seen = set()
    queue = deque([root])
    nodes[root].depth_layer = 1
    while queue:
        v = queue.popleft()
        seen.add(v)
        for c in nodes[v].children:
            nodes[c].depth_layer = nodes[v].depth_layer + 1
            queue.append(c)
    if len(seen) != n:
        stranded = sorted(v + 1 for v in range(n) if v not in seen)
        raise StructureError(f"head cycle involving token ids {stranded}")

    return ParseTree(kind=DEPENDENCY, nodes=nodes, root=root)


def serialize_dependency(tree: ParseTree) -> str:
    """CoNLL-X block for a dependency tree (unused columns padded with _)."""
    if tree.kind != DEPENDENCY:
        raise ContractError("serialize_dependency needs a dependency tree")
    head_of = {}
    for v, node in enumerate(tree.nodes):
        for c in node.children:
            head_of[c] = v
    lines = []
    for v in sorted(range(len(tree.nodes)), key=lambda v: tree.nodes[v].position):
        node = tree.nodes[v]
        if v == tree.root:
            head, rel = 0, "root"
        else:
            head = tree.nodes[head_of[v]].position
            rel = node.dep_relation
        lines.append(f"{node.position}\t{node.word}\t_\t_\t_\t_\t{head}\t{rel}")
    return "\n".join(lines)


def read_dependency_file(source) -> List[ParseTree]:
    """CoNLL blocks separated by blank lines."""
    trees = []
    block: List[str] = []
    start_line = 1
    for lineno, line in enumerate(_as_lines(source), start=1):
        if line.strip():
            if not block:
                start_line = lineno
            block.append(line)
        elif block:
            trees.append(_parse_block(block, start_line))
            block = []
    if block:
        trees.append(_parse_block(block, start_line))
    if not trees:
        raise ParseError("no CoNLL blocks in input", line=1)
    return trees


def _parse_block(block: List[str], start_line: int) -> ParseTree:
    try:
        return parse_dependency(block)
    except (ParseError, StructureError) as e:
        raise type(e)(f"{e} (block starting at line {start_line})") from e


def _as_lines(source) -> Iterable[str]:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


# ---------------------------------------------------------------------------
# vocabulary and embeddings
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    """Dense token-to-index map with a reserved UNK index."""

    index: Dict[str, int]
    unk_index: int

    def __len__(self) -> int:
        return len(self.index) + 1

    def lookup(self, token: str) -> int:
        """Exact match first, then lowercased, then UNK."""
        idx = self.index.get(token)
        if idx is not None:
            return idx
        idx = self.index.get(token.lower())
        if idx is not None:
            return idx
        return self.unk_index

    def tokens_in_order(self) -> List[str]:
        ordered = [None] * len(self.index)
        for tok, i in self.index.items():
            ordered[i] = tok
        return ordered


@dataclass
class EmbeddingTable:
    """Vocabulary-indexed word vectors; row `unk_index` backs OOV tokens."""

    vectors: np.ndarray  # (size, dim) float64

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def row(self, index: int) -> np.ndarray:
        return self.vectors[index]


def _parse_rows(rows: np.ndarray, texts: List[str],
                row_lines: List[int]) -> None:
    """Parse `texts`, the value text of the last len(texts) rows read
    (on lines `row_lines[-len(texts):]`), into those rows of `rows`, and
    empty `texts`.

    One `np.loadtxt` call reads the block.  If it fails, or reads the
    wrong width, the rows are read one at a time, so the first bad line
    raises FormatError with its number.
    """
    if not texts:
        return
    start = len(row_lines) - len(texts)
    out = rows[start:len(row_lines)]
    try:
        values = np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is not None and values.shape == out.shape:
        out[:] = values
    else:
        for i, (text, lineno) in enumerate(zip(texts, row_lines[start:])):
            _check_arity(text, out.shape[1], lineno)
            try:
                out[i] = np.loadtxt([text], dtype=np.float64, comments=None)
            except ValueError:
                raise FormatError("embedding value is not a number", line=lineno)
    texts.clear()


def _check_arity(text: str, dim: int, lineno: int) -> None:
    found = len(text.split())
    if found != dim:
        raise FormatError(f"embedding row has {found} values, expected {dim}",
                          line=lineno)


def load_embeddings(source) -> Tuple[Vocabulary, EmbeddingTable]:
    """Read word2vec text format; appends a fixed-seed UNK row.

    The header line is "count dim"; each following line is a token and
    dim whitespace-separated values.  `np.loadtxt` parses the values a
    block of rows at a time, as `float()` reads them ("1e-3", "nan" and
    "inf" included) except that digit underscores ("1_0") and non-ASCII
    digits are not numbers.  A faulty row raises FormatError with its
    line number: the first faulty line wins, and within a line a wrong
    arity is named first, then a duplicate token, then a row past the
    header's count, then a value that is not a number.  Values that are
    not finite are checked last, over the whole table.
    """
    lines = iter(_as_lines(source))
    try:
        header = next(lines)
    except StopIteration:
        raise FormatError("empty embedding file", line=1)
    parts = header.split()
    if len(parts) != 2:
        raise FormatError("embedding header must be 'count dim'", line=1)
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError("embedding header must be 'count dim'", line=1)
    if count < 1 or dim < 1:
        raise FormatError("embedding header counts must be positive", line=1)

    index: Dict[str, int] = {}
    rows = np.empty((count + 1, dim), dtype=np.float64)
    row_lines: List[int] = []
    # the value text of the last rows read, not yet parsed: one loadtxt
    # call per block of rows, not one float() per value
    block: List[str] = []
    block_rows = max(1, PARSE_BLOCK_VALUES // dim)
    lineno = 1
    for raw in lines:
        lineno += 1
        parts = raw.split(None, 1)
        if not parts:
            continue
        token, text = parts[0], parts[1] if len(parts) > 1 else ""
        if not text or token in index or len(row_lines) >= count:
            _parse_rows(rows, block, row_lines)  # earlier lines' faults first
            _check_arity(text, dim, lineno)
            if token in index:
                raise FormatError(f"duplicate token {token!r}", line=lineno)
            raise FormatError("more rows than the header promised", line=lineno)
        index[token] = len(row_lines)
        row_lines.append(lineno)
        block.append(text)
        if len(block) == block_rows:
            _parse_rows(rows, block, row_lines)
    _parse_rows(rows, block, row_lines)
    loaded = len(row_lines)
    if loaded != count:
        raise FormatError(f"header promised {count} rows, found {loaded}",
                          line=lineno)
    # one pass over the table: checking each row as it is parsed took
    # ~40 ms against ~8 ms for 20k rows of 300 (2-core Xeon)
    finite = np.isfinite(rows[:count]).all(axis=1)
    if not finite.all():
        raise FormatError("embedding value is not finite",
                          line=row_lines[int(np.argmin(finite))])

    rng = np.random.default_rng(_UNK_SEED)
    rows[count] = rng.uniform(-0.01, 0.01, size=dim)
    return Vocabulary(index=index, unk_index=count), EmbeddingTable(rows)


def vocabulary_from_corpus(trees: Sequence[ParseTree]) -> Vocabulary:
    """Vocabulary over every word in the corpus, in first-seen order."""
    index: Dict[str, int] = {}
    for tree in trees:
        for node in tree.nodes:
            if node.word is not None and node.word not in index:
                index[node.word] = len(index)
    return Vocabulary(index=index, unk_index=len(index))


def random_embeddings(vocab: Vocabulary, dim: int, seed: int) -> EmbeddingTable:
    """Uniform(-0.1, 0.1) embedding rows for corpora without a vector file."""
    rng = np.random.default_rng(seed)
    return EmbeddingTable(rng.uniform(-0.1, 0.1, size=(len(vocab), dim)))


def bind_vocabulary(tree: ParseTree, vocab: Vocabulary) -> None:
    """Fill embedding_index on every word-bearing node."""
    for node in tree.nodes:
        if node.word is not None:
            node.embedding_index = vocab.lookup(node.word)


# ---------------------------------------------------------------------------
# dependency-type inventory
# ---------------------------------------------------------------------------

@dataclass
class DepTypeInventory:
    """Relation-to-weight-slot map: the `dedicated` slots, then SHARED."""

    dedicated: Tuple[str, ...]
    slot_ids: Dict[str, int] = field(init=False)
    shared_slot: int = field(init=False)

    def __post_init__(self):
        self.slot_ids = {rel: i for i, rel in enumerate(self.dedicated)}
        self.shared_slot = len(self.dedicated)

    @property
    def n_slots(self) -> int:
        return self.shared_slot + 1

    def slot_of(self, relation: Optional[str]) -> int:
        if relation is None:
            return self.shared_slot
        return self.slot_ids.get(relation, self.shared_slot)


def build_dep_inventory(trees: Sequence[ParseTree]) -> DepTypeInventory:
    """Dedicated slots for the MAX_DEDICATED most frequent relations,
    SHARED for the rest.  Frequency ties break lexicographically (smaller
    relation name wins).  Corpora with fewer distinct relations dedicate
    them all; SHARED always exists."""
    counts: Counter = Counter()
    for tree in trees:
        if tree.kind != DEPENDENCY:
            raise ContractError("dependency inventory needs dependency trees")
        for v, node in enumerate(tree.nodes):
            if v != tree.root:
                counts[node.dep_relation] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return DepTypeInventory(tuple(rel for rel, _ in ranked[:MAX_DEDICATED]))


# ---------------------------------------------------------------------------
# label files
# ---------------------------------------------------------------------------

def read_label_file(source) -> List[Tuple[str, int]]:
    """Lines of "LABEL<TAB>sentence-id"; ids are 0-based tree positions,
    each labelled at most once."""
    pairs = []
    first_line: Dict[int, int] = {}
    for lineno, raw in enumerate(_as_lines(source), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise FormatError("label line must be 'LABEL<TAB>sentence-id'",
                              line=lineno)
        try:
            sid = int(cols[1])
        except ValueError:
            raise FormatError("sentence-id is not an integer", line=lineno)
        if sid in first_line:
            raise FormatError(f"sentence {sid} is labelled twice, first at "
                              f"line {first_line[sid]}", line=lineno)
        first_line[sid] = lineno
        pairs.append((cols[0], sid))
    if not pairs:
        raise FormatError("empty label file", line=1)
    return pairs


def attach_labels(trees: Sequence[ParseTree], pairs: Sequence[Tuple[str, int]],
                  names: Optional[Sequence[str]] = None) -> List[str]:
    """Assign class indices to the named trees: label `names[i]` is
    class i.  Without `names` the pairs' own label names, sorted, are
    the classes; a label outside `names` is a DataError.

    Returns the class-name list defining the index order.
    """
    names = sorted({label for label, _ in pairs}) if names is None else list(names)
    class_of = {name: i for i, name in enumerate(names)}
    for label, sid in pairs:
        if label not in class_of:
            raise DataError(f"label {label!r} is not one of the classes {names}")
        if not 0 <= sid < len(trees):
            raise StructureError(
                f"label refers to sentence {sid} but corpus has {len(trees)}"
            )
        trees[sid].sentence_label = class_of[label]
    return names
