import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconv.corpus_io import (
    CONSTITUENCY,
    DEPENDENCY,
    DepTypeInventory,
    EmbeddingTable,
    ParseTree,
    TreeNode,
    Vocabulary,
    attach_labels,
    bind_vocabulary,
    build_dep_inventory,
    extract_subsentences,
    load_embeddings,
    parse_constituency,
    parse_dependency,
    random_embeddings,
    read_constituency_file,
    read_dependency_file,
    read_label_file,
    serialize_constituency,
    serialize_dependency,
    validate_tree,
    vocabulary_from_corpus,
)
from treeconv.errors import (
    ContractError,
    DataError,
    FormatError,
    ParseError,
    StructureError,
)

I_LOVED_IT_CONLL = (
    "1\tI\t_\t_\t_\t_\t2\tnsubj\n"
    "2\tloved\t_\t_\t_\t_\t0\troot\n"
    "3\tit\t_\t_\t_\t_\t2\tdobj\n"
)


def leaf_words(tree):
    return [tree.nodes[v].word for v in tree.leaf_indices()]


class TestParseConstituency:
    def test_i_loved_it(self):
        tree = parse_constituency("(3 (2 I) (3 (3 loved) (2 it)))")
        assert tree.kind == CONSTITUENCY
        assert len(tree) == 5
        assert tree.nodes[tree.root].label == 3
        assert tree.sentence_label == 3
        assert leaf_words(tree) == ["I", "loved", "it"]
        validate_tree(tree)

    def test_minimal_single_leaf(self):
        tree = parse_constituency("(0 (1 w))")
        assert len(tree) == 2
        assert tree.depth() == 2
        assert tree.nodes[tree.root].label == 0
        assert leaf_words(tree) == ["w"]

    def test_binarization_preserves_leaf_order(self):
        text = "(9 (1 a) (2 b) (3 c) (4 d))"
        flat_leaves = ["a", "b", "c", "d"]  # in-order sequence before binarizing
        tree = parse_constituency(text)
        assert leaf_words(tree) == flat_leaves
        for node in tree.nodes:
            if node.children:
                assert len(node.children) == 2
        validate_tree(tree)

    def test_unbalanced_brackets_report_offset(self):
        with pytest.raises(ParseError) as err:
            parse_constituency("(3 (2 I) (3 (3 loved) (2 it))")
        assert "offset" in str(err.value)

    @pytest.mark.parametrize("text,message,offset", [
        ("(1 a))", "trailing content ')'", 5),
        ("(1 (2 a) (3 b", "unbalanced '('", 9),  # the innermost open
        ("(1 (2 a)) (3 b)", "trailing content '('", 10),
        ("()", "empty constituent", 0),
        ("(1)", "empty constituent", 0),
        ("(1 a b)", "constituent has more than one terminal", 0),
        ("(1 (2 a) b)", "constituent mixes words and subtrees", 0),
        ("x", "expected '(' but found 'x'", 0),
        ("(1 (2 a b) (3", "constituent has more than one terminal", 3),
        ("   ", "empty tree", 3),
    ])
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(ParseError) as err:
            parse_constituency(text)
        assert err.value.offset == offset
        assert str(err.value) == f"{message} (at character offset {offset})"

    def test_deep_and_wide_lines_parse(self):
        n = 5000
        deep = parse_constituency("(1 " + "(X " * n + "w" + ")" * (n + 1))
        assert len(deep) == n + 1 and deep.depth() == n + 1
        assert [node.word for node in deep.nodes] == [None] * n + ["w"]
        wide = parse_constituency(
            "(1 " + " ".join(f"(2 w{i})" for i in range(n)) + ")")
        assert leaf_words(wide) == [f"w{i}" for i in range(n)]
        # n leaves, the root and a right-branching chain of n - 2 nodes
        assert len(wide) == 2 * n - 1 and wide.depth() == n
        validate_tree(deep)
        validate_tree(wide)
        again = parse_constituency(serialize_constituency(wide))
        assert [(v.word, v.children, v.label) for v in again.nodes] == \
            [(v.word, v.children, v.label) for v in wide.nodes]

    def test_empty_tree_rejected(self):
        with pytest.raises(ParseError):
            parse_constituency("   ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_constituency("(1 w) extra")

    def test_symbolic_tags_carry_no_label(self):
        tree = parse_constituency("(S (NP (DT the) (NN cat)) (VP slept))")
        assert tree.nodes[tree.root].label is None
        assert leaf_words(tree) == ["the", "cat", "slept"]

    def test_depth_layers(self):
        tree = parse_constituency("(3 (2 I) (3 (3 loved) (2 it)))")
        assert tree.nodes[tree.root].depth_layer == 1
        for v, node in enumerate(tree.nodes):
            for c in node.children:
                assert tree.nodes[c].depth_layer == node.depth_layer + 1
        assert tree.depth() == 3

    def test_serialized_form(self):
        tree = parse_constituency("(4 (2 (1 a) (2 b) (0 c)) (S e))")
        assert serialize_constituency(tree) == \
            "(4 (2 (1 a) (X (2 b) (0 c))) (X e))"

    def test_round_trip_is_isomorphic(self):
        text = "(4 (2 (1 a) (2 b) (0 c) (3 d)) (2 e))"
        tree = parse_constituency(text)
        again = parse_constituency(serialize_constituency(tree))
        assert _con_shape(tree, tree.root) == _con_shape(again, again.root)


def _con_shape(tree, v):
    node = tree.nodes[v]
    return (node.word, node.label,
            tuple(_con_shape(tree, c) for c in node.children))


class TestParseDependency:
    def test_i_loved_it(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        assert tree.kind == DEPENDENCY
        root = tree.nodes[tree.root]
        assert root.word == "loved"
        kids = [tree.nodes[c] for c in root.children]
        assert [k.word for k in kids] == ["I", "it"]
        assert [k.dep_relation for k in kids] == ["nsubj", "dobj"]
        assert root.dep_relation is None
        validate_tree(tree)

    def test_single_token(self):
        tree = parse_dependency("1\tYes\t_\t_\t_\t_\t0\troot\n")
        assert len(tree) == 1
        assert tree.nodes[0].depth_layer == 1

    def test_head_cycle_names_tokens(self):
        block = (
            "1\ta\t_\t_\t_\t_\t2\tdep\n"
            "2\tb\t_\t_\t_\t_\t1\tdep\n"
            "3\tc\t_\t_\t_\t_\t0\troot\n"
        )
        with pytest.raises(StructureError) as err:
            parse_dependency(block)
        assert "1" in str(err.value) and "2" in str(err.value)

    def test_multiple_roots_rejected(self):
        block = (
            "1\ta\t_\t_\t_\t_\t0\troot\n"
            "2\tb\t_\t_\t_\t_\t0\troot\n"
        )
        with pytest.raises(StructureError):
            parse_dependency(block)

    def test_non_contiguous_ids_rejected(self):
        block = (
            "1\ta\t_\t_\t_\t_\t0\troot\n"
            "3\tb\t_\t_\t_\t_\t1\tdep\n"
        )
        with pytest.raises(ParseError):
            parse_dependency(block)

    def test_narrow_line_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dependency("1\ta\t0\troot\n")

    def test_positions_cover_1_to_n(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        assert sorted(n.position for n in tree.nodes) == [1, 2, 3]

    def test_round_trip_is_isomorphic(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        again = parse_dependency(serialize_dependency(tree))
        assert _dep_shape(tree) == _dep_shape(again)

    def test_depth_layers(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        assert tree.nodes[tree.root].depth_layer == 1
        assert tree.depth() == 2


def _dep_shape(tree):
    def walk(v):
        node = tree.nodes[v]
        return (node.word, node.position, node.dep_relation,
                tuple(walk(c) for c in node.children))
    return walk(tree.root)


class TestFiles:
    def test_constituency_file(self, tmp_path):
        p = tmp_path / "trees.txt"
        p.write_text("(1 (0 a) (1 b))\n\n(0 (0 c))\n")
        trees = read_constituency_file(p)
        assert len(trees) == 2

    def test_dependency_file_blocks(self):
        text = I_LOVED_IT_CONLL + "\n" + "1\tYes\t_\t_\t_\t_\t0\troot\n"
        trees = read_dependency_file(io.StringIO(text))
        assert [len(t) for t in trees] == [3, 1]

    def test_dependency_file_error_names_block_line(self):
        text = I_LOVED_IT_CONLL + "\n" + "1\ta\t_\t_\t_\t_\t5\tdep\n"
        with pytest.raises(StructureError, match="line 5"):
            read_dependency_file(io.StringIO(text))


class TestEmbeddings:
    def test_small_file(self):
        src = io.StringIO("2 3\nhello 1 2 3\nworld 4 5 6\n")
        vocab, table = load_embeddings(src)
        assert len(vocab) == 3  # two tokens plus UNK
        assert table.vectors.shape == (3, 3)
        assert np.array_equal(table.row(vocab.lookup("hello")), [1.0, 2.0, 3.0])

    def test_dim_comes_from_header(self):
        row = "tok " + " ".join(["0.5"] * 300)
        vocab, table = load_embeddings(io.StringIO(f"1 300\n{row}\n"))
        assert table.dim == 300

    def test_unseen_token_maps_to_unk_row(self):
        vocab, table = load_embeddings(io.StringIO("1 2\nknown 1 1\n"))
        idx = vocab.lookup("never-seen")
        assert idx == vocab.unk_index
        assert np.all(np.abs(table.row(idx)) <= 0.01)

    def test_unk_row_is_reproducible(self):
        _, t1 = load_embeddings(io.StringIO("1 2\na 1 1\n"))
        _, t2 = load_embeddings(io.StringIO("1 2\na 1 1\n"))
        assert np.array_equal(t1.row(1), t2.row(1))

    def test_wrong_arity_names_line(self):
        src = io.StringIO("2 3\nok 1 2 3\nbad 1 2\n")
        with pytest.raises(FormatError, match="line 3"):
            load_embeddings(src)

    @pytest.mark.parametrize("text,line", [
        ("2 3\na 0.1 nan 0.2\nb inf 0 1\n", 2),
        ("2 3\na 0.1 0.3 0.2\nb 1 -inf 1\n", 3),
    ])
    def test_non_finite_value_names_line(self, text, line):
        with pytest.raises(FormatError, match=f"not finite.*line {line}"):
            load_embeddings(io.StringIO(text))

    @pytest.mark.parametrize("text,message,line", [
        ("", "empty embedding file", 1),
        ("3\n", "embedding header must be 'count dim'", 1),
        ("2 3 4\n", "embedding header must be 'count dim'", 1),
        ("two 3\n", "embedding header must be 'count dim'", 1),
        ("2 3.0\n", "embedding header must be 'count dim'", 1),
        ("0 3\n", "embedding header counts must be positive", 1),
        ("2 -1\n", "embedding header counts must be positive", 1),
        ("2 3\na 1 2 3\nb 1 x 3\n", "embedding value is not a number", 3),
        # float() reads these, the loader does not
        ("2 3\na 1 2 3\nb 1 1_0 3\n", "embedding value is not a number", 3),
        ("2 3\na 1 2 3\nb 1 \uff11 3\n", "embedding value is not a number", 3),
        ("2 3\na 1 2 3\nb 1 2 3 4\n", "embedding row has 4 values, expected 3", 3),
        ("2 3\na 1 2 3\nb\n", "embedding row has 0 values, expected 3", 3),
        ("2 3\na 1 2 3\na 4 5 6\n", "duplicate token 'a'", 3),
        ("1 3\na 1 2 3\nb 4 5 6\n", "more rows than the header promised", 3),
        ("3 3\na 1 2 3\nb 4 5 6\n", "header promised 3 rows, found 2", 3),
        ("3 3\na 1 2 3\n\nb 4 5 6\n\n", "header promised 3 rows, found 2", 5),
        # a blank line still counts toward line numbers
        ("2 3\na 1 2 3\n\n  \nb 1 2\n", "embedding row has 2 values, expected 3", 5),
        # two faulty lines: the earlier one is named
        ("4 3\na 1 2 3\nb 1 x 3\nc 1 2 3\na 1 2 3\n",
         "embedding value is not a number", 3),
        ("4 3\na 1 2 3\na 1 2 3\nc 1 2 3\nd 1 x 3\n", "duplicate token 'a'", 3),
        ("2 3\na 1 2 3\nb 1 x 3\nc 1 2 3\n", "embedding value is not a number", 3),
        ("3 3\na 1 2 3\nb 1 x 3\nc 1 2\n", "embedding value is not a number", 3),
        ("2 3\na nan 2 3\nb 1 x 3\n", "embedding value is not a number", 3),
        ("3 3\na nan 2 3\nb 1 2 3\n", "header promised 3 rows, found 2", 3),
        # two faults on one line: arity, then duplicate, then more rows
        # than promised, then not a number
        ("2 3\na 1 2 3\na 1 2\n", "embedding row has 2 values, expected 3", 3),
        ("1 3\na 1 2 3\nb 1 2\n", "embedding row has 2 values, expected 3", 3),
        ("2 3\na 1 2 3\na 1 x 3\n", "duplicate token 'a'", 3),
        ("1 3\na 1 2 3\na 4 5 6\n", "duplicate token 'a'", 3),
        ("1 3\na 1 2 3\nb 1 x 3\n", "more rows than the header promised", 3),
        ("2 3\na 1 x\nb 1 2\n", "embedding row has 2 values, expected 3", 2),
    ])
    def test_fault_names_its_line(self, text, message, line):
        with pytest.raises(FormatError) as info:
            load_embeddings(io.StringIO(text))
        assert str(info.value) == f"{message} (at line {line})"
        assert info.value.line == line

    @pytest.mark.parametrize("row,message", [
        ("w700" + " 0.25" * 299 + " x", "embedding value is not a number"),
        ("w700" + " 0.25" * 299 + " nan", "embedding value is not finite"),
        ("w700" + " 0.25" * 299, "embedding row has 299 values, expected 300"),
        ("w700" + " 0.25" * 301, "embedding row has 301 values, expected 300"),
        ("w3" + " 0.25" * 300, "duplicate token 'w3'"),
    ])
    def test_fault_past_the_first_rows_names_its_line(self, row, message):
        # 1000 rows of 300 values: more than one parse block
        rows = [f"w{i}" + " 0.25" * 300 for i in range(1000)]
        rows[700] = row
        text = "1000 300\n" + "\n".join(rows) + "\n"
        with pytest.raises(FormatError) as info:
            load_embeddings(io.StringIO(text))
        assert str(info.value) == f"{message} (at line 702)"

    def test_tabs_runs_of_spaces_and_crlf_load_the_plain_table(self):
        plain = "3 3\nhello 1 2 3\nworld -4.5 5e-3 6\nagain 0 -0 7.25\n"
        messy = ("3 3\r\nhello\t1  2\t\t3\r\n  world   -4.5\t 5e-3 6  \r\n"
                 "\r\nagain\t0\x0b-0\x0c7.25\xa0\r\n")
        vocab, table = load_embeddings(io.StringIO(plain))
        vocab2, table2 = load_embeddings(io.StringIO(messy))
        assert vocab2.index == vocab.index
        assert table2.vectors.tobytes() == table.vectors.tobytes()

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40),
           st.sampled_from([repr, "%.6f".__mod__, "%.17g".__mod__,
                            "%e".__mod__]))
    def test_values_load_as_float_of_their_text(self, values, fmt):
        texts = [fmt(v) for v in values]
        row = "tok " + " ".join(texts)
        _, table = load_embeddings(io.StringIO(f"1 {len(texts)}\n{row}\n"))
        want = np.array([float(t) for t in texts])
        assert table.vectors[0].tobytes() == want.tobytes()

    def test_peak_memory_is_the_table_plus_2_mib(self, tmp_path):
        rng = np.random.default_rng(3)
        count, dim = 4000, 300
        path = tmp_path / "vectors.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{count} {dim}\n")
            for i, row in enumerate(rng.uniform(-1, 1, (count, dim))):
                fh.write(f"w{i} " + " ".join(map(repr, row.tolist())) + "\n")
        tracemalloc.start()
        try:
            _, table = load_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= table.vectors.nbytes + 2 * 2**20

    def test_lowercase_fallback(self):
        vocab, _ = load_embeddings(io.StringIO("2 1\nword 0.5\nCase 0.25\n"))
        assert vocab.lookup("WORD") == vocab.lookup("word")
        # exact match wins before lowercasing
        assert vocab.lookup("Case") == 1
        assert vocab.lookup("case") == vocab.unk_index  # "case" never stored

    def test_bind_vocabulary(self):
        vocab, _ = load_embeddings(io.StringIO("2 1\nloved 1\nit 1\n"))
        tree = parse_dependency(I_LOVED_IT_CONLL)
        bind_vocabulary(tree, vocab)
        assert tree.nodes[1].embedding_index == vocab.lookup("loved")
        assert tree.nodes[0].embedding_index == vocab.unk_index


def _dep_tree_with_relations(relations):
    """Star tree: token 1 is the root, the rest attach with given relations."""
    n = len(relations) + 1
    lines = ["1\troot-word\t_\t_\t_\t_\t0\troot"]
    for i, rel in enumerate(relations, start=2):
        lines.append(f"{i}\tw{i}\t_\t_\t_\t_\t1\t{rel}")
    return parse_dependency("\n".join(lines))


class TestDepInventory:
    def test_top_15_of_20_dedicated_rest_shared(self):
        # relation r<k> occurs (21 - k) times: r1 most frequent, r20 least
        trees = []
        for k in range(1, 21):
            for _ in range(21 - k):
                trees.append(_dep_tree_with_relations([f"r{k:02d}"]))
        inv = build_dep_inventory(trees)

        # independent brute-force frequency map
        counts = {}
        for t in trees:
            for v, node in enumerate(t.nodes):
                if v != t.root:
                    counts[node.dep_relation] = counts.get(node.dep_relation, 0) + 1
        expected_top = sorted(counts, key=lambda r: (-counts[r], r))[:15]

        assert set(inv.dedicated) == set(expected_top)
        assert inv.n_slots == 16
        for k in range(16, 21):
            assert inv.slot_of(f"r{k:02d}") == inv.shared_slot

    def test_three_relations_all_dedicated(self):
        trees = [_dep_tree_with_relations(["a", "b", "c"])]
        inv = build_dep_inventory(trees)
        assert len(inv.dedicated) == 3
        assert inv.n_slots == 4
        assert inv.slot_of("zzz") == inv.shared_slot

    def test_tie_for_last_slot_breaks_lexicographically(self):
        # 14 clear winners, then "mmm" and "zzz" tied on count
        rels = [f"top{k:02d}" for k in range(14)] * 3 + ["mmm", "zzz"]
        trees = [_dep_tree_with_relations(rels)]
        inv = build_dep_inventory(trees)
        assert "mmm" in inv.dedicated
        assert inv.slot_of("zzz") == inv.shared_slot

    def test_slots_follow_the_dedicated_tuple(self):
        inv = DepTypeInventory(("nsubj", "dobj"))
        assert inv.slot_ids == {"nsubj": 0, "dobj": 1}
        assert inv.shared_slot == 2 and inv.n_slots == 3
        assert inv.slot_of("dobj") == 1 and inv.slot_of("amod") == 2
        assert inv.slot_of(None) == 2

    def test_constituency_corpus_rejected(self):
        tree = parse_constituency("(1 (0 a) (1 b))")
        with pytest.raises(ContractError):
            build_dep_inventory([tree])


class TestSubsentences:
    def test_every_tagged_constituent_emitted(self):
        tree = parse_constituency("(3 (2 I) (3 (3 loved) (2 it)))")
        samples = extract_subsentences(tree)
        assert len(samples) == 5  # all five nodes carry tags
        labels = sorted(s.sentence_label for s in samples)
        assert labels == [2, 2, 3, 3, 3]
        for s in samples:
            validate_tree(s)
            assert s.nodes[s.root].depth_layer == 1

    def test_untagged_aux_nodes_skipped(self):
        tree = parse_constituency("(1 (0 a) (0 b) (0 c))")
        samples = extract_subsentences(tree)
        # root + three leaves are tagged; the auxiliary node is not
        assert len(samples) == 4


class TestLabels:
    def test_label_file_and_attach(self):
        pairs = read_label_file(io.StringIO("LOC\t0\nNUM\t2\nLOC\t1\n"))
        trees = [parse_dependency("1\tx\t_\t_\t_\t_\t0\troot\n") for _ in range(3)]
        names = attach_labels(trees, pairs)
        assert names == ["LOC", "NUM"]
        assert [t.sentence_label for t in trees] == [0, 0, 1]

    def test_bad_sid_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            read_label_file(io.StringIO("LOC\txyz\n"))

    def test_out_of_range_sid(self):
        pairs = [("LOC", 5)]
        with pytest.raises(StructureError):
            attach_labels([parse_dependency("1\tx\t_\t_\t_\t_\t0\troot\n")], pairs)

    def test_attach_maps_through_given_names(self):
        # a file holding only A and C must not renumber C as B's index
        trees = [parse_dependency("1\tx\t_\t_\t_\t_\t0\troot\n") for _ in range(2)]
        names = attach_labels(trees, [("A", 0), ("C", 1)], ["A", "B", "C"])
        assert names == ["A", "B", "C"]
        assert [t.sentence_label for t in trees] == [0, 2]

    def test_label_outside_given_names_rejected(self):
        trees = [parse_dependency("1\tx\t_\t_\t_\t_\t0\troot\n")]
        with pytest.raises(DataError, match="'D'"):
            attach_labels(trees, [("D", 0)], ["A", "B"])

    def test_sentence_labelled_twice_rejected(self):
        with pytest.raises(FormatError, match="sentence 0 .*line 1.*line 3"):
            read_label_file(io.StringIO("A\t0\nB\t1\nB\t0\n"))


class TestCorpusVocab:
    def test_first_seen_order_and_random_table(self):
        trees = [parse_dependency(I_LOVED_IT_CONLL)]
        vocab = vocabulary_from_corpus(trees)
        assert vocab.tokens_in_order() == ["I", "loved", "it"]
        table = random_embeddings(vocab, 4, seed=3)
        assert table.vectors.shape == (4, 4)
        again = random_embeddings(vocab, 4, seed=3)
        assert np.array_equal(table.vectors, again.vectors)
