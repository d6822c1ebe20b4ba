import numpy as np
import pytest

from treeconv.corpus_io import (EmbeddingTable, bind_vocabulary,
                                build_dep_inventory, parse_constituency,
                                parse_dependency)
from treeconv.corpus_io import Vocabulary
from treeconv.errors import ConfigError, ContractError, ShapeError
from treeconv.rae_pretrain import (
    CompositionParams,
    PretrainConfig,
    annotate,
    annotate_forest,
    init_composition,
    pretrain,
    reconstruction_loss,
)
from treeconv.tensor_core import parameter
from treeconv.tree_conv import index_trees

from helpers import compose_node, naive_matvec


def zero_params(n_e):
    return CompositionParams(
        W_comp=parameter(np.zeros((n_e, 2 * n_e)), "rae.W_comp"),
        b_comp=parameter(np.zeros(n_e), "rae.b_comp"),
        W_rec=parameter(np.zeros((2 * n_e, n_e)), "rae.W_rec"),
        b_rec=parameter(np.zeros(2 * n_e), "rae.b_rec"),
    )


def small_table(words, n_e, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(index={w: i for i, w in enumerate(words)},
                       unk_index=len(words))
    table = EmbeddingTable(rng.uniform(-scale, scale, size=(len(words) + 1, n_e)))
    return vocab, table


def pair_tree(vocab, words=("a", "b")):
    """A two-leaf tree over `words`, bound to `vocab`."""
    tree = parse_constituency(f"(1 (0 {words[0]}) (0 {words[1]}))")
    bind_vocabulary(tree, vocab)
    return tree


class TestAnnotateForest:
    """The batch annotator's composition, p = tanh(W.[c1;c2] + b), and
    its contract errors."""

    def test_zero_params_give_zero_vector(self):
        vocab, table = small_table(["a", "b"], 3)
        out = annotate_forest(index_trees([pair_tree(vocab)]), zero_params(3),
                              table)
        assert np.array_equal(out[0], np.zeros(3))

    def test_output_strictly_inside_unit_box(self):
        vocab, table = small_table(["a", "b"], 4, scale=5.0)
        rng = np.random.default_rng(1)
        out = annotate_forest(index_trees([pair_tree(vocab)]),
                              init_composition(4, rng), table)
        assert np.all(out[0] > -1.0) and np.all(out[0] < 1.0)

    def test_matches_matvec_tanh_oracle(self):
        vocab, table = small_table(["a", "b"], 3, seed=2)
        params = init_composition(3, np.random.default_rng(2))
        out = annotate_forest(index_trees([pair_tree(vocab)]), params, table)
        c1, c2 = table.row(vocab.lookup("a")), table.row(vocab.lookup("b"))
        want = np.tanh(
            naive_matvec(params.W_comp.data, np.concatenate([c1, c2]))
            + params.b_comp.data
        )
        assert np.max(np.abs(out[0] - want)) < 1e-12

    def test_contract_errors(self):
        vocab, table = small_table(["a", "b", "c"], 3)
        tree = pair_tree(vocab)
        with pytest.raises(ShapeError):  # table dim != n_e
            annotate_forest(index_trees([tree]), zero_params(4), table)
        dep = parse_dependency("1\ta\t_\t_\t_\t_\t0\troot")
        with pytest.raises(ContractError, match="constituency"):
            annotate_forest(index_trees([dep], build_dep_inventory([dep])),
                            zero_params(3), table)
        wide = pair_tree(vocab, ("b", "c"))
        wide.nodes[wide.root].children.append(wide.nodes[wide.root].children[0])
        with pytest.raises(ContractError, match="3 children"):
            annotate_forest(index_trees([tree, wide]), zero_params(3), table)


class TestAnnotate:
    def test_single_leaf_maps_to_embedding(self):
        vocab, table = small_table(["w"], 3)
        tree = parse_constituency("(0 (1 w))")
        bind_vocabulary(tree, vocab)
        rng = np.random.default_rng(3)
        vectors = annotate(tree, init_composition(3, rng), table)
        leaf = tree.leaf_indices()[0]
        assert np.array_equal(vectors[leaf], table.row(vocab.lookup("w")))

    def test_bottom_up_consistency(self):
        vocab, table = small_table(["I", "loved", "it"], 4)
        tree = parse_constituency("(3 (2 I) (3 (3 loved) (2 it)))")
        bind_vocabulary(tree, vocab)
        rng = np.random.default_rng(4)
        params = init_composition(4, rng)
        vectors = annotate(tree, params, table)
        # recompute each non-leaf from its children's stored vectors
        for v, node in enumerate(tree.nodes):
            if node.children:
                kids = [vectors[c] for c in node.children]
                c2 = kids[1] if len(kids) > 1 else np.zeros(4)
                assert np.allclose(vectors[v], compose_node(kids[0], c2, params),
                                   rtol=1e-12, atol=1e-15)

    def test_all_zero_params_zero_non_leaves(self):
        vocab, table = small_table(["a", "b"], 2)
        tree = parse_constituency("(1 (0 a) (0 b))")
        bind_vocabulary(tree, vocab)
        vectors = annotate(tree, zero_params(2), table)
        assert np.array_equal(vectors[tree.root], np.zeros(2))

    def test_non_leaf_vectors_bounded(self):
        vocab, table = small_table(["a", "b", "c"], 3, scale=5.0)
        tree = parse_constituency("(1 (0 a) (1 (0 b) (0 c)))")
        bind_vocabulary(tree, vocab)
        rng = np.random.default_rng(5)
        vectors = annotate(tree, init_composition(3, rng), table)
        for v, node in enumerate(tree.nodes):
            if node.children:
                assert np.all(np.abs(vectors[v]) < 1.0)


class TestPretrain:
    def test_loss_drops_below_ten_percent_on_single_tree(self):
        vocab, table = small_table(["a", "b"], 2, seed=6, scale=0.3)
        tree = parse_constituency("(0 (0 a) (0 b))")
        bind_vocabulary(tree, vocab)
        rng = np.random.default_rng(7)
        initial = reconstruction_loss([tree], init_composition(2, rng), table)

        config = PretrainConfig(learning_rate=0.05, max_epochs=500,
                                patience=None, seed=7)
        params = pretrain([tree], table, config)
        final = reconstruction_loss([tree], params, table)
        assert final < 0.1 * initial

    def test_zero_everything_is_a_fixed_point(self):
        vocab, _ = small_table(["a", "b"], 2)
        table = EmbeddingTable(np.zeros((3, 2)))
        tree = parse_constituency("(0 (0 a) (0 b))")
        bind_vocabulary(tree, vocab)
        assert reconstruction_loss([tree], zero_params(2), table) == 0.0

    def test_returned_holdout_loss_never_worse_than_initial(self):
        rng = np.random.default_rng(8)
        vocab, table = small_table(["a", "b", "c", "d"], 3, seed=8)
        trees = []
        for _ in range(12):
            words = rng.choice(["a", "b", "c", "d"], size=3)
            t = parse_constituency(f"(0 (0 {words[0]}) (0 (0 {words[1]}) (0 {words[2]})))")
            bind_vocabulary(t, vocab)
            trees.append(t)

        config = PretrainConfig(max_epochs=5, seed=9)
        init_rng = np.random.default_rng(config.seed)
        split_rng = np.random.default_rng(config.seed)
        initial_params = init_composition(3, init_rng)
        order = split_rng.permutation(len(trees))
        holdout = [trees[i] for i in order[:1]]

        before = reconstruction_loss(holdout, initial_params, table)
        params = pretrain(trees, table, config)
        after = reconstruction_loss(holdout, params, table)
        assert after <= before

    def test_leaf_only_corpus_rejected(self):
        vocab, table = small_table(["w"], 2)
        tree = parse_constituency("(0 w)")
        bind_vocabulary(tree, vocab)
        with pytest.raises(ContractError):
            pretrain([tree], table)

    def test_patience_below_one_rejected_before_training(self):
        # the CLI sets no patience, so its range is checked here
        vocab, table = small_table(["a", "b"], 2)
        tree = parse_constituency("(1 (2 a) (3 b))")
        bind_vocabulary(tree, vocab)
        with pytest.raises(ConfigError, match="patience must be >= 1, got 0"):
            pretrain([tree], table, PretrainConfig(patience=0))
        assert PretrainConfig(patience=None).validate().patience is None

    @pytest.mark.parametrize("seed", range(8))
    def test_split_without_non_leaf_falls_back_to_the_corpus(self, seed):
        # some seeds hold out the leaf-only line, some train on it alone
        vocab, table = small_table(["alone", "a", "b"], 2)
        trees = [parse_constituency("(1 alone)"),
                 parse_constituency("(1 (2 a) (3 b))")]
        for tree in trees:
            bind_vocabulary(tree, vocab)
        params = pretrain(trees, table, PretrainConfig(max_epochs=1, seed=seed))
        assert all(np.isfinite(p.data).all() for _, p in params.named())

    def test_gradient_of_objective_matches_finite_differences(self):
        from treeconv.rae_pretrain import _recon_loss
        from treeconv.tensor_core import Tape, grad_of
        from helpers import max_grad_error

        vocab, table = small_table(["a", "b", "c"], 2, seed=10)
        tree = parse_constituency("(0 (0 a) (0 (0 b) (0 c)))")
        bind_vocabulary(tree, vocab)
        rng = np.random.default_rng(11)
        params = init_composition(2, rng)

        def loss_value():
            return _recon_loss(Tape(), [tree], params, table)[0].item()

        tape = Tape()
        loss, _ = _recon_loss(tape, [tree], params, table)
        grads = tape.backward(loss)
        pairs = [(p.data, grad_of(grads, p)) for _, p in params.named()]
        assert max_grad_error(loss_value, pairs) < 1e-4
