import numpy as np
import pytest

from treeconv.corpus_io import (
    CONSTITUENCY,
    DEPENDENCY,
    ParseTree,
    TreeNode,
    bind_vocabulary,
    build_dep_inventory,
    parse_dependency,
    validate_tree,
)
from treeconv.errors import ContractError
from treeconv.synthetic import (
    random_constituency_tree,
    random_dependency_tree,
    toy_vocab_table,
)
from treeconv.tensor_core import Tape, Tensor
from treeconv.tree_conv import (
    Span,
    WindowParams,
    forest,
    index_trees,
    init_c_window,
    init_d_window,
)

from helpers import convolve_tree, naive_matvec

I_LOVED_IT_CONLL = (
    "1\tI\t_\t_\t_\t_\t2\tnsubj\n"
    "2\tloved\t_\t_\t_\t_\t0\troot\n"
    "3\tit\t_\t_\t_\t_\t2\tdobj\n"
)


def zero_c_params(n_c, n_e):
    from treeconv.tensor_core import parameter
    return WindowParams(
        W_p=parameter(np.zeros((n_c, n_e)), "conv.W_p"),
        W_child=[parameter(np.zeros((n_c, n_e)), "conv.W_l"),
                 parameter(np.zeros((n_c, n_e)), "conv.W_r")],
        b=parameter(np.zeros(n_c), "conv.b"),
        kind=CONSTITUENCY,
    )


def window_c(tape, p, cl, cr, params):
    """The window at a parent with children (cl, cr), None for absent,
    read off `convolve_tree` on a one-window tree."""
    kids = [c for c in (cl, cr) if c is not None]
    assert cl is not None or cr is None, "a lone child is the left child"
    nodes = [TreeNode(children=list(range(1, len(kids) + 1)))]
    nodes += [TreeNode() for _ in kids]
    tree = ParseTree(kind=CONSTITUENCY, nodes=nodes, root=0)
    x = Tensor(np.stack([t.data for t in [p] + kids]))
    return Tensor(convolve_tree(tape, tree, x, params).data[0])


def window_d(tape, p, children, params, inventory):
    """The window at a parent with (vector, relation) children, read
    off `convolve_tree` on a one-window tree."""
    nodes = [TreeNode(children=list(range(1, len(children) + 1)))]
    nodes += [TreeNode(dep_relation=rel) for _, rel in children]
    tree = ParseTree(kind=DEPENDENCY, nodes=nodes, root=0)
    x = Tensor(np.stack([p.data] + [vec.data for vec, _ in children]))
    return Tensor(convolve_tree(tape, tree, x, params, inventory).data[0])


# --- independent naive implementations (plain numpy loops) -----------------

def naive_window_c(p, cl, cr, params):
    z = naive_matvec(params.W_p.data, p) + params.b.data
    if cl is not None:
        z = z + naive_matvec(params.W_child[0].data, cl)
    if cr is not None:
        z = z + naive_matvec(params.W_child[1].data, cr)
    return np.maximum(z, 0.0)


def naive_window_d(p, children, params, inventory):
    z = naive_matvec(params.W_p.data, p) + params.b.data
    for vec, rel in children:
        z = z + naive_matvec(params.W_child[inventory.slot_of(rel)].data, vec)
    return np.maximum(z, 0.0)


def naive_convolve(tree, vectors, params, inventory=None):
    out = np.zeros((len(tree.nodes), params.W_p.data.shape[0]))
    for v, node in enumerate(tree.nodes):
        if tree.kind == DEPENDENCY:
            children = [(vectors[c], tree.nodes[c].dep_relation)
                        for c in node.children]
            out[v] = naive_window_d(vectors[v], children, params, inventory)
        else:
            kids = node.children
            cl = vectors[kids[0]] if len(kids) >= 1 else None
            cr = vectors[kids[1]] if len(kids) == 2 else None
            out[v] = naive_window_c(vectors[v], cl, cr, params)
    return out


class TestConstituencyWindow:
    def test_leaf_uses_only_parent_weights(self):
        rng = np.random.default_rng(0)
        params = init_c_window(3, 4, rng)
        p = rng.normal(size=4)
        got = window_c(Tape(), Tensor(p), None, None, params).data
        want = np.maximum(params.W_p.data @ p + params.b.data, 0.0)
        assert np.array_equal(got, want)

    def test_all_zero_params_give_zero(self):
        out = window_c(Tape(), Tensor(np.ones(4)), Tensor(np.ones(4)),
                       Tensor(np.ones(4)), zero_c_params(3, 4))
        assert np.array_equal(out.data, np.zeros(3))

    def test_matches_three_matvec_oracle(self):
        rng = np.random.default_rng(1)
        params = init_c_window(5, 3, rng)
        p, cl, cr = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        got = window_c(Tape(), Tensor(p), Tensor(cl), Tensor(cr), params).data
        assert np.max(np.abs(got - naive_window_c(p, cl, cr, params))) < 1e-12


class TestDependencyWindow:
    def test_leaf_word_is_empty_sum(self):
        rng = np.random.default_rng(2)
        inv = build_dep_inventory([parse_dependency(I_LOVED_IT_CONLL)])
        params = init_d_window(3, 4, inv.n_slots, rng)
        p = rng.normal(size=4)
        got = window_d(Tape(), Tensor(p), [], params, inv).data
        want = np.maximum(params.W_p.data @ p + params.b.data, 0.0)
        assert np.array_equal(got, want)

    def test_i_loved_it_window(self):
        rng = np.random.default_rng(3)
        tree = parse_dependency(I_LOVED_IT_CONLL)
        inv = build_dep_inventory([tree])
        params = init_d_window(4, 3, inv.n_slots, rng)
        v_loved, v_i, v_it = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        got = window_d(
            Tape(), Tensor(v_loved),
            [(Tensor(v_i), "nsubj"), (Tensor(v_it), "dobj")],
            params, inv,
        ).data
        want = np.maximum(
            params.W_p.data @ v_loved
            + params.W_child[inv.slot_of("nsubj")].data @ v_i
            + params.W_child[inv.slot_of("dobj")].data @ v_it
            + params.b.data,
            0.0,
        )
        assert np.max(np.abs(got - want)) < 1e-12

    def test_shared_relation_slot_and_commutativity(self):
        rng = np.random.default_rng(4)
        inv = build_dep_inventory([parse_dependency(I_LOVED_IT_CONLL)])
        params = init_d_window(3, 3, inv.n_slots, rng)
        p = rng.normal(size=3)
        c1, c2 = rng.normal(size=3), rng.normal(size=3)
        # both relations unknown: resolve to the shared matrix
        a = window_d(Tape(), Tensor(p),
                     [(Tensor(c1), "xcomp"), (Tensor(c2), "expl")],
                     params, inv).data
        b = naive_window_d(p, [(c1, "xcomp"), (c2, "expl")], params, inv)
        assert np.max(np.abs(a - b)) < 1e-12
        # swapping same-relation children leaves the output unchanged
        swapped = window_d(Tape(), Tensor(p),
                           [(Tensor(c2), "expl"), (Tensor(c1), "xcomp")],
                           params, inv).data
        assert np.max(np.abs(a - swapped)) < 1e-12


class TestConvolve:
    def test_single_node_tree(self):
        rng = np.random.default_rng(5)
        tree = parse_dependency("1\tYes\t_\t_\t_\t_\t0\troot\n")
        inv = build_dep_inventory([tree])
        params = init_d_window(3, 2, inv.n_slots, rng)
        vec = rng.normal(size=2)
        fm = convolve_tree(Tape(), tree, Tensor(vec[None]), params, inv)
        assert len(fm.data) == 1
        assert np.array_equal(fm.data[0],
                              naive_window_d(vec, [], params, inv))

    def test_i_loved_it_all_positions(self):
        rng = np.random.default_rng(6)
        tree = parse_dependency(I_LOVED_IT_CONLL)
        inv = build_dep_inventory([tree])
        params = init_d_window(4, 3, inv.n_slots, rng)
        vectors = [rng.normal(size=3) for _ in tree.nodes]
        fm = convolve_tree(Tape(), tree, Tensor(np.stack(vectors)), params, inv)
        assert len(fm.data) == len(tree.nodes)
        want = naive_convolve(tree, vectors, params, inv)
        assert np.max(np.abs(fm.data - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees_match_naive_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        words = [f"w{i}" for i in range(12)]
        n_e, n_c = 3, 5

        dep = random_dependency_tree(rng, words)
        validate_tree(dep)
        inv = build_dep_inventory([dep])
        d_params = init_d_window(n_c, n_e, inv.n_slots, rng)
        vecs = [rng.normal(size=n_e) for _ in dep.nodes]
        fm = convolve_tree(Tape(), dep, Tensor(np.stack(vecs)), d_params, inv)
        assert np.max(np.abs(fm.data
                             - naive_convolve(dep, vecs, d_params, inv))) < 1e-12

        con = random_constituency_tree(rng, words[:6])
        validate_tree(con)
        c_params = init_c_window(n_c, n_e, rng)
        cvecs = [rng.normal(size=n_e) for _ in con.nodes]
        fm = convolve_tree(Tape(), con, Tensor(np.stack(cvecs)), c_params)
        assert np.max(np.abs(fm.data
                             - naive_convolve(con, cvecs, c_params))) < 1e-12

    def test_window_locality(self):
        rng = np.random.default_rng(7)
        tree = parse_dependency(I_LOVED_IT_CONLL)
        inv = build_dep_inventory([tree])
        params = init_d_window(4, 3, inv.n_slots, rng)
        vectors = [rng.normal(size=3) for _ in tree.nodes]
        base = convolve_tree(Tape(), tree, Tensor(np.stack(vectors)),
                        params, inv).data
        # "I" (node 0) is a leaf: changing it must not move features of
        # "it" (node 2), whose window holds only itself
        vectors2 = [v.copy() for v in vectors]
        vectors2[0] = rng.normal(size=3)
        moved = convolve_tree(Tape(), tree, Tensor(np.stack(vectors2)),
                         params, inv).data
        assert np.array_equal(base[2], moved[2])
        assert not np.array_equal(base[1], moved[1])  # parent window moved

    def test_storage_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        tree = parse_dependency(I_LOVED_IT_CONLL)
        inv = build_dep_inventory([tree])
        params = init_d_window(4, 3, inv.n_slots, rng)
        vectors = [rng.normal(size=3) for _ in tree.nodes]
        base = convolve_tree(Tape(), tree, Tensor(np.stack(vectors)),
                        params, inv).data

        perm = [2, 0, 1]  # new index of old node i
        nodes = [None] * len(tree.nodes)
        for old, node in enumerate(tree.nodes):
            nodes[perm[old]] = TreeNode(
                word=node.word, position=node.position,
                dep_relation=node.dep_relation, depth_layer=node.depth_layer,
                children=sorted(perm[c] for c in node.children),
            )
        permuted = ParseTree(kind=DEPENDENCY, nodes=nodes, root=perm[tree.root])
        validate_tree(permuted)
        pvecs = [None] * len(vectors)
        for old, v in enumerate(vectors):
            pvecs[perm[old]] = v
        out = convolve_tree(Tape(), permuted, Tensor(np.stack(pvecs)),
                       params, inv).data
        # child sums re-associate under permutation, so allow float slack
        for old in range(len(vectors)):
            assert np.max(np.abs(base[old] - out[perm[old]])) < 1e-12

    def test_vector_coverage_enforced(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        inv = build_dep_inventory([tree])
        params = init_d_window(2, 2, inv.n_slots, np.random.default_rng(9))
        with pytest.raises(ContractError):
            convolve_tree(Tape(), tree, Tensor(np.zeros((1, 2))), params, inv)


class TestWindowChecks:
    def test_c_window_on_dependency_forest_rejected(self):
        tree = parse_dependency(I_LOVED_IT_CONLL)
        inv = build_dep_inventory([tree])
        params = init_c_window(2, 2, np.random.default_rng(10))
        with pytest.raises(ContractError, match="child"):
            convolve_tree(Tape(), tree, Tensor(np.zeros((3, 2))), params, inv)

    def test_c_window_with_as_many_matrices_as_slots_rejected(self):
        # one dedicated relation makes n_slots 2, the c-window's count
        tree = parse_dependency("1\tgo\t_\t_\t_\t_\t0\troot\n"
                                "2\tnow\t_\t_\t_\t_\t1\txcomp\n")
        inv = build_dep_inventory([tree])
        assert inv.n_slots == 2
        params = init_c_window(2, 2, np.random.default_rng(10))
        with pytest.raises(ContractError, match="keyed for constituency"):
            convolve_tree(Tape(), tree, Tensor(np.zeros((2, 2))), params, inv)

    def test_d_window_on_constituency_forest_rejected(self):
        tree = random_constituency_tree(np.random.default_rng(12), ["a", "b"])
        params = init_d_window(2, 2, 2, np.random.default_rng(10))
        with pytest.raises(ContractError, match="keyed for dependency"):
            convolve_tree(Tape(), tree, Tensor(np.zeros((len(tree), 2))), params)

    def test_d_window_one_matrix_short_rejected(self):
        inv = build_dep_inventory([parse_dependency(I_LOVED_IT_CONLL)])
        # xcomp has no dedicated slot: it reads the shared, last matrix
        tree = parse_dependency("1\tgo\t_\t_\t_\t_\t0\troot\n"
                                "2\tnow\t_\t_\t_\t_\t1\txcomp\n")
        params = init_d_window(2, 2, inv.n_slots - 1, np.random.default_rng(11))
        with pytest.raises(ContractError, match="child"):
            convolve_tree(Tape(), tree, Tensor(np.zeros((2, 2))), params, inv)

    @pytest.mark.parametrize("children,missed", [([[1, 1], []], 1),
                                                 ([[1], [], []], 2)])
    def test_constituency_walk_must_enter_each_node_once_in_turn(
            self, children, missed):
        """A child listed twice is entered out of turn, a node no child
        link reaches is never entered: either is named."""
        tree = ParseTree(kind=CONSTITUENCY, root=0, nodes=[
            TreeNode(word=None if kids else "w", children=kids)
            for kids in children])
        with pytest.raises(ContractError, match=f"node {missed} is not"):
            index_trees([tree])

    def test_forest_of_mixed_kinds_rejected(self):
        dep = parse_dependency(I_LOVED_IT_CONLL)
        con = random_constituency_tree(np.random.default_rng(12), ["a", "b"])
        inv = build_dep_inventory([dep])
        with pytest.raises(ContractError, match="one kind"):
            index_trees([dep, con], inv)
        spans = [Span(index, 0, len(index))
                 for index in (index_trees([dep], inv), index_trees([con]))]
        with pytest.raises(ContractError, match="one index"):
            forest(spans)
