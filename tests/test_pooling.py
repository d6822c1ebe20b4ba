import numpy as np
import pytest

from treeconv.corpus_io import (
    CONSTITUENCY,
    ParseTree,
    TreeNode,
    parse_constituency,
    parse_dependency,
)
from treeconv.errors import ContractError
from treeconv.pooling import (
    LOWER_LEFT,
    LOWER_RIGHT,
    TOP,
    assign_global,
    assign_k_slot,
    assign_three_slot,
    pool,
)
from treeconv.synthetic import random_constituency_tree, random_dependency_tree
from treeconv.tensor_core import Tape, Tensor, grad_of, parameter

from helpers import max_grad_error


def dep_chain(n):
    """Dependency chain 1 <- 2 <- ... <- n rooted at token 1."""
    lines = ["1\tw1\t_\t_\t_\t_\t0\troot"]
    for i in range(2, n + 1):
        lines.append(f"{i}\tw{i}\t_\t_\t_\t_\t{i - 1}\tdep")
    return parse_dependency("\n".join(lines))


def feature_map(arrays):
    return Tensor(np.stack(arrays))


class TestGlobal:
    def test_seven_node_tree(self):
        tree = dep_chain(7)
        a = assign_global(tree)
        assert a.slot_of == [0] * 7
        assert a.slot_count == 1

    def test_single_node(self):
        a = assign_global(dep_chain(1))
        assert a.slot_of == [0]

    def test_applies_to_both_kinds(self):
        rng = np.random.default_rng(0)
        con = random_constituency_tree(rng, ["a", "b", "c"])
        assert assign_global(con).slot_count == 1
        dep = random_dependency_tree(rng, ["a", "b", "c"])
        assert assign_global(dep).slot_count == 1


class TestThreeSlot:
    def test_depth_five_threshold(self):
        # right-leaning comb of depth 5: layers 1-2 above 0.6*5=3.0
        tree = parse_constituency("(0 (0 a) (0 (0 b) (0 (0 c) (0 (0 d) (0 e)))))")
        assert tree.depth() == 5
        a = assign_three_slot(tree, alpha=0.6)
        for v, node in enumerate(tree.nodes):
            if node.depth_layer < 3.0:
                assert a.slot_of[v] == TOP
            else:
                assert a.slot_of[v] in (LOWER_LEFT, LOWER_RIGHT)
        # the left child of the root is a leaf at layer 2: TOP
        left = tree.nodes[tree.root].children[0]
        assert a.slot_of[left] == TOP
        # deep nodes all live in the right subtree here
        deep = [v for v, n in enumerate(tree.nodes) if n.depth_layer >= 3]
        assert all(a.slot_of[v] == LOWER_RIGHT for v in deep)

    def test_single_node_root_is_top(self):
        tree = parse_constituency("(0 w)")
        a = assign_three_slot(tree, alpha=0.6)
        assert a.slot_of == [TOP]
        assert a.slot_count == 3

    def test_partition_on_random_trees(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_leaves = int(rng.integers(1, 9))
            tree = random_constituency_tree(rng, [f"w{i}" for i in range(n_leaves)])
            a = assign_three_slot(tree)
            assert len(a.slot_of) == len(tree.nodes)
            assert all(0 <= s < 3 for s in a.slot_of)

    def test_dependency_tree_rejected(self):
        with pytest.raises(ContractError):
            assign_three_slot(dep_chain(3))

    @staticmethod
    def recursive_three_slot(tree, alpha):
        """The depth-first painting written as plain recursion."""
        side = {}

        def paint(v, mark):
            side[v] = mark
            for c in tree.nodes[v].children:
                paint(c, mark)

        for mark, child in zip((LOWER_LEFT, LOWER_RIGHT),
                               tree.nodes[tree.root].children):
            paint(child, mark)
        threshold = alpha * tree.depth()
        return [TOP if v == tree.root or n.depth_layer < threshold else side[v]
                for v, n in enumerate(tree.nodes)]

    def test_matches_recursive_painting_on_small_trees(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            leaves = [f"w{i}" for i in range(int(rng.integers(1, 12)))]
            tree = random_constituency_tree(rng, leaves)
            for alpha in (0.3, 0.6, 0.9):
                assert (assign_three_slot(tree, alpha).slot_of
                        == self.recursive_three_slot(tree, alpha))

    def test_5000_deep_chain_assigns_every_node(self):
        # root -> (chain of 5000 unary nodes ending in a word, a word);
        # built from TreeNodes so no parser recursion is involved
        depth = 5000
        nodes = [TreeNode(children=[1, depth], depth_layer=1)]
        nodes += [TreeNode(children=[v + 1], depth_layer=v + 1)
                  for v in range(1, depth - 1)]
        nodes.append(TreeNode(word="last", depth_layer=depth))
        nodes.append(TreeNode(word="right", depth_layer=2))
        tree = ParseTree(kind=CONSTITUENCY, nodes=nodes, root=0)
        a = assign_three_slot(tree, alpha=0.6)
        assert len(a.slot_of) == len(tree.nodes)
        threshold = 0.6 * tree.depth()
        for v, node in enumerate(tree.nodes):
            if v == tree.root or node.depth_layer < threshold:
                assert a.slot_of[v] == TOP
            else:
                assert a.slot_of[v] == LOWER_LEFT
        assert a.slot_of[-1] == TOP  # the right word sits at layer 2
        assert a.slot_of.count(LOWER_LEFT) > 1900


class TestKSlot:
    def test_n4_k2(self):
        a = assign_k_slot(dep_chain(4), 2)
        by_position = {tree_pos: a.slot_of[tree_pos - 1] for tree_pos in (1, 2, 3, 4)}
        assert by_position == {1: 0, 2: 0, 3: 1, 4: 1}

    def test_k1_equals_global(self):
        tree = dep_chain(5)
        assert assign_k_slot(tree, 1).slot_of == assign_global(tree).slot_of

    def test_n5_k2_boundary_goes_low(self):
        a = assign_k_slot(dep_chain(5), 2)
        slots = {i: a.slot_of[i - 1] for i in range(1, 6)}
        assert slots == {1: 0, 2: 0, 3: 1, 4: 1, 5: 1}

    def test_matches_inequality_enumeration(self):
        # j is the slot (1-based) iff (j-1)*n/k <= i <= j*n/k; boundaries low
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            k = int(rng.integers(1, n + 1))
            a = assign_k_slot(dep_chain(n), k)
            for i in range(1, n + 1):
                feasible = [j for j in range(1, k + 1)
                            if (j - 1) * n / k <= i <= j * n / k]
                assert feasible, (n, k, i)
                assert a.slot_of[i - 1] == feasible[0] - 1

    def test_k_larger_than_n_leaves_empty_slots(self):
        a = assign_k_slot(dep_chain(3), 4)
        assert a.slot_of == [1, 2, 3]
        fm = feature_map([np.array([1.0, 2.0]), np.array([3.0, -4.0]),
                          np.array([5.0, 6.0])])
        pooled, prov = pool(Tape(), fm, a)
        assert np.array_equal(pooled.data[0], [0.0, 0.0])
        assert prov.winners[0] is None

    def test_k_below_one_rejected(self):
        with pytest.raises(ContractError):
            assign_k_slot(dep_chain(3), 0)

    def test_constituency_tree_rejected(self):
        tree = parse_constituency("(0 (0 a) (0 b))")
        with pytest.raises(ContractError):
            assign_k_slot(tree, 1)


class TestPool:
    def test_single_node_global(self):
        tree = dep_chain(1)
        fm = feature_map([np.array([3.0, -1.0])])
        pooled, prov = pool(Tape(), fm, assign_global(tree))
        assert np.array_equal(pooled.data[0], [3.0, -1.0])
        assert np.array_equal(prov.winners[0], [0, 0])

    def test_two_node_hand_case(self):
        tree = dep_chain(2)
        fm = feature_map([np.array([1.0, 5.0]), np.array([4.0, 2.0])])
        pooled, prov = pool(Tape(), fm, assign_global(tree))
        assert np.array_equal(pooled.data[0], [4.0, 5.0])
        assert np.array_equal(prov.winners[0], [1, 0])

    def test_tie_goes_to_lowest_node_index(self):
        tree = dep_chain(3)
        fm = feature_map([np.array([2.0]), np.array([2.0]), np.array([1.0])])
        _, prov = pool(Tape(), fm, assign_global(tree))
        assert prov.winners[0][0] == 0

    def test_empty_slot_pools_to_zero(self):
        tree = parse_constituency("(0 w)")  # single node: LOWER_* both empty
        fm = feature_map([np.array([7.0, 7.0])])
        pooled, prov = pool(Tape(), fm, assign_three_slot(tree))
        assert np.array_equal(pooled.data[LOWER_LEFT], [0.0, 0.0])
        assert prov.winners[LOWER_LEFT] is None
        assert np.array_equal(pooled.data[TOP], [7.0, 7.0])

    def test_gradient_flows_only_to_winners(self):
        tree = dep_chain(3)
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=4) for _ in range(3)]
        params = [parameter(a.copy(), f"f{i}") for i, a in enumerate(arrays)]
        weights = rng.normal(size=4)

        def run():
            tape = Tape()
            fm = tape.take_rows([tape.reshape(p, (1, -1)) for p in params],
                                range(len(params)))
            pooled, _ = pool(tape, fm, assign_global(tree))
            loss = tape.sumsq(tape.mul(tape.reshape(pooled, -1),
                                       Tensor(weights)))
            return tape, loss

        tape, loss = run()
        grads = tape.backward(loss)
        stacked = np.stack([p.data for p in params])
        arg = np.argmax(stacked, axis=0)
        for i, p in enumerate(params):
            g = grad_of(grads, p)
            assert np.all(g[arg != i] == 0)  # losers receive exactly zero
        err = max_grad_error(lambda: run()[1].item(),
                             [(p.data, grad_of(grads, p)) for p in params])
        assert err < 1e-6


class TestPoolingProperties:
    """Randomized invariant suite (the acceptance version runs 1000+)."""

    def run_suite(self, iterations, seed):
        rng = np.random.default_rng(seed)
        for _ in range(iterations):
            n = int(rng.integers(1, 12))
            n_c = int(rng.integers(1, 6))
            dep = random_dependency_tree(rng, [f"w{i}" for i in range(n)])
            feats = [rng.normal(size=n_c) for _ in range(n)]
            fm = feature_map(feats)

            k = int(rng.integers(1, n + 1))
            for assignment in (assign_global(dep), assign_k_slot(dep, k)):
                self.check_partition(assignment, n)
                pooled, prov = pool(Tape(), fm, assignment)
                self.check_dominance(assignment, feats, pooled)
                self.check_conservation(assignment, prov, n_c)
            self.check_k_monotone(dep, k)
            self.check_k1_reduction(dep, fm)

            leaves = [f"w{i}" for i in range(int(rng.integers(1, 8)))]
            con = random_constituency_tree(rng, leaves)
            cfm = feature_map([rng.normal(size=n_c) for _ in con.nodes])
            assignment = assign_three_slot(con)
            self.check_partition(assignment, len(con.nodes))
            pooled, prov = pool(Tape(), cfm, assignment)
            self.check_dominance(
                assignment, cfm.data, pooled)
            self.check_conservation(assignment, prov, n_c)

    @staticmethod
    def check_partition(assignment, n):
        assert len(assignment.slot_of) == n
        assert all(0 <= s < assignment.slot_count for s in assignment.slot_of)

    @staticmethod
    def check_dominance(assignment, feats, pooled):
        for slot in range(assignment.slot_count):
            members = assignment.members(slot)
            if not members:
                continue
            value = pooled.data[slot]
            for v in members:
                assert np.all(value >= feats[v])
            for dim in range(len(value)):
                assert any(feats[v][dim] == value[dim] for v in members)

    @staticmethod
    def check_conservation(assignment, prov, n_c):
        # each dimension of every non-empty slot credits exactly one node
        for slot, arr in enumerate(prov.winners):
            members = set(assignment.members(slot))
            if arr is None:
                assert not members
                continue
            assert len(arr) == n_c
            assert set(arr.tolist()) <= members

    @staticmethod
    def check_k_monotone(tree, k):
        a = assign_k_slot(tree, k)
        for u in tree.nodes:
            for w in tree.nodes:
                su, sw = a.slot_of[u.position - 1], a.slot_of[w.position - 1]
                if su < sw:
                    assert u.position < w.position

    @staticmethod
    def check_k1_reduction(tree, fm):
        p1, _ = pool(Tape(), fm, assign_k_slot(tree, 1))
        pg, _ = pool(Tape(), fm, assign_global(tree))
        assert np.array_equal(p1.data[0], pg.data[0])

    def test_invariants_hold(self):
        self.run_suite(iterations=120, seed=4)

    def test_global_permutation_invariance(self):
        rng = np.random.default_rng(5)
        feats = [rng.normal(size=3) for _ in range(6)]
        tree = dep_chain(6)
        base, _ = pool(Tape(), feature_map(feats), assign_global(tree))
        perm = rng.permutation(6)
        shuffled = [feats[i] for i in perm]
        out, _ = pool(Tape(), feature_map(shuffled), assign_global(tree))
        assert np.array_equal(base.data[0], out.data[0])
