import numpy as np
import pytest

from treeconv.errors import ContractError, ShapeError
from treeconv.tensor_core import (
    FLAT_SCATTER,
    GEMM_ROWS,
    RowGradient,
    Tape,
    Tensor,
    grad_of,
    parameter,
    _scatter_add,
    softmax_probs,
)

from helpers import max_grad_error, naive_matvec


def take_row(tape, M, index):
    """Row `index` of `M` as a vector, through a one-row lookup."""
    return tape.reshape(tape.take_rows(M, [index]), -1)


def matvec(tape, W, x):
    """W.x as a vector, through a one-row `edge_matmul` with a zero
    bias."""
    row = tape.reshape(x, (1, -1))
    row.name = x.name
    zero = Tensor(np.zeros(len(W.data)))
    return tape.reshape(tape.edge_matmul(row, W, zero), -1)


def add_bias(tape, X, b):
    """X + b on every row, through an identity `edge_matmul`."""
    return tape.edge_matmul(X, Tensor(np.eye(X.data.shape[1])), b)


def concat(tape, parts):
    """Vectors joined end to end: the entries of one-column matrices,
    read as if stacked."""
    columns = [tape.reshape(p, (-1, 1)) for p in parts]
    size = sum(p.data.size for p in parts)
    return tape.reshape(tape.take_rows(columns, range(size)), -1)


class TestMatvec:
    def test_identity(self):
        tape = Tape()
        W = Tensor(np.eye(3))
        x = Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(matvec(tape, W, x).data, [1.0, 2.0, 3.0])

    def test_zero_matrix_annihilates(self):
        tape = Tape()
        W = Tensor(np.zeros((2, 3)))
        x = Tensor([4.0, -5.0, 6.0])
        assert np.array_equal(matvec(tape, W, x).data, [0.0, 0.0])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(4, 5))
        x = rng.normal(size=5)
        got = matvec(Tape(), Tensor(W), Tensor(x)).data
        assert np.max(np.abs(got - naive_matvec(W, x))) < 1e-12

    def test_shape_error_names_both_operands(self):
        W = Tensor(np.zeros((2, 3)), name="weights")
        x = Tensor(np.zeros(4), name="input")
        with pytest.raises(ShapeError, match="weights.*input"):
            matvec(Tape(), W, x)


class TestRelu:
    def test_sign_cases(self):
        out = Tape().relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative_goes_to_zero(self):
        out = Tape().relu(Tensor([-3.0, -0.5, -1e-9]))
        assert np.array_equal(out.data, [0.0, 0.0, 0.0])

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=32)
        got = Tape().relu(Tensor(x)).data
        want = np.array([max(0.0, v) for v in x])
        assert np.array_equal(got, want)


class TestBackward:
    def test_constant_loss_gives_all_zero_gradients(self):
        tape = Tape()
        w = parameter(np.array([2.0, 3.0]), "w")
        loss = Tensor(5.0)  # constant, not derived from w
        grads = tape.backward(loss)
        assert np.array_equal(grad_of(grads, w), [0.0, 0.0])

    def test_scalar_product_rule(self):
        tape = Tape()
        w = parameter(np.array(3.0), "w")
        x = Tensor(np.array(4.0))
        loss = tape.mul(w, x)
        grads = tape.backward(loss)
        assert float(grad_of(grads, w)) == 4.0

    def test_loss_is_leaf_parameter(self):
        tape = Tape()
        w = parameter(np.array(3.0), "w")
        grads = tape.backward(w)
        assert float(grad_of(grads, w)) == 1.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tape().backward(Tensor([1.0, 2.0]))

    def test_fanout_accumulates(self):
        tape = Tape()
        w = parameter(np.array(2.0), "w")
        loss = tape.mul(w, w)  # w^2, d/dw = 2w
        grads = tape.backward(loss)
        assert float(grad_of(grads, w)) == 4.0

    def test_unused_parameter_is_exactly_zero(self):
        tape = Tape()
        used = parameter(np.array([1.0, 2.0]), "used")
        unused = parameter(np.array([[3.0, 4.0]]), "unused")
        loss = tape.sumsq(used)
        grads = tape.backward(loss)
        assert unused not in grads
        assert np.array_equal(grad_of(grads, unused), [[0.0, 0.0]])


class TestRowLookupGradient:
    def test_k_row_lookup_adds_once_per_matrix_it_read(self, monkeypatch):
        from treeconv import tensor_core

        calls = []
        add_grad = tensor_core._add_grad

        def counting(*args, **kwargs):
            calls.append(1)
            return add_grad(*args, **kwargs)

        monkeypatch.setattr(tensor_core, "_add_grad", counting)
        rng = np.random.default_rng(30)
        E = parameter(rng.normal(size=(6, 3)), "E")
        A = parameter(rng.normal(size=(2, 3)), "A")
        for mats, rows, read_by in ((E, [1, 4, 1, 5, 0], {E: [0, 1, 4, 5]}),
                                    ([E, A], [7, 1, 6, 1, 4],
                                     {E: [1, 4], A: [0, 1]})):
            tape = Tape()
            read = tape.take_rows(mats, rows)
            calls.clear()
            grads = tape.backward(tape.sumsq(read))
            # one term for the lookup's output, then one per matrix read
            assert len(calls) == 1 + len(read_by)
            for m, indices in read_by.items():
                assert grads[m].indices.tolist() == indices

    def test_stacked_lookup_reads_and_differentiates_as_the_vstack(self):
        """Over several matrices, an empty one included, `take_rows` reads
        what one lookup of their vstack reads, on either tape, and each
        matrix gets its own rows of the vstack's gradient: indices in one
        matrix, in the first and the last only, across all, and none."""
        rng = np.random.default_rng(32)
        sizes = (3, 0, 4, 2)
        mats = [parameter(rng.normal(size=(n, 2)), f"M{k}")
                for k, n in enumerate(sizes)]
        stacked = np.vstack([m.data for m in mats])
        bounds = np.cumsum((0,) + sizes)
        for rows in ([3, 5, 4], [0, 8, 2, 8], [6, 1, 3, 8, 0], [2], []):
            for record in (False, True):
                tape = Tape(record=record)
                read = tape.take_rows(mats, rows)
                assert read.data.shape == (len(rows), 2)
                assert read.data.tobytes() == stacked[rows].tobytes()
                if not (record and rows):
                    continue
                coeffs = rng.normal(size=read.data.shape)
                grads = tape.backward(tape.sumsq(tape.mul(read, Tensor(coeffs))))
                dense = np.zeros_like(stacked)
                np.add.at(dense, rows, 2.0 * read.data * coeffs * coeffs)
                for k, m in enumerate(mats):
                    np.testing.assert_allclose(grad_of(grads, m),
                                               dense[bounds[k]:bounds[k + 1]],
                                               rtol=1e-12, atol=0)


class TestScatterAdd:
    def test_writes_a_non_contiguous_out_in_place(self):
        """A strided or transposed `out` has no flat view, so a block
        above FLAT_SCATTER entries must still land in it, not in a copy."""
        rng = np.random.default_rng(31)
        width = 40
        rows = rng.integers(0, 9, FLAT_SCATTER // width + 5)
        values = rng.normal(size=(len(rows), width))
        for out in (np.zeros((9, 2 * width))[:, ::2],
                    np.zeros((width, 9)).T):
            assert not out.flags.c_contiguous
            want = out.copy()
            np.add.at(want, rows, values)
            _scatter_add(out, rows, values)
            assert out.tobytes() == want.tobytes()
            assert out.any()


class TestGradientMap:
    def test_every_value_has_nbytes_and_lookups_stay_sparse(self):
        rng = np.random.default_rng(13)
        E = parameter(rng.normal(size=(1000, 4)), "E")
        W = parameter(rng.normal(size=(2, 4)), "W")
        tape = Tape()
        rows = [take_row(tape, E, i) for i in (7, 3, 7, 999)]
        total = tape.add(tape.add(rows[0], rows[1]), tape.add(rows[2], rows[3]))
        grads = tape.backward(tape.sumsq(matvec(tape, W, total)))
        assert set(grads) == {E, W}
        for g in grads.values():
            assert g.nbytes > 0
        # three distinct rows: O(touched rows), not the 1000 x 4 table
        assert grads[E].nbytes <= 3 * (4 + 1) * 8
        assert grads[W].nbytes == W.data.nbytes
        dense = grad_of(grads, E)
        assert dense.shape == E.data.shape
        assert np.count_nonzero(np.abs(dense).sum(axis=1)) == 3


class TestOpGradients:
    """Finite-difference checks for each primitive, composed a level up."""

    def _check(self, build_loss, arrays, eps=1e-5, tol=1e-6):
        params = [parameter(a, f"p{i}") for i, a in enumerate(arrays)]

        def run():
            tape = Tape()
            return tape, build_loss(tape, params)

        tape, loss = run()
        grads = tape.backward(loss)
        pairs = [(p.data, grad_of(grads, p)) for p in params]
        err = max_grad_error(lambda: run()[1].item(), pairs, eps=eps)
        assert err < tol, err

    def test_matvec_add_relu_chain(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(4, 3))
        x = rng.normal(size=3)
        b = rng.normal(size=4)

        def build(tape, ps):
            W_, x_, b_ = ps
            return tape.sumsq(tape.relu(tape.add(matvec(tape, W_, x_), b_)))

        self._check(build, [W, x, b])

    def test_tanh_concat_sub_mul(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=3)
        b = rng.normal(size=2)
        m = rng.normal(size=5)

        def build(tape, ps):
            a_, b_, m_ = ps
            cat = concat(tape, [a_, b_])
            masked = tape.mul(tape.tanh(cat), m_)
            return tape.sumsq(tape.sub(masked, cat))

        self._check(build, [a, b, m])

    def test_dimwise_max_routes_to_winners(self):
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=4) for _ in range(3)]
        coeffs = rng.normal(size=4)

        def build(tape, ps):
            stacked = tape.reshape(concat(tape, ps), (len(ps), -1))
            pooled = tape.reshape(tape.segment_max(stacked, [0] * len(ps), 1)[0],
                                  -1)
            return tape.sumsq(tape.mul(pooled, Tensor(coeffs)))

        self._check(build, xs)

    def test_cross_entropy_and_weighted_sum(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=5)
        W = rng.normal(size=(2, 2))

        def build(tape, ps):
            logit_p, W_ = ps
            ce, _, _ = tape.cross_entropy(tape.reshape(logit_p, (1, -1)), [2])
            l2 = tape.sumsq(W_)
            return tape.add(ce, tape.scale(l2, 1e-2))

        self._check(build, [logits, W])

    def test_take_row_scatters(self):
        rng = np.random.default_rng(8)
        E = rng.normal(size=(5, 3))

        def build(tape, ps):
            (E_,) = ps
            r1 = take_row(tape, E_, 1)
            r1_again = take_row(tape, E_, 1)
            r4 = take_row(tape, E_, 4)
            return tape.sumsq(tape.add(tape.add(r1, r4), r1_again))

        self._check(build, [E])

    def test_take_row_and_dense_use_of_one_leaf(self):
        # in replay order the row gradient of row 4 arrives first, then
        # the dense matvec gradient, then the rows of row 1 on top of it
        rng = np.random.default_rng(11)
        E = rng.normal(size=(5, 3))
        x = rng.normal(size=3)

        def build(tape, ps):
            E_, x_ = ps
            r1 = take_row(tape, E_, 1)
            v = matvec(tape, E_, x_)
            r1_again = take_row(tape, E_, 1)
            r4 = take_row(tape, E_, 4)
            rows = tape.add(tape.add(r1, r4), tape.tanh(r1_again))
            return tape.sumsq(concat(tape, [rows, v]))

        self._check(build, [E, x])

    def test_take_row_of_a_computed_matrix(self):
        rng = np.random.default_rng(12)
        E = rng.normal(size=(4, 3))

        def build(tape, ps):
            (E_,) = ps
            M = tape.tanh(tape.scale(E_, 1.5))
            return tape.sumsq(tape.add(take_row(tape, M, 0), take_row(tape, M, 2)))

        self._check(build, [E])

    def test_scale(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=4)

        def build(tape, ps):
            return tape.sumsq(tape.scale(ps[0], -2.5))

        self._check(build, [x])

    # whole-tree array primitives

    def test_take_rows_with_repeated_indices(self):
        rng = np.random.default_rng(20)
        E = rng.normal(size=(6, 3))
        coeffs = rng.normal(size=(4, 3))

        def build(tape, ps):
            rows = tape.take_rows(ps[0], [1, 4, 1, 5])
            return tape.sumsq(tape.mul(tape.tanh(rows), Tensor(coeffs)))

        self._check(build, [E])
        E_ = parameter(E, "E")
        tape = Tape()
        grads = tape.backward(build(tape, [E_]))
        assert isinstance(grads[E_], RowGradient)
        assert sorted(grads[E_].indices.tolist()) == [1, 4, 5]

    # (rows of X, output width, edges per term): a term's destinations
    # lie in the first half of the rows, so some repeat.  The last case
    # has more than GEMM_ROWS rows, a term without edges, and a term
    # whose scatters exceed FLAT_SCATTER entries both forward (edges x
    # width 4) and backward (edges x 3 columns of X)
    @pytest.mark.parametrize("rows,width,counts", [
        (4, 2, [3]),
        (4, 2, []),
        (GEMM_ROWS + 22, 4, [FLAT_SCATTER // 3 + 10, 0, 40]),
    ], ids=["small", "no_edges", "blocked_and_flat"])
    def test_edge_matmul_repeated_destination(self, rows, width, counts):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(rows, 3))
        W = rng.normal(size=(width, 3))
        b = rng.normal(size=width)
        W_edges = [rng.normal(size=(width, 3)) for _ in counts]
        links = [(rng.integers(0, rows, n), rng.integers(0, rows // 2, n))
                 for n in counts]
        coeffs = rng.normal(size=(rows, width))
        assert all(len(np.unique(dst)) < len(dst) for _, dst in links if len(dst))

        def affine(tape, X_, W_, b_, W_es):
            edges = [(W_e, src, dst) for W_e, (src, dst) in zip(W_es, links)]
            return tape.edge_matmul(X_, W_, b_, edges)

        def build(tape, ps):
            out = affine(tape, ps[0], ps[1], ps[2], ps[3:])
            return tape.sumsq(tape.mul(out, Tensor(coeffs)))

        # the loss is quadratic in each entry, so a central difference is
        # exact but for rounding, which a wide step keeps small
        self._check(build, [X, W, b] + W_edges, eps=1e-2)
        out = affine(Tape(), Tensor(X), Tensor(W), Tensor(b),
                     [Tensor(W_e) for W_e in W_edges])
        want = np.array([naive_matvec(W, x) + b for x in X])
        for W_e, (src, dst) in zip(W_edges, links):
            for s, d in zip(src, dst):
                want[d] += naive_matvec(W_e, X[s])
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_add_bias_broadcasts_over_rows(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(3, 2))
        b = rng.normal(size=2)

        def build(tape, ps):
            return tape.sumsq(tape.tanh(add_bias(tape, ps[0], ps[1])))

        self._check(build, [X, b])

    def test_sum_rows_and_reshape(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(3, 4))

        def build(tape, ps):
            total = tape.tanh(tape.sum_rows(ps[0], [0, 0, 0], 1))
            flat = tape.tanh(tape.reshape(ps[0], -1))
            return tape.sumsq(concat(tape, [total, flat]))

        self._check(build, [X])

    def test_sum_rows_into_repeated_and_empty_rows_then_scale_by_column(self):
        """Rows 0 and 2 of X sum into row 1, rows 1 and 3 into row 3; rows
        0 and 2 of the sum are named by no entry and come out zero.  Each
        row of the sum is then scaled by its own factor."""
        rng = np.random.default_rng(25)
        X = rng.normal(size=(4, 3))
        into = [1, 3, 1, 3]
        column = np.array([[0.5], [-2.0], [3.0], [0.25]])
        coeffs = rng.normal(size=(4, 3))

        def build(tape, ps):
            sums = tape.tanh(tape.scale(tape.sum_rows(ps[0], into, 4), column))
            return tape.sumsq(tape.mul(sums, Tensor(coeffs)))

        self._check(build, [X])
        sums = Tape().sum_rows(Tensor(X), into, 4).data
        assert sums.tobytes() == np.array(
            [np.zeros(3), X[0] + X[2], np.zeros(3), X[1] + X[3]]).tobytes()
        with pytest.raises(ContractError, match="out of range"):
            Tape().sum_rows(Tensor(X), [0, 1, 4, 0], 4)

    def test_segment_max_with_empty_slot_routes_to_winners(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(5, 3))
        coeffs = rng.normal(size=(3, 3))
        slot_of = [0, 2, 0, 2, 2]  # slot 1 is empty

        def build(tape, ps):
            pooled, _ = tape.segment_max(ps[0], slot_of, 3)
            return tape.sumsq(tape.mul(pooled, Tensor(coeffs)))

        self._check(build, [X])
        X_ = parameter(X, "X")
        tape = Tape()
        pooled, winners = tape.segment_max(X_, slot_of, 3)
        assert np.array_equal(pooled.data[1], np.zeros(3))
        assert winners[1] is None
        for slot, members in ((0, [0, 2]), (2, [1, 3, 4])):
            assert np.array_equal(winners[slot],
                                  np.array(members)[X[members].argmax(axis=0)])
            assert np.array_equal(pooled.data[slot], X[members].max(axis=0))
        grads = tape.backward(tape.sumsq(tape.mul(pooled, Tensor(coeffs))))
        won = np.zeros(X.shape, dtype=bool)
        for rows in (winners[0], winners[2]):
            won[rows, np.arange(3)] = True
        g = grad_of(grads, X_)
        assert np.all(g[~won] == 0)  # losers receive exactly zero
        assert np.all(g[won] != 0)

    def test_segment_max_tie_goes_to_lowest_row(self):
        X = Tensor([[1.0, 5.0], [2.0, 5.0], [2.0, 0.0]])
        pooled, (arg,) = Tape().segment_max(X, [0, 0, 0], 1)
        assert np.array_equal(arg, [1, 0])
        assert np.array_equal(pooled.data, [[2.0, 5.0]])


class TestTapeProperties:
    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(10)
        W = rng.normal(size=(6, 6))
        x = rng.normal(size=6)

        def run():
            tape = Tape()
            return tape.relu(matvec(tape, Tensor(W), Tensor(x))).data

        assert np.array_equal(run(), run())

    def test_dimwise_max_tie_break_is_lowest_index(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([1.0, 5.0])
        _, (arg,) = Tape().segment_max(Tensor(np.stack([a.data, b.data])),
                                       [0, 0], 1)
        assert np.array_equal(arg, [0, 0])

    def test_stabilized_softmax_handles_huge_logits(self):
        probs = softmax_probs(np.array([1000.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_cross_entropy_flags_rows_whose_gold_probability_underflows(self):
        logits = np.array([[0.0, 800.0, 0.0], [0.3, -0.2, 1.4],
                           [-800.0, 0.0, 0.0]])
        gold = [0, 1, 0]
        _, values, clamped = Tape().cross_entropy(Tensor(logits), gold)
        want = softmax_probs(logits)[np.arange(3), gold] == 0.0
        assert clamped.tolist() == want.tolist() == [True, False, True]
        assert np.isfinite(values).all()

    def test_cross_entropy_matches_log_softmax(self):
        logits = np.array([0.3, -0.2, 1.4])
        ce = Tape().cross_entropy(Tensor(logits[None]), [1])[0].item()
        assert ce == pytest.approx(-np.log(softmax_probs(logits)[1]), abs=1e-12)
