import numpy as np
import pytest

from treeconv.errors import ContractError, ShapeError
from treeconv.tensor_core import (
    Tape,
    Tensor,
    grad_of,
    matrix,
    parameter,
    softmax_probs,
    vector,
)

from helpers import max_grad_error, naive_matvec


class TestMatvec:
    def test_identity(self):
        tape = Tape()
        W = matrix(np.eye(3))
        x = vector([1.0, 2.0, 3.0])
        assert np.array_equal(tape.matvec(W, x).data, [1.0, 2.0, 3.0])

    def test_zero_matrix_annihilates(self):
        tape = Tape()
        W = matrix(np.zeros((2, 3)))
        x = vector([4.0, -5.0, 6.0])
        assert np.array_equal(tape.matvec(W, x).data, [0.0, 0.0])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(4, 5))
        x = rng.normal(size=5)
        got = Tape().matvec(matrix(W), vector(x)).data
        assert np.max(np.abs(got - naive_matvec(W, x))) < 1e-12

    def test_shape_error_names_both_operands(self):
        W = matrix(np.zeros((2, 3)), name="weights")
        x = vector(np.zeros(4), name="input")
        with pytest.raises(ShapeError, match="weights.*input"):
            Tape().matvec(W, x)


class TestRelu:
    def test_sign_cases(self):
        out = Tape().relu(vector([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative_goes_to_zero(self):
        out = Tape().relu(vector([-3.0, -0.5, -1e-9]))
        assert np.array_equal(out.data, [0.0, 0.0, 0.0])

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=32)
        got = Tape().relu(vector(x)).data
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
            Tape().backward(vector([1.0, 2.0]))

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


class TestGradientMap:
    def test_every_value_has_nbytes_and_lookups_stay_sparse(self):
        rng = np.random.default_rng(13)
        E = parameter(rng.normal(size=(1000, 4)), "E")
        W = parameter(rng.normal(size=(2, 4)), "W")
        tape = Tape()
        rows = [tape.take_row(E, i) for i in (7, 3, 7, 999)]
        total = tape.add(tape.add(rows[0], rows[1]), tape.add(rows[2], rows[3]))
        grads = tape.backward(tape.sumsq(tape.matvec(W, total)))
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
            return tape.sumsq(tape.relu(tape.add(tape.matvec(W_, x_), b_)))

        self._check(build, [W, x, b])

    def test_tanh_concat_sub_mul(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=3)
        b = rng.normal(size=2)
        m = rng.normal(size=5)

        def build(tape, ps):
            a_, b_, m_ = ps
            cat = tape.concat([a_, b_])
            masked = tape.mul(tape.tanh(cat), m_)
            return tape.sumsq(tape.sub(masked, cat))

        self._check(build, [a, b, m])

    def test_dimwise_max_routes_to_winners(self):
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=4) for _ in range(3)]
        coeffs = rng.normal(size=4)

        def build(tape, ps):
            pooled, _ = tape.dimwise_max(ps)
            return tape.sumsq(tape.mul(pooled, Tensor(coeffs)))

        self._check(build, xs)

    def test_cross_entropy_and_weighted_sum(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=5)
        W = rng.normal(size=(2, 2))

        def build(tape, ps):
            logit_p, W_ = ps
            ce = tape.cross_entropy(logit_p, 2)
            l2 = tape.sumsq(W_)
            return tape.weighted_sum([ce, l2], [1.0, 1e-2])

        self._check(build, [logits, W])

    def test_take_row_scatters(self):
        rng = np.random.default_rng(8)
        E = rng.normal(size=(5, 3))

        def build(tape, ps):
            (E_,) = ps
            r1 = tape.take_row(E_, 1)
            r1_again = tape.take_row(E_, 1)
            r4 = tape.take_row(E_, 4)
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
            r1 = tape.take_row(E_, 1)
            v = tape.matvec(E_, x_)
            r1_again = tape.take_row(E_, 1)
            r4 = tape.take_row(E_, 4)
            rows = tape.add(tape.add(r1, r4), tape.tanh(r1_again))
            return tape.sumsq(tape.concat([rows, v]))

        self._check(build, [E, x])

    def test_take_row_of_a_computed_matrix(self):
        rng = np.random.default_rng(12)
        E = rng.normal(size=(4, 3))

        def build(tape, ps):
            (E_,) = ps
            M = tape.tanh(tape.scale(E_, 1.5))
            return tape.sumsq(tape.add(tape.take_row(M, 0), tape.take_row(M, 2)))

        self._check(build, [E])

    def test_scale(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=4)

        def build(tape, ps):
            return tape.sumsq(tape.scale(ps[0], -2.5))

        self._check(build, [x])


class TestTapeProperties:
    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(10)
        W = rng.normal(size=(6, 6))
        x = rng.normal(size=6)

        def run():
            tape = Tape()
            return tape.relu(tape.matvec(matrix(W), vector(x))).data

        assert np.array_equal(run(), run())

    def test_dimwise_max_tie_break_is_lowest_index(self):
        a = vector([1.0, 5.0])
        b = vector([1.0, 5.0])
        _, arg = Tape().dimwise_max([a, b])
        assert np.array_equal(arg, [0, 0])

    def test_stabilized_softmax_handles_huge_logits(self):
        probs = softmax_probs(np.array([1000.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_cross_entropy_matches_log_softmax(self):
        logits = np.array([0.3, -0.2, 1.4])
        ce = Tape().cross_entropy(vector(logits), 1).item()
        assert ce == pytest.approx(-np.log(softmax_probs(logits)[1]), abs=1e-12)
