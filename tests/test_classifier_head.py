import numpy as np
import pytest

from treeconv.classifier_head import (
    HeadParams,
    dropout_mask,
    forward,
    init_head,
    loss,
    predictions,
    transfer_5_to_2,
)
from treeconv.config import TrainConfig
from treeconv.corpus_io import build_dep_inventory
from treeconv.errors import ConfigError, ShapeError
from treeconv.network import SentenceClassifier, init_model
from treeconv.synthetic import fixture_pair
from treeconv.tensor_core import (
    Tape,
    Tensor,
    grad_of,
    l2_penalty,
    parameter,
    softmax_probs,
)

from helpers import naive_matvec


def zero_head(n_h, in_width, classes):
    return HeadParams(
        W_h=parameter(np.zeros((n_h, in_width)), "head.W_h"),
        b_h=parameter(np.zeros(n_h), "head.b_h"),
        W_o=parameter(np.zeros((classes, n_h)), "head.W_o"),
        b_o=parameter(np.zeros(classes), "head.b_o"),
    )


def pooled_from(arrays):
    """One sample's pooled slots, flattened slot by slot into a row."""
    return Tensor(np.concatenate(arrays)[None])


def predict_one(tape, pooled, params):
    return predictions(forward(tape, pooled, params).data)[0]


class TestForward:
    def test_zero_params_give_uniform(self):
        pooled = pooled_from([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        pred = predict_one(Tape(), pooled, zero_head(3, 4, 5))
        assert np.allclose(pred.probabilities, 0.2)
        assert abs(pred.probabilities.sum() - 1.0) < 1e-9
        assert pred.predicted == 0  # tie goes to the lowest index

    def test_huge_logits_do_not_overflow(self):
        probs = softmax_probs(np.array([1000.0, 0.0]))
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0, abs=1e-300)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(0)
        params = init_head(4, 6, 3, rng)
        slots = [rng.normal(size=3), rng.normal(size=3)]
        pred = predict_one(Tape(), pooled_from(slots), params)

        concat = np.concatenate(slots)
        h = np.maximum(naive_matvec(params.W_h.data, concat) + params.b_h.data, 0.0)
        logits = naive_matvec(params.W_o.data, h) + params.b_o.data
        want = np.exp(logits - logits.max())
        want = want / want.sum()
        assert np.max(np.abs(pred.probabilities - want)) < 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            forward(Tape(), pooled_from([np.zeros(3)]), zero_head(2, 5, 2))

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=4)
        shifted = softmax_probs(logits + 123.456)
        assert np.max(np.abs(softmax_probs(logits) - shifted)) < 1e-12


class TestLoss:
    def test_uniform_prediction_costs_ln_c(self):
        pooled = pooled_from([np.array([1.0, -1.0])])
        tape = Tape()
        logits = forward(tape, pooled, zero_head(2, 2, 4))
        lv = loss(tape, logits, gold=[2])
        assert lv.cross_entropy == pytest.approx(np.log(4))
        assert lv.node.item() == lv.cross_entropy

    def test_near_perfect_prediction_approaches_zero(self):
        tape = Tape()
        logits = Tensor(np.array([[50.0, 0.0]]), requires_grad=True)
        lv = loss(tape, logits, gold=[0])
        assert 0.0 <= lv.cross_entropy < 1e-20

    def test_l2_term_matches_hand_summation(self):
        rng = np.random.default_rng(2)
        W1 = parameter(rng.normal(size=(2, 3)), "W1")
        W2 = parameter(rng.normal(size=(3, 2)), "W2")
        lam = 1e-5
        value, grads = l2_penalty([W1, W2], lam)

        brute = 0.0
        for W in (W1, W2):
            for entry in W.data.flat:
                brute += entry * entry
        assert value == pytest.approx(lam * brute, rel=1e-9)
        assert set(grads) == {W1, W2}
        for W in (W1, W2):
            assert np.array_equal(grads[W], 2.0 * lam * W.data)
        assert l2_penalty([W1, W2], 0.0) == (0.0, {})

    def test_underflow_flagged_not_infinite(self):
        tape = Tape()
        logits = Tensor(np.array([[0.0, 800.0]]), requires_grad=True)
        probs = softmax_probs(logits.data[0])
        assert probs[0] == 0.0  # underflow forced
        lv = loss(tape, logits, gold=[0])
        assert lv.clamped
        assert np.isfinite(lv.cross_entropy)


class TestTransfer:
    def test_symmetric_case_ties_to_negative(self):
        pred = transfer_5_to_2(np.array([0.1, 0.2, 0.4, 0.2, 0.1]))
        assert np.allclose(pred.probabilities, [0.5, 0.5])
        assert pred.predicted == 0

    def test_pure_strong_positive(self):
        pred = transfer_5_to_2(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert np.array_equal(pred.probabilities, [0.0, 1.0])
        assert pred.predicted == 1

    def test_arithmetic_case(self):
        pred = transfer_5_to_2(np.array([0.3, 0.3, 0.2, 0.1, 0.1]))
        assert np.allclose(pred.probabilities, [0.75, 0.25])
        assert pred.predicted == 0

    def test_all_neutral_flags_and_predicts_negative(self):
        pred = transfer_5_to_2(np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        assert pred.predicted == 0
        assert pred.note is not None

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        p = rng.random(5)
        base = transfer_5_to_2(p)
        for c in (0.1, 2.0, 1000.0):
            q = p.copy()
            q[[0, 1, 3, 4]] *= c
            assert transfer_5_to_2(q).predicted == base.predicted

    def test_wrong_arity(self):
        with pytest.raises(ShapeError):
            transfer_5_to_2(np.array([0.5, 0.5]))


class TestDropout:
    def test_rate_zero_all_ones(self):
        rng = np.random.default_rng(4)
        assert np.array_equal(dropout_mask(5, 0.0, rng), np.ones(5))

    def test_without_an_rng_is_identity(self):
        # a call without an rng draws no mask: the logits, the loss and
        # its gradients are the undropped model's
        _, dep, _, table = fixture_pair(n_e=4, seed=5)
        inventory = build_dep_inventory([dep])
        params = init_model(TrainConfig(variant="d", n_e=4, n_c=4, n_h=4,
                                        classes=3),
                            table, inventory, np.random.default_rng(5))
        results = []
        for rate in (0.5, 0.0):
            config = TrainConfig(variant="d", n_e=4, n_c=4, n_h=4, classes=3,
                                 dropout_embed=rate, dropout_hidden=rate)
            clf = SentenceClassifier(config, params, inventory=inventory)
            tape = Tape()
            value = clf.loss(tape, [dep], [1])
            grads = tape.backward(value.node)
            results.append([clf.logits(Tape(), [dep]).data, value.per_row]
                           + [grad_of(grads, p) for _, p in params.named()])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout_mask(3, 1.0, np.random.default_rng(6))

    def test_monte_carlo_drop_fraction(self):
        rng = np.random.default_rng(7)
        mask = dropout_mask(10**6, 0.5, rng)
        dropped = np.mean(mask == 0.0)
        assert abs(dropped - 0.5) < 0.005

    def test_inverted_dropout_expectation(self):
        rng = np.random.default_rng(8)
        activation = 3.7
        mask = dropout_mask(10**6, 0.4, rng)
        masked_mean = float(np.mean(mask * activation))
        assert abs(masked_mean - activation) / activation < 0.01
