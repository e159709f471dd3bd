"""The reverse pass: leaf-only ``.grad``, parity with the accumulate-everywhere
reference engine, and the scatter in the backward of ``__getitem__``."""

import numpy as np
import pytest

import repro.tensor.tensor as tensor_module
from repro.core import SAGDFN, SAGDFNConfig
from repro.nn.loss import masked_mae
from repro.tensor import Tensor
from repro.tensor.tensor import _positions_are_distinct, _unbroadcast


def _graph_nodes(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``root``, in topological order (root last)."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents if id(parent) not in visited)
    return order


def _reference_backward(root: Tensor, monkeypatch) -> None:
    """The reverse pass as the engine used to run it.

    Every node that requires grad — intermediate or leaf — gets a ``.grad``,
    each contribution is unbroadcast before and again inside the per-node
    accumulate, and every ``__getitem__`` backward scatters with
    ``np.add.at``.  Kept as the oracle the engine's leaf gradients must match
    bit for bit.
    """

    def accumulate(node, grad):
        if not node.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=node.data.dtype), node.data.shape)
        node.grad = grad.copy() if node.grad is None else node.grad + grad

    monkeypatch.setattr(tensor_module, "_positions_are_distinct", lambda index: False)
    try:
        seed = np.ones_like(root.data)
        grads = {id(root): seed}
        accumulate(root, seed)
        for node in reversed(_graph_nodes(root)):
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward is None:
                continue
            for parent, contribution in zip(node._parents, node._backward(node_grad)):
                if contribution is None or not parent.requires_grad:
                    continue
                contribution = _unbroadcast(
                    np.asarray(contribution, dtype=parent.data.dtype), parent.data.shape
                )
                accumulate(parent, contribution)
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + contribution
                else:
                    grads[id(parent)] = contribution
    finally:
        monkeypatch.undo()


def _train_step_loss(iteration: int) -> tuple[SAGDFN, Tensor]:
    """One SAGDFN training-step loss at N=12 (``Trainer.train_epoch``'s recipe)."""
    config = SAGDFNConfig(
        num_nodes=12,
        input_dim=2,
        output_dim=1,
        history=6,
        horizon=6,
        embedding_dim=6,
        num_significant=4,
        top_k=3,
        hidden_size=8,
        num_heads=2,
        ffn_hidden=6,
        diffusion_steps=2,
        convergence_iteration=5,
        seed=3,
    )
    model = SAGDFN(config)
    model.refresh_graph(iteration)
    rng = np.random.default_rng(iteration)
    history = rng.normal(size=(2, 6, 12, 2))
    target = np.abs(rng.normal(size=(2, 6, 12, 1))) + 0.5
    target[0, 0, :3] = 0.0  # masked (missing) targets, as in traffic data
    predictions = model(Tensor(history), targets=Tensor(target))
    return model, masked_mae(predictions, Tensor(target), null_value=0.0)


def _assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()  # zero signs included


class TestReferenceParity:
    @pytest.mark.parametrize("iteration", [0, 100], ids=["index-set-live", "index-set-frozen"])
    def test_parameter_grads_match_the_reference_engine(self, iteration, monkeypatch):
        model, loss = _train_step_loss(iteration)
        loss.backward()
        engine = {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}
        model.zero_grad()
        _reference_backward(loss, monkeypatch)
        reference = {
            name: p.grad for name, p in model.named_parameters() if p.grad is not None
        }
        assert engine.keys() == reference.keys()
        assert len(engine) > 10
        for name in reference:
            _assert_same_bytes(engine[name], reference[name])

    def test_repeated_backward_matches_the_reference_engine(self, monkeypatch):
        model, loss = _train_step_loss(0)
        loss.backward()
        loss.backward()
        engine = {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}
        model.zero_grad()
        _reference_backward(loss, monkeypatch)
        _reference_backward(loss, monkeypatch)
        for name, p in model.named_parameters():
            if p.grad is not None:
                _assert_same_bytes(engine[name], p.grad)


class TestLeafOnlyGradients:
    def test_intermediate_tensors_keep_no_grad(self):
        model, loss = _train_step_loss(0)
        loss.backward()
        nodes = _graph_nodes(loss)
        intermediates = [node for node in nodes if node._backward is not None]
        leaves = [node for node in nodes if node._backward is None and node.requires_grad]
        assert intermediates and leaves
        assert all(node.grad is None for node in intermediates)
        assert all(node.grad is not None for node in leaves)
        assert {id(p) for p in leaves} <= {id(p) for p in model.parameters()}

    def test_leaf_accumulates_across_backward_calls(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        out = ((x * x).tanh() * 2.0).sum()
        out.backward()
        first = x.grad.copy()
        out.backward()
        np.testing.assert_array_equal(x.grad, first + first)
        assert out.grad is None

    def test_backward_on_a_leaf_seeds_its_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        x.backward()
        x.backward()
        np.testing.assert_array_equal(x.grad, [2.0])


_SHAPE = (2, 5, 3)
_GETITEM_CASES = {
    "int": 1,
    "slice": (slice(None), slice(1, 4)),
    "diffusion-gather": (Ellipsis, np.array([4, 0, 2]), slice(None)),
    "repeated-array": (Ellipsis, np.array([0, 2, 2, 4]), slice(None)),
    "negative-alias": (Ellipsis, np.array([4, -1, 1]), slice(None)),
    "boolean-mask": np.arange(30).reshape(_SHAPE) % 4 == 1,
    "2d-int-array": (slice(None), np.array([[0, 1], [1, 3]])),
    "two-arrays": (np.array([0, 1, 1]), np.array([2, 2, 2])),
    "newaxis-ellipsis": (None, Ellipsis, 2),
}


class TestGetitemScatter:
    @pytest.mark.parametrize("index", list(_GETITEM_CASES.values()), ids=list(_GETITEM_CASES))
    def test_backward_matches_add_at(self, index, rng):
        x = Tensor(rng.normal(size=_SHAPE), requires_grad=True)
        out = x[index]
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        expected = np.zeros(_SHAPE)
        np.add.at(expected, index, upstream)
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize(
        "index, distinct",
        [
            (3, True),
            (np.int64(3), True),
            (slice(None, None, -1), True),
            ((Ellipsis, np.array([5, 1, 3]), slice(None)), True),
            ((None, np.array([], dtype=np.int64)), True),
            (np.array([1, 1]), False),
            (np.array([0, -1]), False),
            (np.array([True, False]), False),
            (np.array([[0, 1]]), False),
            ((np.array([0]), np.array([1])), False),
            ([0, 1], False),
            (True, False),
        ],
    )
    def test_positions_are_distinct(self, index, distinct):
        assert _positions_are_distinct(index) is distinct
