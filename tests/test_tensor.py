import numpy as np
import pytest

from elastinet.errors import DimensionError, EmbeddingIndexError
from elastinet.tensor import (
    Parameter,
    Tensor,
    add,
    backward,
    concat_cols,
    embedding_lookup,
    mse_loss,
    relu,
    scale,
    sum_sq,
)
from reference_ops import add_bias, matmul


def tsum(x: Tensor) -> Tensor:
    """Sum of every entry, as a 1x1 loss node: gradient checks backpropagate from it."""

    def vjp(g):
        return (np.full(x.shape, g[0, 0]),)

    return Tensor(np.array([[x.data.sum()]]), (x,), vjp)


def central_diff(f, param, r, c, h=1e-5):
    saved = param.data[r, c]
    param.data[r, c] = saved + h
    f_plus = f()
    param.data[r, c] = saved - h
    f_minus = f()
    param.data[r, c] = saved
    return (f_plus - f_minus) / (2 * h)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(matmul(a, eye).data, a.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        a = Parameter(rng.normal(size=(3, 4)), name="a")
        b = Parameter(rng.normal(size=(4, 2)), name="b")

        def loss_value():
            return tsum(matmul(a, b)).item()

        backward(tsum(matmul(a, b)))
        for p in (a, b):
            for r in range(p.rows):
                for c in range(p.cols):
                    numeric = central_diff(loss_value, p, r, c)
                    analytic = p.grad[r, c]
                    assert abs(analytic - numeric) / max(abs(numeric), 1.0) < 1e-6


class TestRelu:
    def test_definition(self):
        out = relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert out.data.tolist() == [[0.0, 0.0, 2.0]]

    def test_all_negative_is_all_zero(self):
        out = relu(Tensor([[-5.0, -0.1, -2.0]]))
        assert np.all(out.data == 0.0)

    def test_gradient_passes_only_where_positive(self):
        x = Parameter([[3.0, -3.0]], name="x")
        backward(tsum(relu(x)))
        assert x.grad.tolist() == [[1.0, 0.0]]


class TestEmbeddingLookup:
    def test_gather(self):
        table = Parameter([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], name="t")
        out = embedding_lookup(table, [2, 0])
        assert out.data.tolist() == [[3.0, 3.0], [1.0, 1.0]]

    def test_repeated_index_accumulates(self):
        table = Parameter([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], name="t")
        backward(tsum(embedding_lookup(table, [1, 1])))
        assert table.grad[1].tolist() == [2.0, 2.0]
        assert table.grad[0].tolist() == [0.0, 0.0]

    def test_out_of_range_reports_index_and_size(self):
        table = Parameter(np.ones((3, 2)), name="t")
        with pytest.raises(EmbeddingIndexError, match="index 5.*3 rows"):
            embedding_lookup(table, [0, 5])


class TestMseLoss:
    def test_hand_value(self):
        loss = mse_loss(Tensor([[1.0], [3.0]]), Tensor([[1.0], [2.0]]))
        assert loss.item() == 0.5

    def test_identical_inputs_give_zero(self):
        x = Tensor([[1.5], [2.5]])
        assert mse_loss(x, x).item() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1))))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        pred = Parameter(rng.normal(size=(5, 1)), name="pred")
        target = Tensor(rng.normal(size=(5, 1)))

        def loss_value():
            return mse_loss(pred, target).item()

        backward(mse_loss(pred, target))
        for r in range(5):
            numeric = central_diff(loss_value, pred, r, 0)
            assert abs(pred.grad[r, 0] - numeric) / max(abs(numeric), 1.0) < 1e-6


class TestTapeSemantics:
    def test_backward_twice_doubles_parameter_gradients(self):
        rng = np.random.default_rng(2)
        w = Parameter(rng.normal(size=(3, 2)), name="w")
        x = Tensor(rng.normal(size=(4, 3)))
        target = Tensor(rng.normal(size=(4, 2)))

        loss = mse_loss(matmul(x, w), target)
        backward(loss)
        once = w.grad.copy()
        backward(loss)
        assert np.allclose(w.grad, 2.0 * once)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        out1 = matmul(Tensor(x), Tensor(w)).data
        out2 = matmul(Tensor(x), Tensor(w)).data
        assert np.array_equal(out1, out2)

    def test_shared_node_gradients_accumulate(self):
        w = Parameter([[2.0]], name="w")
        # loss = w*w via two consumers of the same node
        loss = tsum(add(matmul(w, w), matmul(w, w)))
        backward(loss)
        assert w.grad[0, 0] == pytest.approx(8.0)  # d(2w^2)/dw = 4w

    def test_backward_requires_scalar(self):
        with pytest.raises(DimensionError):
            backward(Tensor(np.ones((2, 2))))


class TestShapes:
    def test_scalars_and_vectors_become_2d(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0]).shape == (1, 2)

    def test_add_bias_broadcasts_rows_only(self):
        x = Tensor(np.ones((3, 2)))
        b = Parameter(np.array([[1.0, 2.0]]), name="b")
        out = add_bias(x, b)
        assert out.data.tolist() == [[2.0, 3.0]] * 3
        with pytest.raises(DimensionError):
            add_bias(x, Parameter(np.ones((2, 2)), name="bad"))

    def test_bias_gradient_sums_rows(self):
        x = Tensor(np.ones((3, 2)))
        b = Parameter(np.zeros((1, 2)), name="b")
        backward(tsum(add_bias(x, b)))
        assert b.grad.tolist() == [[3.0, 3.0]]

    def test_concat_cols_and_gradient_split(self):
        a = Parameter(np.ones((2, 2)), name="a")
        b = Parameter(np.full((2, 3), 2.0), name="b")
        out = concat_cols([a, b])
        assert out.shape == (2, 5)
        backward(tsum(out))
        assert np.all(a.grad == 1.0) and np.all(b.grad == 1.0)

    def test_sum_sq(self):
        w = Parameter([[1.0, -2.0]], name="w")
        loss = sum_sq(w)
        assert loss.item() == 5.0
        backward(loss)
        assert w.grad.tolist() == [[2.0, -4.0]]

    def test_sum_sq_of_several_tensors_is_one_node(self):
        rng = np.random.default_rng(3)
        xs = [Parameter(rng.normal(size=shape), name=f"x{i}") for i, shape in enumerate([(2, 3), (1, 1), (4, 2)])]
        loss = sum_sq(*xs)
        assert loss._parents == tuple(xs)
        assert loss.item() == pytest.approx(sum(float(np.sum(x.data**2)) for x in xs), rel=1e-15)
        backward(scale(loss, 0.5))
        for x in xs:
            assert np.array_equal(x.grad, 2.0 * x.data * 0.5)
        with pytest.raises(DimensionError):
            sum_sq()
