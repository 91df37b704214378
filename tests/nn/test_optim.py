"""Optimiser behaviour: SGD and Adam."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, Adam, Parameter, Tensor


def quadratic_loss(param: Parameter) -> Tensor:
    """(p - 3)^2 summed — unique minimum at p = 3."""
    diff = param - Tensor(np.full(param.shape, 3.0))
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            loss = quadratic_loss(param)
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            param = Parameter(np.zeros(1))
            opt = SGD([param], lr=0.01, momentum=momentum)
            for _ in range(50):
                loss = quadratic_loss(param)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return abs(float(param.data[0]) - 3.0)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.full(3, 10.0))
        opt = SGD([param], lr=0.1, weight_decay=0.5)
        # Zero loss gradient: decay alone should shrink the parameter.
        param.grad = np.zeros(3)
        opt.step()
        assert np.all(np.abs(param.data) < 10.0)

    def test_skips_parameters_without_grad(self):
        param = Parameter(np.ones(2))
        opt = SGD([param], lr=0.1)
        opt.step()  # no grad: no change, no crash
        np.testing.assert_array_equal(param.data, np.ones(2))

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(1))], lr=0.0)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            loss = quadratic_loss(param)
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, 3.0, atol=1e-2)

    def test_bias_correction_first_step(self):
        """After one step from zero moments, the update is ~lr-sized."""
        param = Parameter(np.asarray([0.0]))
        opt = Adam([param], lr=0.5)
        param.grad = np.asarray([1.0])
        opt.step()
        assert float(param.data[0]) == pytest.approx(-0.5, rel=1e-4)

    def test_zero_grad(self):
        param = Parameter(np.zeros(2))
        opt = Adam([param])
        param.grad = np.ones(2)
        opt.zero_grad()
        assert param.grad is None

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=-1.0)


class TestAdamAliases:
    """A tensor listed k times steps bit-identically to the per-entry loop."""

    @staticmethod
    def run(optimizer_cls, weight_decay, steps=7, listings=3):
        rng = np.random.default_rng(5)
        shared = Parameter(rng.normal(size=(6, 4)))
        other = Parameter(rng.normal(size=(3,)))
        params = [shared, other] + [shared] * (listings - 1)
        opt = optimizer_cls(params, lr=0.05, weight_decay=weight_decay)
        for _ in range(steps):
            shared.grad = rng.normal(size=shared.shape) * 10.0
            other.grad = rng.normal(size=other.shape)
            opt.step()
        return opt, shared, other

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_identical_to_per_entry_loop(self, weight_decay):
        from repro.verify.parallel_oracles import _ReferenceAdam

        _, shared, other = self.run(Adam, weight_decay)
        _, ref_shared, ref_other = self.run(_ReferenceAdam, weight_decay)
        assert shared.data.tobytes() == ref_shared.data.tobytes()
        assert other.data.tobytes() == ref_other.data.tobytes()

    def test_params_keep_every_listing(self):
        opt, shared, other = self.run(Adam, 0.0, steps=1, listings=4)
        expected = [shared, other, shared, shared, shared]
        assert [id(p) for p in opt.params] == [id(p) for p in expected]

    def test_one_moment_pair_per_distinct_tensor(self):
        opt, _, _ = self.run(Adam, 0.0, steps=1, listings=4)
        assert len(opt._m) == len(opt._v) == 2

    def test_weight_decay_keeps_moments_per_listing(self):
        opt, _, _ = self.run(Adam, 0.01, steps=1, listings=4)
        assert len(opt._m) == len(opt._v) == 5
