"""First-order optimisers: SGD (with momentum) and Adam."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Tuple

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimiser over a fixed list of parameters."""

    def __init__(self, params: Iterable[Parameter]):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimiser received no parameters")

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimiser the paper trains with.

    A tensor listed several times in ``params`` (a module shared between
    parents) is stepped once per listing, as if each were its own
    parameter.  Without weight decay those listings see the same gradient
    from the same zero moments, so their moments stay bitwise equal: one
    ``m``/``v`` pair per distinct tensor is kept, the update is computed
    once and subtracted once per listing.  With weight decay the update
    depends on the parameter, which moves between listings, so every
    listing keeps its own moments.  :attr:`params` is the list as given.

    The arithmetic runs in two scratch buffers sized to the largest
    parameter, through the same ufuncs in the same order as the textbook
    expressions, so no parameter-sized temporaries are allocated per step.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        # (tensor, listings) per moment pair, in order of first listing.
        self._groups: List[Tuple[Parameter, int]]
        if weight_decay:
            self._groups = [(param, 1) for param in self.params]
        else:
            listings = Counter(id(param) for param in self.params)
            distinct = {id(param): param for param in self.params}
            self._groups = [(param, listings[key]) for key, param in distinct.items()]
        self._m = [np.zeros_like(param.data) for param, _ in self._groups]
        self._v = [np.zeros_like(param.data) for param, _ in self._groups]
        largest = max(param.data.size for param in self.params)
        buffers = (np.empty(largest), np.empty(largest))
        # Per moment pair: two views of the shared buffers, shaped like it.
        self._scratch = [
            tuple(buffer[: param.data.size].reshape(param.data.shape) for buffer in buffers)
            for param, _ in self._groups
        ]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for (param, listings), m, v, (a, b) in zip(
            self._groups, self._m, self._v, self._scratch
        ):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                # grad + weight_decay * param
                grad = np.add(grad, np.multiply(self.weight_decay, param.data, out=a), out=a)
            # m = beta1 * m + (1 - beta1) * grad
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, grad, out=b)
            # v = beta2 * v + (1 - beta2) * grad**2
            v *= self.beta2
            v += np.multiply(1.0 - self.beta2, np.square(grad, out=b), out=b)
            # update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
            update = np.multiply(self.lr, np.divide(m, bias1, out=a), out=a)
            denominator = np.add(np.sqrt(np.divide(v, bias2, out=b), out=b), self.eps, out=b)
            np.divide(update, denominator, out=update)
            for _ in range(listings):
                param.data -= update
