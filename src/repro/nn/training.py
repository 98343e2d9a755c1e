"""Training loop for source DNNs.

The conversion experiments only need modest accuracy on the synthetic tasks,
but the trainer is a complete implementation: shuffled mini-batches, learning
rate schedules, gradient clipping, and per-epoch evaluation history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.network import Sequential
from repro.nn.optim import Optimizer
from repro.utils.rng import as_generator

__all__ = ["TrainHistory", "Trainer", "accuracy", "step_decay"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` (N, C) against integer ``labels`` (N,)."""
    if len(logits) == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float((logits.argmax(axis=1) == labels).mean())


@dataclass
class TrainHistory:
    """Per-epoch record of a training run."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Mini-batch trainer for :class:`~repro.nn.network.Sequential` models.

    Parameters
    ----------
    model:
        The network to train (modified in place).
    optimizer:
        Any :class:`~repro.nn.optim.Optimizer` over ``model.params()``.
    loss:
        Defaults to fused softmax cross-entropy.
    grad_clip:
        Optional global-norm gradient clipping threshold.
    lr_schedule:
        Optional callable ``epoch -> multiplier`` applied to the base lr.
    """

    def __init__(
        self,
        model: Sequential,
        optimizer: Optimizer,
        loss: Loss | None = None,
        grad_clip: float | None = None,
        lr_schedule=None,
        rng=None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.grad_clip = grad_clip
        self.lr_schedule = lr_schedule
        self._rng = as_generator(rng)
        self._base_lr = optimizer.lr

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimization step; returns the batch loss."""
        self.optimizer.zero_grad()
        logits = self.model.forward(x, training=True)
        loss_value = self.loss.forward(logits, y)
        self.model.backward(self.loss.backward())
        if self.grad_clip is not None:
            self._clip_gradients()
        self.optimizer.step()
        return loss_value

    def _clip_gradients(self) -> None:
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in self.model.params()))
        if total > self.grad_clip:
            scale = self.grad_clip / (total + 1e-12)
            for p in self.model.params():
                p.grad *= scale

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int = 64,
        val_data: tuple[np.ndarray, np.ndarray] | None = None,
        verbose: bool = False,
    ) -> TrainHistory:
        """Train for ``epochs`` passes over ``(x, y)``.

        Returns the accumulated :class:`TrainHistory`.
        """
        if len(x) != len(y):
            raise ValueError(f"x and y disagree on length: {len(x)} vs {len(y)}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        history = TrainHistory()
        n = len(x)
        for epoch in range(epochs):
            if self.lr_schedule is not None:
                self.optimizer.lr = self._base_lr * self.lr_schedule(epoch)
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            correct = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb, yb = x[idx], y[idx]
                loss_value = self.train_batch(xb, yb)
                epoch_loss += loss_value * len(idx)
                logits = self.model.forward(xb, training=False)
                correct += int((logits.argmax(axis=1) == yb).sum())
            history.train_loss.append(epoch_loss / n)
            history.train_accuracy.append(correct / n)
            if val_data is not None:
                val_logits = self.model.predict(val_data[0])
                history.val_accuracy.append(accuracy(val_logits, val_data[1]))
            if verbose:  # pragma: no cover - logging only
                msg = (
                    f"epoch {epoch + 1}/{epochs}: loss={history.train_loss[-1]:.4f} "
                    f"train_acc={history.train_accuracy[-1]:.4f}"
                )
                if val_data is not None:
                    msg += f" val_acc={history.val_accuracy[-1]:.4f}"
                print(msg)
        return history

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy on ``(x, y)`` in inference mode."""
        return accuracy(self.model.predict(x, batch_size=batch_size), y)


def step_decay(milestones: list[int], gamma: float = 0.1):
    """Return an lr multiplier schedule that decays by ``gamma`` at each milestone."""

    def schedule(epoch: int) -> float:
        power = sum(1 for m in milestones if epoch >= m)
        return gamma**power

    return schedule
