"""Latency models.

A :class:`LatencyModel` turns an abstract operation into a number of
virtual seconds.  The TPM timing profiles, the network model and the human
user model are all expressed in terms of these distributions, so every
experiment can swap a constant for a noisy distribution without touching
component code.
"""

from __future__ import annotations


import random
from abc import ABC, abstractmethod
from typing import Optional, Sequence


class LatencyModel(ABC):
    """Samples a non-negative latency in seconds."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one latency value using ``rng``."""

    @abstractmethod
    def mean(self) -> float:
        """Expected value of the distribution (used by analytical checks)."""

    def __call__(self, rng: random.Random) -> float:
        return self.sample(rng)


class ConstantLatency(LatencyModel):
    """Always returns the same value."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        self.seconds = float(seconds)

    def sample(self, rng: random.Random) -> float:
        return self.seconds

    def mean(self) -> float:
        return self.seconds

    def __repr__(self) -> str:
        return f"ConstantLatency({self.seconds!r})"


class UniformLatency(LatencyModel):
    """Uniform over ``[low, high]`` seconds."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"invalid uniform range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency({self.low!r}, {self.high!r})"


class NormalLatency(LatencyModel):
    """Normal distribution truncated from below (clamped at a floor).

    The floor defaults to ``max(0, mu - 4*sigma)``: far enough out that
    clamping barely distorts the distribution.  Clamping (rather than
    resampling) keeps RNG consumption at exactly one draw per sample
    regardless of the outcome, so every later sample in the stream
    lands on the same draw whatever the earlier values were.
    """

    def __init__(
        self, mu: float, sigma: float, floor: Optional[float] = None
    ) -> None:
        if mu < 0:
            raise ValueError(f"mean latency must be non-negative, got {mu}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        if floor is None:
            floor = max(0.0, self.mu - 4.0 * self.sigma)
        if floor < 0:
            raise ValueError(f"floor must be non-negative, got {floor}")
        if floor > mu:
            raise ValueError(f"floor {floor} exceeds mean {mu}")
        self.floor = float(floor)

    def sample(self, rng: random.Random) -> float:
        if self.sigma == 0:
            return self.mu
        value = rng.normalvariate(self.mu, self.sigma)
        return value if value >= self.floor else self.floor

    def mean(self) -> float:
        # The floor sits >= 4 sigma below mu for every model in this
        # repo, so the clamping bias is negligible; analytical consumers
        # only use models with mu >= 3*sigma.
        return self.mu

    def __repr__(self) -> str:
        return (
            f"NormalLatency(mu={self.mu!r}, sigma={self.sigma!r}, "
            f"floor={self.floor!r})"
        )


class EmpiricalLatency(LatencyModel):
    """Samples from an empirical CDF given observed values.

    Used to replay measured distributions (e.g. published TPM latency
    scatter) with linear interpolation between order statistics.
    """

    def __init__(self, observations: Sequence[float]) -> None:
        if not observations:
            raise ValueError("empirical model needs at least one observation")
        if any(value < 0 for value in observations):
            raise ValueError("observations must be non-negative")
        self._sorted = sorted(float(value) for value in observations)

    def sample(self, rng: random.Random) -> float:
        if len(self._sorted) == 1:
            return self._sorted[0]
        position = rng.random() * (len(self._sorted) - 1)
        index = int(position)
        frac = position - index
        if index + 1 >= len(self._sorted):
            return self._sorted[-1]
        return self._sorted[index] * (1 - frac) + self._sorted[index + 1] * frac

    def mean(self) -> float:
        return sum(self._sorted) / len(self._sorted)

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (0 <= q <= 1) of the observations."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        position = q * (len(self._sorted) - 1)
        index = int(position)
        frac = position - index
        if index + 1 >= len(self._sorted):
            return self._sorted[-1]
        return self._sorted[index] * (1 - frac) + self._sorted[index + 1] * frac

    def __repr__(self) -> str:
        return f"EmpiricalLatency(n={len(self._sorted)}, mean={self.mean():.6f})"


def scaled(model: LatencyModel, factor: float) -> LatencyModel:
    """Return a model whose samples are ``factor`` times the original's."""

    class _Scaled(LatencyModel):
        def sample(self, rng: random.Random) -> float:
            return model.sample(rng) * factor

        def mean(self) -> float:
            return model.mean() * factor

        def __repr__(self) -> str:
            return f"scaled({model!r}, {factor!r})"

    if factor < 0:
        raise ValueError(f"scale factor must be non-negative, got {factor}")
    return _Scaled()
