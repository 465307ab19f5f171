"""Latency models for the simulated network.

A latency model maps a (source, destination) pair to a delivery delay drawn
from a named RNG stream, so changing the model for one experiment never
perturbs other components' randomness.

Models additionally expose :meth:`LatencyModel.min_delay`, a per-ordered-pair
*lower bound* on what :meth:`~LatencyModel.sample` can return.  The parallel
engine's demand-driven window planner uses these bounds as per-destination
lookahead: a heterogeneous model (:class:`ZonedLatency`) lets a shard whose
outbound links are all slow advertise a much later earliest-output-time than
the global ``NetworkConfig.min_latency`` would allow.  Returning ``None``
means "no bound known for this pair"; the planner then falls back to the
configured global minimum, preserving the historical contract that
``NetworkConfig.min_latency`` under-approximates every custom model.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple, Union

from ..errors import ConfigError
from ..ids import SiteId


class LatencyModel(ABC):
    """Strategy interface: delay for one message between two sites."""

    @abstractmethod
    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        """Return a non-negative delivery delay."""

    def sampler(self, src: SiteId, dst: SiteId) -> Callable[[random.Random], float]:
        """:meth:`sample` with the ordered pair bound: ``draw(rng) -> delay``.

        The network resolves this once per link and calls it per message.
        The returned function must consume exactly the draws ``sample``
        would, and return exactly its value; this default does so by calling
        it, so a model that defines only ``sample`` needs nothing more.  A
        model that overrides this to skip a call layer must override it
        again wherever it overrides ``sample``.
        """
        sample = self.sample
        return lambda rng: sample(rng, src, dst)

    def min_delay(self, src: SiteId, dst: SiteId) -> Optional[float]:
        """Lower bound on :meth:`sample` for this ordered pair, or ``None``.

        ``None`` (the default for models that do not know their floor)
        makes consumers fall back to ``NetworkConfig.min_latency``.  An
        override must never exceed any value ``sample`` can return for the
        pair -- the parallel engine's safety argument rests on it.
        """
        return None


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0):
        if delay < 0:
            raise ConfigError("delay must be >= 0")
        self.delay = delay

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        return self.delay

    def min_delay(self, src: SiteId, dst: SiteId) -> Optional[float]:
        return self.delay


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from [low, high]."""

    def __init__(self, low: float = 1.0, high: float = 5.0):
        if low < 0 or high < low:
            raise ConfigError("require 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        return rng.uniform(self.low, self.high)

    def sampler(self, src: SiteId, dst: SiteId) -> Callable[[random.Random], float]:
        # The expression ``Random.uniform`` evaluates, minus two call
        # layers: same draw, same bits.
        low = self.low
        span = self.high - low
        return lambda rng: low + span * rng.random()

    def min_delay(self, src: SiteId, dst: SiteId) -> Optional[float]:
        return self.low


class ExponentialLatency(LatencyModel):
    """Heavy-ish tail: base + Exp(mean) -- exercises reordering across pairs."""

    def __init__(self, base: float = 1.0, mean: float = 2.0):
        if base < 0 or mean <= 0:
            raise ConfigError("require base >= 0 and mean > 0")
        self.base = base
        self.mean = mean

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        return self.base + rng.expovariate(1.0 / self.mean)

    def min_delay(self, src: SiteId, dst: SiteId) -> Optional[float]:
        return self.base


#: Zone assignment: an explicit mapping or a pure function of the site id.
ZoneAssignment = Union[Dict[SiteId, int], Callable[[SiteId], int]]


class ZonedLatency(LatencyModel):
    """Two-band heterogeneous latencies: fast intra-zone, slow cross-zone.

    Sites are assigned to zones (datacenters); a message between sites in
    the same zone draws its delay uniformly from the ``intra`` band, any
    other message from the ``cross`` band.  Because :meth:`min_delay` knows
    which band a pair uses, a shard that coincides with a zone advertises
    the *cross* band's floor as its outbound lookahead -- typically an order
    of magnitude more than the intra floor that bounds the global
    ``min_latency`` -- which is exactly the heterogeneity the demand-driven
    window planner exploits.

    ``zones`` is either a ``{site_id: zone}`` mapping or a pure function of
    the site id (it must be deterministic: both fork sides re-derive it).
    A site without an assignment is treated as its own private zone, so all
    of its links are cross-zone.
    """

    def __init__(
        self,
        zones: ZoneAssignment,
        intra: Tuple[float, float] = (1.0, 3.0),
        cross: Tuple[float, float] = (10.0, 30.0),
    ):
        for name, (low, high) in (("intra", intra), ("cross", cross)):
            if low < 0 or high < low:
                raise ConfigError(f"{name} band requires 0 <= low <= high")
        self.zones = zones
        self.intra = intra
        self.cross = cross

    def _zone(self, site_id: SiteId):
        if callable(self.zones):
            return self.zones(site_id)
        # Unassigned sites get a unique private zone (the site id itself
        # cannot collide with the int zones of assigned sites).
        return self.zones.get(site_id, site_id)

    def _band(self, src: SiteId, dst: SiteId) -> Tuple[float, float]:
        return self.intra if self._zone(src) == self._zone(dst) else self.cross

    def sample(self, rng: random.Random, src: SiteId, dst: SiteId) -> float:
        low, high = self._band(src, dst)
        return rng.uniform(low, high)

    def min_delay(self, src: SiteId, dst: SiteId) -> Optional[float]:
        return self._band(src, dst)[0]
