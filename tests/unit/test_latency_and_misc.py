"""Remaining small-surface tests: latency model validation, remote-copy
case 2, and heap sweep properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
    ZonedLatency,
)
from repro.sim.rng import RngRegistry
from repro.store.heap import Heap
from repro.workloads import GraphBuilder

from ..conftest import make_sim


# -- latency models -------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ConstantLatency(-1.0),
        lambda: UniformLatency(-1.0, 2.0),
        lambda: UniformLatency(5.0, 2.0),
        lambda: ExponentialLatency(base=-0.1),
        lambda: ExponentialLatency(mean=0.0),
    ],
)
def test_latency_validation(factory):
    with pytest.raises(ConfigError):
        factory()


def test_exponential_latency_at_least_base():
    rng = RngRegistry(0).stream("lat")
    model = ExponentialLatency(base=2.5, mean=1.0)
    assert all(model.sample(rng, "A", "B") >= 2.5 for _ in range(200))


def test_constant_latency_is_constant():
    rng = RngRegistry(0).stream("lat")
    model = ConstantLatency(3.0)
    assert {model.sample(rng, "A", "B") for _ in range(10)} == {3.0}


# -- remote copy case 2 (section 6.1.2) ----------------------------------------------


def test_remote_copy_case2_clean_outref_no_insert():
    """Y already holds a *clean* outref for z: no insert, no barrier work --
    just the unpin ack back to the sender."""
    sim = make_sim(sites=("X", "Y", "Z"))
    b = GraphBuilder(sim)
    z_obj = b.obj("Z", "z")
    x_holder = b.obj("X", "xh", root=True)
    y_holder = b.obj("Y", "yh", root=True)
    b.link(x_holder, z_obj)
    b.link(y_holder, z_obj)   # Y's clean outref exists already
    y_dest = b.obj("Y", "yd", root=True)
    before = sim.metrics.snapshot()
    sim.site("X").mutator_send_ref("Y", b["z"], y_dest)
    sim.settle()
    delta = sim.metrics.snapshot().diff(before)
    assert delta.get("messages.InsertRequest", 0) == 0
    assert delta.get("messages.UnpinRequest", 0) == 1
    assert sim.site("X").outrefs.require(b["z"]).pin_count == 0
    assert sim.site("Y").heap.get(y_dest).holds_ref(b["z"])


# -- heap sweep properties -----------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=30),
    st.sets(st.integers(0, 29)),
)
@settings(max_examples=100, deadline=None)
def test_sweep_removes_exactly_the_complement(n_objects, live_indices):
    heap = Heap("P")
    objects = [heap.alloc() for _ in range(n_objects)]
    live = {obj.oid for index, obj in enumerate(objects) if index in live_indices}
    dead = heap.sweep(live)
    assert set(dead) == {obj.oid for obj in objects} - live
    assert set(heap.object_ids()) == live
    assert heap.objects_collected == len(dead)


@given(st.integers(min_value=1, max_value=20))
@settings(max_examples=50, deadline=None)
def test_alloc_serials_never_reused_after_sweep(n_objects):
    heap = Heap("P")
    first_batch = [heap.alloc().oid for _ in range(n_objects)]
    heap.sweep(set())
    second_batch = [heap.alloc().oid for _ in range(n_objects)]
    assert not set(first_batch) & set(second_batch)


# -- public API hygiene -----------------------------------------------------------------


def test_every_public_module_has_a_docstring():
    import importlib
    import pkgutil

    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_all_payload_classes_have_unique_kinds():
    """Metrics and the comparison driver key on payload class names; a
    duplicate would silently merge two protocols' counters."""
    import importlib
    import pkgutil

    import repro
    from repro.net.message import Payload

    kinds = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for name in dir(module):
            attr = getattr(module, name)
            if (
                isinstance(attr, type)
                and issubclass(attr, Payload)
                and attr is not Payload
            ):
                existing = kinds.get(attr.kind())
                if existing is not None and existing is not attr:
                    raise AssertionError(
                        f"duplicate payload kind {attr.kind()!r}: "
                        f"{existing.__module__} vs {attr.__module__}"
                    )
                kinds[attr.kind()] = attr
    assert len(kinds) >= 25  # the full protocol surface is registered


def test_builtin_models_expose_min_delay_floors():
    assert ConstantLatency(2.0).min_delay("A", "B") == 2.0
    assert UniformLatency(1.5, 5.0).min_delay("A", "B") == 1.5
    assert ExponentialLatency(base=0.5).min_delay("A", "B") == 0.5


def test_min_delay_default_is_unknown():
    from repro.net.latency import LatencyModel

    class Opaque(LatencyModel):
        def sample(self, rng, src, dst):
            return 1.0

    assert Opaque().min_delay("A", "B") is None


def test_zoned_latency_bands_and_floors():
    import random

    from repro.net.latency import ZonedLatency

    model = ZonedLatency(
        {"A": 0, "B": 0, "C": 1}, intra=(1.0, 3.0), cross=(10.0, 30.0)
    )
    assert model.min_delay("A", "B") == 1.0
    assert model.min_delay("B", "C") == 10.0
    # Unlisted sites get a private zone, so everything they touch is cross.
    assert model.min_delay("A", "Z") == 10.0
    rng = random.Random(7)
    for _ in range(50):
        assert 1.0 <= model.sample(rng, "A", "B") <= 3.0
        assert 10.0 <= model.sample(rng, "A", "C") <= 30.0


def test_zoned_latency_accepts_zone_callable():
    from repro.net.latency import ZonedLatency

    model = ZonedLatency(
        lambda site: 0 if site < "m" else 1,
        intra=(2.0, 4.0),
        cross=(8.0, 16.0),
    )
    assert model.min_delay("a", "b") == 2.0
    assert model.min_delay("a", "z") == 8.0


@pytest.mark.parametrize(
    "bands",
    [
        dict(intra=(-1.0, 2.0)),
        dict(intra=(5.0, 2.0)),
        dict(cross=(-0.5, 1.0)),
        dict(cross=(9.0, 3.0)),
    ],
)
def test_zoned_latency_validation(bands):
    from repro.net.latency import ZonedLatency

    with pytest.raises(ConfigError):
        ZonedLatency({}, **bands)


# -- sampler(src, dst): same bits, same draws as sample() ------------------------------


class _SampleOnly(LatencyModel):
    """A custom model as users write them: ``sample`` and nothing else."""

    def sample(self, rng, src, dst):
        return (2.0 if src < dst else 3.0) + rng.random() + rng.random()


_ZONES = {"A": 0, "B": 0, "C": 1}
SAMPLER_CASES = {
    "constant": (ConstantLatency(2.5), ("A", "B")),
    "uniform": (UniformLatency(1.0, 4.0), ("A", "B")),
    "uniform-degenerate": (UniformLatency(3.0, 3.0), ("A", "B")),
    "exponential": (ExponentialLatency(base=0.5, mean=2.0), ("A", "B")),
    "zoned-mapping-intra": (ZonedLatency(_ZONES), ("A", "B")),
    "zoned-mapping-cross": (ZonedLatency(_ZONES), ("B", "C")),
    "zoned-callable-intra": (ZonedLatency(_ZONES.get), ("B", "A")),
    "zoned-callable-cross": (ZonedLatency(_ZONES.get), ("C", "A")),
    "sample-only-subclass": (_SampleOnly(), ("A", "B")),
    "sample-only-subclass-reversed": (_SampleOnly(), ("B", "A")),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_draws_the_same_bits_as_sample(case):
    model, (src, dst) = SAMPLER_CASES[case]
    via_sampler, via_sample = random.Random(91), random.Random(91)
    draw = model.sampler(src, dst)
    for _ in range(10_000):
        # == on floats: bit-for-bit the same delay, not merely close.
        assert draw(via_sampler) == model.sample(via_sample, src, dst)
    # ...and the same number of draws consumed.
    assert via_sampler.getstate() == via_sample.getstate()
