"""The collector registry, config plumbing, and facade."""

import pytest

import repro
import repro.api as api
from repro.config import GcConfig, SimulationConfig
from repro.core.collector import (
    _REGISTRY,
    CollectorSpec,
    NullCollector,
    available_collectors,
    register_collector,
    resolve_collector,
)
from repro.errors import ConfigError
from repro.sim.simulation import Simulation

BUILTINS = {"null", "backtrace", "termination"}

#: The section 7 baselines' old registry names: the baselines are
#: constructed directly now, so configuring one is an unknown collector.
REMOVED_NAMES = [
    f"baseline.{scheme}"
    for scheme in ("global", "hughes", "migration", "group", "central", "trial")
]


# -- registry ---------------------------------------------------------------


def test_available_collectors_lists_every_builtin():
    assert api.available_collectors() == ("backtrace", "null", "termination")
    assert set(available_collectors()) == BUILTINS


def test_every_builtin_resolves_to_a_spec():
    for name in sorted(BUILTINS):
        spec = resolve_collector(name)
        assert spec.name == name
        assert callable(spec.site_factory)


def test_unknown_name_raises_config_error_listing_available():
    with pytest.raises(ConfigError, match="available.*backtrace"):
        resolve_collector("nonsense")


def test_register_rejects_empty_name():
    with pytest.raises(ConfigError, match="non-empty"):
        register_collector(CollectorSpec(name="", site_factory=NullCollector))


def test_runtime_registration_and_replacement():
    spec = CollectorSpec(name="custom-test", site_factory=NullCollector)
    register_collector(spec)
    try:
        assert resolve_collector("custom-test") is spec
        assert "custom-test" in available_collectors()
    finally:
        _REGISTRY.pop("custom-test", None)


# -- config plumbing --------------------------------------------------------


def test_config_rejects_empty_collector_name():
    with pytest.raises(ConfigError, match="collector"):
        GcConfig(collector="")


def test_simulation_create_resolves_name_at_construction():
    config = SimulationConfig(gc=GcConfig(collector="nonsense"))
    with pytest.raises(ConfigError, match="unknown collector"):
        Simulation.create(config)


def test_sites_get_the_configured_backend():
    sim = Simulation.create(
        SimulationConfig(gc=GcConfig(collector="termination"))
    )
    site = sim.add_site("a", auto_gc=False)
    assert site.cycle_collector.name == "termination"
    sim2 = Simulation.create(SimulationConfig())
    assert sim2.add_site("a", auto_gc=False).cycle_collector.name == "backtrace"


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_baseline_names_are_unknown_collectors(name):
    config = SimulationConfig(gc=GcConfig(collector=name))
    with pytest.raises(ConfigError, match="unknown collector"):
        Simulation.create(config)


# -- the stable facade ------------------------------------------------------


def test_api_facade_exports_every_declared_name():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_package_root_reexports_the_facade():
    for name in api.__all__:
        assert getattr(repro, name) is getattr(api, name), name
