"""The closed set of collector backends, its config plumbing, and the package
root's public surface."""

import pytest

import repro
from repro.config import COLLECTORS, GcConfig, SimulationConfig
from repro.core.collector import BackTracingCollector, NullCollector, collector_class
from repro.core.termination import TerminationCollector
from repro.errors import ConfigError
from repro.sim.simulation import Simulation

BUILTINS = {
    "backtrace": BackTracingCollector,
    "null": NullCollector,
    "termination": TerminationCollector,
}

#: The section 7 baselines' old registry names: the baselines are
#: constructed directly now, so configuring one is an unknown collector.
REMOVED_NAMES = [
    f"baseline.{scheme}"
    for scheme in ("global", "hughes", "migration", "group", "central", "trial")
]


# -- the closed set ---------------------------------------------------------


def test_every_builtin_builds_its_class():
    assert COLLECTORS == ("backtrace", "null", "termination")
    for name, cls in BUILTINS.items():
        assert collector_class(name) is cls
        sim = Simulation.create(SimulationConfig(gc=GcConfig(collector=name)))
        site = sim.add_site("a", auto_gc=False)
        assert type(site.cycle_collector) is cls
        assert site.cycle_collector.name == name


def test_unknown_name_raises_config_error_listing_available():
    with pytest.raises(ConfigError, match="'backtrace', 'null' or 'termination'"):
        GcConfig(collector="nonsense")


# -- config plumbing --------------------------------------------------------


def test_config_rejects_empty_collector_name():
    with pytest.raises(ConfigError, match="collector"):
        GcConfig(collector="")


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
    with pytest.raises(ConfigError, match="collector must be"):
        GcConfig(collector=name)


# -- the package root ---------------------------------------------------------


def test_package_root_surface_is_pinned():
    assert repro.__all__ == [
        "GcConfig",
        "NetworkConfig",
        "SimulationConfig",
        "ReproError",
        "ConfigError",
        "SimulationError",
        "ObjectId",
        "SiteId",
        "TraceId",
        "FrameId",
        "FaultPlan",
        "LinkFault",
        "PartitionWindow",
        "SiteCrash",
        "Simulation",
        "ParallelSimulation",
        "Site",
        "TraceOutcome",
        "Collector",
        "__version__",
    ]
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
