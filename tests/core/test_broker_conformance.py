"""The Broker conformance suite, run against both shipped brokers.

``FilesystemBroker`` on a shared directory and ``TcpBroker`` against a
:class:`~repro.core.netqueue.BrokerServer` must be operationally
indistinguishable — same claim exclusivity, same lease/expiry semantics,
same failure parking, same checkpoint behaviour.  The suite itself lives
in :mod:`tests.core.broker_conformance`; this module only binds it to
concrete brokers (and is the template for binding any future one).
"""

import pytest

from repro.agent import autopilot_agent_factory
from repro.core import Campaign, FilesystemBroker, standard_scenarios
from repro.core.faults import OutputDelay
from repro.core.netqueue import BrokerServer, make_broker
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

from broker_conformance import BrokerConformanceSuite

INJECTORS = {"none": [], "delay": [OutputDelay(8)]}


@pytest.fixture(scope="module")
def material():
    """One published-campaign payload shared by every test (read-only)."""
    builder = SimulationBuilder(
        camera=CameraModel(width=24, height=16), with_lidar=False
    )
    scenarios = standard_scenarios(
        2, seed=9, town_config=GridTownConfig(rows=2, cols=3),
        min_distance=60, max_distance=160,
    )
    runner = Campaign(
        scenarios, autopilot_agent_factory(), INJECTORS, builder=builder
    )
    return runner.context(), runner.tasks()


@pytest.fixture
def write_results(tmp_path):
    """Both brokers keep the checkpoint at ``<root>/results.jsonl``."""

    def write(data: bytes) -> None:
        (tmp_path / "q").mkdir(exist_ok=True)
        (tmp_path / "q" / "results.jsonl").write_bytes(data)

    return write


class TestFilesystemBrokerConformance(BrokerConformanceSuite):
    @pytest.fixture
    def make_broker(self, tmp_path):
        return lambda lease_s: FilesystemBroker(tmp_path / "q", lease_s=lease_s)


class TestTcpBrokerConformance(BrokerConformanceSuite):
    @pytest.fixture
    def make_broker(self, tmp_path):
        servers = []

        def factory(lease_s):
            server = BrokerServer(
                tmp_path / "q", host="127.0.0.1", port=0, lease_s=lease_s
            ).start()
            servers.append(server)
            return make_broker(server.address, lease_s=lease_s)

        yield factory
        for server in servers:
            server.stop()
