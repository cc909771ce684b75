"""AVFI: Fault Injection for Autonomous Vehicles — DSN 2018 reproduction.

The package mirrors the paper's architecture (fig. 1):

* :mod:`repro.sim` — the world simulator (CARLA/Unreal substitute): towns,
  physics, actors, sensors, rendering, client/server channels, violations;
* :mod:`repro.agent` — the Autonomous Driving Agent: a numpy NN library,
  route planner, expert autopilot and the conditional imitation-learning
  CNN of Codevilla et al.;
* :mod:`repro.core` — AVFI itself: fault models (data / hardware / timing /
  ML), the injection harness, the :class:`~repro.core.Campaign` (one
  object that plans, runs, checkpoints and resumes a fault-injection
  sweep on any backend) and the resilience metrics MSR, VPK, APK and TTV.

Quickstart::

    from repro.core import Campaign, standard_scenarios
    from repro.core.faults import GaussianNoise
    from repro.agent import get_or_train_default_model, nn_agent_factory

    scenarios = standard_scenarios(5, seed=1)
    model = get_or_train_default_model()
    campaign = Campaign(
        scenarios,
        nn_agent_factory(model),
        injectors={"none": [], "gaussian": [GaussianNoise(sigma=0.1)]},
    )
    for name, m in campaign.run().metrics().items():
        print(name, m.summary_row())
"""

from . import agent, core, sim

__version__ = "1.0.0"

__all__ = ["agent", "core", "sim", "__version__"]
