"""Cross-validation between the evaluation engines.

The reproduction's credibility rests on three independent evaluations of
the same semantics agreeing:

1. exact CTMC transient of the *full composed SAN* (state-space
   generation) — feasible only for tiny instances;
2. Monte-Carlo simulation of the full composed SAN;
3. the lumped analytical engine (near-decomposability approximation).
"""

import numpy as np
import pytest

from repro.core import AHSParameters, AnalyticalEngine, build_composed_model
from repro.ctmc import CTMC, transient_distribution
from repro.rare import FailureBiasing, ImportanceSamplingEstimator
from repro.san import MarkovJumpSimulator, generate_state_space
from repro.san.rewards import TransientEstimate
from repro.stochastic import StreamFactory


@pytest.fixture(scope="module")
def tiny_params():
    """2 vehicles (n=1): the full SAN state space stays enumerable."""
    return AHSParameters(
        max_platoon_size=1,
        base_failure_rate=0.02,
        # free agents have no assistants; keep maneuvers meaningful
        join_rate=12.0,
        leave_rate=4.0,
    )


class TestExactVsSimulation:
    def test_full_san_statespace_matches_simulation(self, tiny_params):
        ahs = build_composed_model(tiny_params)
        predicate = ahs.unsafe_predicate()
        space = generate_state_space(
            ahs.model, absorbing=lambda m: predicate(m), max_states=200_000
        )
        chain = CTMC(space.generator, space.initial)
        target = space.indicator(predicate)
        horizon = 6.0
        exact = float(transient_distribution(chain, [horizon])[0] @ target)

        simulator = MarkovJumpSimulator(ahs.model)
        factory = StreamFactory(31)
        hits = sum(
            simulator.run(stream, horizon, predicate).stopped
            for stream in factory.stream_batch("rep", 4000)
        )
        estimate = hits / 4000
        sigma = np.sqrt(max(exact * (1 - exact), 1e-12) / 4000)
        assert abs(estimate - exact) < 5 * sigma + 1e-9


class TestAnalyticalVsSimulation:
    @pytest.mark.slow
    def test_small_system_importance_sampling_agrees(self):
        params = AHSParameters(max_platoon_size=3, base_failure_rate=1e-3)
        horizon = 2.0
        analytical = (
            AnalyticalEngine(params).unsafety([horizon]).unsafety[0]
        )

        ahs = build_composed_model(params)
        estimator = ImportanceSamplingEstimator(
            ahs.model,
            ahs.unsafe_predicate(),
            FailureBiasing(30.0, lambda n: n.startswith("L_FM")),
        )
        estimate = estimator.estimate(
            [horizon], 2500, StreamFactory(67)
        )
        value = estimate.values[0]
        half = estimate.half_widths[0]
        # the lumped engine must sit inside (a widened) simulation CI:
        # the decomposition approximation is allowed a modest bias
        assert abs(value - analytical) < 3 * half + 0.3 * analytical

    def test_crude_mc_agrees_at_high_lambda(self):
        # lambda large enough that plain MC sees the unsafe state
        params = AHSParameters(max_platoon_size=2, base_failure_rate=0.05)
        horizon = 4.0
        analytical = AnalyticalEngine(params).unsafety([horizon]).unsafety[0]
        ahs = build_composed_model(params)
        simulator = MarkovJumpSimulator(ahs.model)
        factory = StreamFactory(68)
        runs = [
            simulator.run(s, horizon, ahs.unsafe_predicate())
            for s in factory.stream_batch("mc", 1500)
        ]
        estimate = TransientEstimate.from_indicator_runs([horizon], runs)
        value = estimate.values[0]
        half = estimate.half_widths[0]
        # the lumped analytical engine runs low at small n whatever the
        # failure density: against the exact replica-lumped chain at
        # n = 2 it is 29-32% low at every lambda from 1e-2 to 1e-5, so
        # the band needs a slack above that
        assert abs(value - analytical) < 3 * half + 0.5 * analytical


class TestEngineInternalConsistency:
    def test_probability_conservation_on_full_san(self, tiny_params):
        ahs = build_composed_model(tiny_params)
        predicate = ahs.unsafe_predicate()
        space = generate_state_space(
            ahs.model, absorbing=lambda m: predicate(m), max_states=200_000
        )
        chain = CTMC(space.generator, space.initial)
        dist = transient_distribution(chain, [1.0, 10.0])
        assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-8)
