"""Latencies drawn in blocks are exactly the scalar draws.

The in-process and virtual-time transports take their message latencies
from a block of standard-exponential variates (``LatencyDraws``) instead
of one ``rng.exponential`` call per request.  That must be invisible:
for any interleaving of single submits, fan-outs, crash resampling,
latency-parameter changes and outside draws from ``transport.rng``, the
latencies, the outcomes and the generator's final state are bit-identical
to one scalar draw per request.  This rests on numpy producing the same
stream for block and scalar draws, so CI runs it on the oldest and the
newest supported Python too.
"""

import asyncio
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import VirtualClock, run_virtual
from repro.runtime.faults import sample_iid_crash_set
from repro.service import (
    InProcessTransport,
    Replica,
    ReplicaUnavailable,
    RequestTimeout,
    SimTransport,
)
from repro.service import transport as transport_module
from repro.service.transport import LatencyDraws

REPLICAS = 5
TIMEOUT_MS = 9.0

steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, REPLICAS - 1)),
        st.tuples(
            st.just("fan-out"),
            st.lists(st.integers(0, REPLICAS - 1), min_size=1, max_size=REPLICAS),
        ),
        st.tuples(st.just("resample"), st.sampled_from([0.0, 0.3, 1.0])),
        st.tuples(
            st.just("latency"),
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from([0.0, 1.0, 4.0])
            ),
        ),
        st.tuples(st.just("outside"), st.integers(1, 3)),
    ),
    max_size=60,
)


def run_steps(make, steps):
    """Play ``steps`` against a transport; return its outcomes in order
    (a latency, or the failure's type) and its generator's final state."""
    transport, run = make([Replica(rid) for rid in range(REPLICAS)])

    async def main():
        futures = []
        outside = []
        for kind, arg in steps:
            if kind == "submit":
                futures.append(transport.submit(arg, {"op": "ping"}, TIMEOUT_MS))
            elif kind == "fan-out":
                futures.extend(
                    transport.submit_many(
                        arg, lambda rid: {"op": "ping"}, TIMEOUT_MS, lambda f: None
                    )
                )
            elif kind == "resample":
                transport.crash_rate = arg
                transport.resample_crashes()
            elif kind == "latency":
                transport.base_latency, transport.mean_latency = arg
            else:
                outside.append(transport.rng.random(arg).tolist())
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        return outcomes, outside

    outcomes, outside = run(main())
    observed = [
        type(outcome) if isinstance(outcome, Exception) else outcome.latency
        for outcome in outcomes
    ]
    return observed, outside, transport.rng.bit_generator.state


def scalar_oracle(seed, steps):
    """The same steps with one ``rng.exponential`` call per request."""
    rng = np.random.default_rng(seed)
    base, mean = 1.0, 4.0
    down = frozenset()
    observed = []
    outside = []

    def one(rid):
        latency = base + float(rng.exponential(mean))
        if rid in down:
            return ReplicaUnavailable
        if latency > TIMEOUT_MS:
            return RequestTimeout
        return latency

    for kind, arg in steps:
        if kind == "submit":
            observed.append(one(arg))
        elif kind == "fan-out":
            observed.extend(one(rid) for rid in arg)
        elif kind == "resample":
            down = sample_iid_crash_set(rng, list(range(REPLICAS)), arg)
        elif kind == "latency":
            base, mean = arg
        else:
            outside.append(rng.random(arg).tolist())
    return observed, outside, rng.bit_generator.state


def inprocess(replicas):
    return InProcessTransport(replicas, seed=11), asyncio.run


def sim(replicas):
    clock = VirtualClock()
    transport = SimTransport(replicas, clock=clock, seed=11)
    return transport, lambda main: run_virtual(main, clock=clock)


@pytest.mark.parametrize("make", [inprocess, sim], ids=["inprocess", "sim"])
@settings(max_examples=60, deadline=None)
@given(steps=steps, block=st.sampled_from([1, 2, 7, transport_module.LATENCY_BLOCK]))
def test_block_draws_equal_scalar_draws(make, steps, block):
    with mock.patch.object(transport_module, "LATENCY_BLOCK", block):
        assert run_steps(make, steps) == scalar_oracle(11, steps)


def test_rewind_mid_block_and_at_a_block_boundary():
    for used in (0, 1, transport_module.LATENCY_BLOCK - 1, transport_module.LATENCY_BLOCK):
        scalar = np.random.default_rng(5)
        draws = LatencyDraws(np.random.default_rng(5))
        for _ in range(used):
            assert draws.next(0.5, 3.0) == 0.5 + float(scalar.exponential(3.0))
        assert draws.synced().bit_generator.state == scalar.bit_generator.state
        # Drawing resumes from the rewound generator.
        assert draws.next(0.0, 1.0) == float(scalar.exponential(1.0))
