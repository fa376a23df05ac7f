"""The two dispatch guards: ``obs.enabled()`` and ``obs.measuring()``
read fields an ``ObservabilityState`` computes once."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs import (
    FlightRecorder,
    LifecycleTracer,
    MetricsRegistry,
    ObservabilityState,
    Tracer,
)
from repro.obs.lifecycle import NOOP_LIFECYCLE
from repro.obs.metrics import NOOP_REGISTRY
from repro.obs.timeline import NOOP_RECORDER
from repro.obs.tracer import NOOP_TRACER

NOOP = dict(
    registry=NOOP_REGISTRY, tracer=NOOP_TRACER, recorder=NOOP_RECORDER,
    lifecycle=NOOP_LIFECYCLE,
)
RECORDING = dict(
    registry=MetricsRegistry, tracer=Tracer, recorder=FlightRecorder,
    lifecycle=LifecycleTracer,
)


def _alone(component: str) -> ObservabilityState:
    return ObservabilityState(
        **{**NOOP, component: RECORDING[component]()}
    )


def test_the_no_op_state_is_neither():
    state = ObservabilityState(**NOOP)
    assert (state.enabled, state.measuring) == (False, False)
    assert (obs.enabled(), obs.measuring()) == (False, False)


@pytest.mark.parametrize("component", sorted(RECORDING))
def test_each_component_alone(component):
    state = _alone(component)
    assert state.enabled is True
    assert state.measuring is (component in ("registry", "tracer"))
    with obs.instrumented(**{**NOOP, component: getattr(state, component)}):
        assert obs.enabled() is True
        assert obs.measuring() is state.measuring
    assert (obs.enabled(), obs.measuring()) == (False, False)


def test_the_guards_are_fields_not_recomputed():
    state = _alone("tracer")
    assert vars(state)["enabled"] is True
    assert vars(state)["measuring"] is True
    # Derived, so they take no part in equality.
    assert state == ObservabilityState(
        **{**NOOP, "tracer": state.tracer}
    )


def test_scoped_overrides_follow_the_innermost_state():
    outer, inner = _alone("recorder"), ObservabilityState(**NOOP)
    seen_elsewhere = []
    with obs.scoped(outer):
        assert (obs.enabled(), obs.measuring()) == (True, False)
        with obs.scoped(inner):
            assert (obs.enabled(), obs.measuring()) == (False, False)
            # Another thread still reads the process-wide state.
            thread = threading.Thread(
                target=lambda: seen_elsewhere.append(obs.enabled())
            )
            thread.start()
            thread.join()
        assert (obs.enabled(), obs.measuring()) == (True, False)
        with obs.scoped(_alone("registry")):
            assert (obs.enabled(), obs.measuring()) == (True, True)
    assert (obs.enabled(), obs.measuring()) == (False, False)
    assert seen_elsewhere == [False]
