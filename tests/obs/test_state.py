"""The two dispatch guards: ``obs.enabled()`` and ``obs.measuring()``
read fields an ``ObservabilityState`` computes once; ``instrumented``
swaps the process state in and restores it."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.obs import (
    LifecycleTracer,
    MetricsRegistry,
    ObservabilityState,
)
from repro.obs.lifecycle import NOOP_LIFECYCLE
from repro.obs.metrics import NOOP_REGISTRY

NOOP = dict(registry=NOOP_REGISTRY, lifecycle=NOOP_LIFECYCLE)
RECORDING = dict(registry=MetricsRegistry, lifecycle=LifecycleTracer)


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
    assert state.measuring is (component == "registry")
    with obs.instrumented(**{**NOOP, component: getattr(state, component)}):
        assert obs.enabled() is True
        assert obs.measuring() is state.measuring
    assert (obs.enabled(), obs.measuring()) == (False, False)


def test_the_guards_are_fields_not_recomputed():
    state = _alone("registry")
    assert vars(state)["enabled"] is True
    assert vars(state)["measuring"] is True
    # Derived, so they take no part in equality.
    assert state == ObservabilityState(
        **{**NOOP, "registry": state.registry}
    )


def test_scoped_overrides_follow_the_innermost_state():
    outer, inner = _alone("lifecycle"), ObservabilityState(**NOOP)
    with obs.scoped(outer):
        assert (obs.enabled(), obs.measuring()) == (True, False)
        with obs.scoped(inner):
            assert (obs.enabled(), obs.measuring()) == (False, False)
        assert (obs.enabled(), obs.measuring()) == (True, False)
        with obs.scoped(_alone("registry")):
            assert (obs.enabled(), obs.measuring()) == (True, True)
    assert (obs.enabled(), obs.measuring()) == (False, False)


class TestGlobalState:
    def test_default_is_disabled(self):
        assert not obs.enabled()
        obs.counter("ignored").inc()
        assert obs.get_registry().snapshot()["counters"] == {}

    def test_instrumented_swaps_and_restores(self):
        assert not obs.enabled()
        with obs.instrumented() as state:
            assert obs.enabled()
            obs.counter("hits").inc()
        assert not obs.enabled()
        assert state.registry.counter("hits").value == 1.0
        # After restore, recording is off again.
        obs.counter("hits").inc()
        assert state.registry.counter("hits").value == 1.0

    def test_instrumented_accepts_custom_backends(self):
        registry, lifecycle = MetricsRegistry(), LifecycleTracer()
        with obs.instrumented(
            registry=registry, lifecycle=lifecycle
        ) as state:
            obs.counter("c").inc()
        assert registry.counter("c").value == 1.0
        assert state.registry is registry
        assert state.lifecycle is lifecycle

    def test_instrumented_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.instrumented():
                raise RuntimeError("boom")
        assert not obs.enabled()

    def test_nested_instrumented_restores_outer(self):
        with obs.instrumented() as outer:
            with obs.instrumented() as inner:
                obs.counter("x").inc()
            assert obs.get_registry() is outer.registry
            assert inner.registry.counter("x").value == 1.0
            assert outer.registry.counter("x").value == 0.0

    def test_disabled_instrumentation_is_cheap(self):
        """200k disabled counter touches must stay well under a generous
        bound — the zero-cost-when-disabled guarantee (the bound is loose
        to keep CI timing noise from flaking this)."""
        assert not obs.enabled()
        start = time.perf_counter()
        for _ in range(200_000):
            obs.counter("hot.path").inc()
        assert time.perf_counter() - start < 2.0
        assert obs.get_registry().snapshot()["counters"] == {}
