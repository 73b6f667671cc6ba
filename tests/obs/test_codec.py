"""The config codec (``to_data``/``from_data``) writes the bytes the
hand-written bodies in ``reference_codec.py`` wrote, round-trips every
config, and fills every absent field from its dataclass default."""

from __future__ import annotations

import dataclasses
import json
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.artifact import from_data
from repro.obs.report import RunReport
from repro.resilience.campaign import ChaosConfig
from repro.resilience.faults import fault_from_dict, fault_to_dict
from repro.runtime.faults import (
    DeviceFailure,
    Perturbation,
    TransferFault,
    TransientFailure,
)
from repro.service.admission import SHED_POLICIES
from repro.service.arrivals import PATTERNS, ArrivalSpec
from repro.service.balancer import BALANCER_FLAVORS
from repro.service.campaign import ServeChaosConfig
from repro.service.server import ServiceConfig
from repro.sim.trace import ExecutionTrace, TaskRecord
from tests.obs import reference_codec as ref

ALL_KINDS = (
    DeviceFailure("B.gpu0", 1),
    Perturbation("A.cpu0", 0.25, 2),
    TransientFailure("A.gpu0", 0, 3),
    TransferFault("B.cpu0", 0.5, 1, max_retries=2, backoff_factor=0.5, jitter=0.25),
)


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def number(lo: float, hi: float, *, positive: bool = False) -> st.SearchStrategy:
    """An ``int`` or a ``float`` in ``[lo, hi]`` (``> 0`` if ``positive``)."""
    ints = st.integers(max(int(lo), 1) if positive else int(lo), int(hi))
    return st.one_of(ints, st.floats(lo, hi, exclude_min=positive))


devices = st.sampled_from(["A.cpu0", "A.gpu0", "B.cpu0", "B.gpu0"])


@st.composite
def transfer_faults(draw) -> TransferFault:
    backoff = draw(number(0, 4, positive=True))
    return TransferFault(
        draw(devices),
        draw(number(0, 100)),
        draw(number(0, 10, positive=True)),
        max_retries=draw(st.integers(1, 8)),
        timeout_factor=draw(number(0, 4, positive=True)),
        backoff_factor=backoff,
        backoff_cap_factor=backoff + draw(number(0, 8)),
        jitter=draw(st.one_of(st.just(0), st.floats(0, 1, exclude_max=True))),
    )


faults = st.one_of(
    st.builds(DeviceFailure, devices, number(0, 100)),
    st.builds(Perturbation, devices, number(0, 100), number(0, 10, positive=True)),
    st.builds(
        TransientFailure, devices, number(0, 100), number(0, 10, positive=True)
    ),
    transfer_faults(),
)

arrival_specs = st.builds(
    ArrivalSpec,
    rate=number(0, 50, positive=True),
    duration=number(0, 100, positive=True),
    pattern=st.sampled_from(PATTERNS),
    tenants=st.integers(1, 8),
    templates=st.lists(
        st.tuples(
            st.sampled_from(["matmul", "stencil", "grn", "blackscholes"]),
            st.integers(1, 1 << 14),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
    priority_levels=st.integers(1, 5),
)

service_configs = st.builds(
    ServiceConfig,
    arrivals=arrival_specs,
    machines=st.integers(1, 4),
    policy=st.sampled_from(BALANCER_FLAVORS),
    queue_limit=st.integers(1, 64),
    shed_policy=st.sampled_from(SHED_POLICIES),
    max_active=st.integers(1, 8),
    deadline_factor=number(0, 50),
    retry_budget=st.integers(0, 8),
    rebalance_interval=number(0, 5, positive=True),
    sample_interval=number(0, 5),
    noise_sigma=number(0, 1),
    seed=st.integers(0, 2**31),
    breaker_threshold=st.integers(1, 8),
    breaker_cooldown=number(0, 10),
    breaker_jitter=number(0, 1),
    faults=st.lists(faults, max_size=4).map(tuple),
)


@st.composite
def chaos_configs(draw) -> ChaosConfig:
    apps = draw(st.lists(st.sampled_from(["matmul", "stencil", "grn"]), min_size=1))
    sizes = st.lists(
        st.integers(256, 8192), min_size=len(apps), max_size=len(apps)
    )
    policies = st.lists(st.sampled_from(["plb-hec", "greedy"]), min_size=1)
    return ChaosConfig(
        apps=tuple(apps),
        sizes=tuple(draw(sizes)),
        machines=draw(st.integers(1, 4)),
        policies=tuple(draw(policies)),
        runs=draw(st.integers(1, 32)),
        seed=draw(st.integers(0, 2**31)),
        noise_sigma=draw(number(0, 1)),
        max_faults=draw(st.integers(1, 4)),
        anomaly_tolerance=draw(number(0, 1)),
    )


serve_chaos_configs = st.builds(
    ServeChaosConfig,
    policies=st.lists(
        st.sampled_from(BALANCER_FLAVORS), min_size=1, max_size=3, unique=True
    ).map(tuple),
    runs=st.integers(1, 12),
    seed=st.integers(0, 2**31),
    rate=number(0, 20, positive=True),
    duration=number(0, 60, positive=True),
    machines=st.integers(1, 4),
    queue_limit=st.integers(1, 32),
    shed_policy=st.sampled_from(SHED_POLICIES),
    max_active=st.integers(1, 8),
    deadline_factor=number(0, 60),
    retry_budget=st.integers(0, 8),
    max_faults=st.integers(1, 4),
)

json_scalars = st.one_of(
    st.integers(-1000, 1000), st.floats(-1e6, 1e6), st.text(max_size=6)
)

run_reports = st.builds(
    RunReport.build,
    config=st.dictionaries(
        st.sampled_from(["app", "size", "seed", "noise"]), json_scalars
    ),
    makespan=number(0, 1000),
    rebalances=st.integers(0, 50),
    solver_overhead_s=number(0, 10),
    phase_summary=st.dictionaries(
        st.sampled_from(["probe", "exec"]),
        st.dictionaries(st.sampled_from(["units", "busy_s"]), number(0, 100)),
    ),
    metrics=st.dictionaries(
        st.sampled_from(["counters", "gauges"]),
        st.dictionaries(st.text(max_size=4), number(0, 9)),
    ),
    run_id=st.one_of(st.none(), st.text(min_size=1, max_size=8)),
)


@st.composite
def traces(draw) -> ExecutionTrace:
    workers = ["A.cpu0", "A.gpu0", "B.gpu0"]
    trace = ExecutionTrace(workers)
    for _ in range(draw(st.integers(0, 5))):
        start = draw(number(0, 50))
        trace.add_record(
            TaskRecord(
                worker_id=draw(st.sampled_from(workers)),
                units=draw(st.integers(1, 4096)),
                dispatch_time=start,
                transfer_time=draw(number(0, 1)),
                exec_time=draw(number(0, 5)),
                start_time=start,
                end_time=start + draw(number(0, 5)),
                phase=draw(st.sampled_from(["probe", "exec"])),
                step=draw(st.integers(0, 9)),
                start_unit=draw(st.integers(-1, 4096)),
                retries=draw(st.integers(0, 3)),
                retry_time=draw(number(0, 1)),
                decision=draw(st.sampled_from(["", "d1"])),
            )
        )
    for t in draw(st.lists(number(0, 50), max_size=2)):
        trace.mark_phase(t, draw(st.sampled_from(["probe", "exec"])))
    for t in draw(st.lists(number(0, 50), max_size=2)):
        trace.record_rebalance(t)
        trace.record_solver_overhead(draw(number(0, 1)), t)
    for t in draw(st.lists(number(0, 50), max_size=2)):
        trace.record_failure(t, draw(st.sampled_from(workers)))
        trace.record_recovery(t + 1, draw(st.sampled_from(workers)))
        trace.record_lost_block(t, draw(st.sampled_from(workers)), 8, 16)
    trace.finalize(draw(number(0, 100)))
    return trace


def with_float_fields(config):
    """``config`` with every value of a field declared ``float`` a float."""
    hints = get_type_hints(type(config))
    return dataclasses.replace(config, **{
        f.name: float(getattr(config, f.name))
        for f in dataclasses.fields(config)
        if hints[f.name] is float
    })


class TestReferenceBytes:
    @settings(max_examples=200, deadline=None)
    @given(service_configs)
    @example(ServiceConfig(faults=ALL_KINDS))
    def test_service_config(self, config):
        reference = ref.service_config_to_dict(config)
        assert dumps(config.to_dict()) == dumps(reference)
        sweep = {k: v for k, v in reference.items() if k != "seed"}
        assert config.to_sweep_json() == dumps(sweep)
        data = config.to_dict()
        assert ServiceConfig.from_dict(data) == config
        assert ServiceConfig.from_dict(data) == ref.service_config_from_dict(data)
        seedless = json.loads(config.to_sweep_json())
        reseeded = ServiceConfig.from_dict(seedless, seed=7)
        assert reseeded == dataclasses.replace(config, seed=7)
        assert reseeded == ref.service_config_from_dict(seedless, seed=7)

    @settings(max_examples=200, deadline=None)
    @given(arrival_specs)
    @example(ArrivalSpec(rate=3))
    def test_arrival_spec(self, spec):
        assert dumps(spec.to_dict()) == dumps(ref.arrival_spec_to_dict(spec))
        data = spec.to_dict()
        assert ArrivalSpec.from_dict(data) == spec
        assert ArrivalSpec.from_dict(data) == ref.arrival_spec_from_dict(data)

    @settings(max_examples=200, deadline=None)
    @given(faults)
    def test_fault(self, fault):
        data = fault_to_dict(fault)
        assert dumps(data) == dumps(ref.fault_to_dict(fault))
        assert fault_from_dict(data) == fault
        assert fault_from_dict(data) == ref.fault_from_dict(data)

    @settings(max_examples=100, deadline=None)
    @given(chaos_configs())
    def test_chaos_config(self, config):
        # The reference wrote an int held by a float field as an int, so
        # two equal configs (0 == 0.0) had two JSON forms; the codec
        # writes the float, as the other configs' bodies always did.
        canonical = with_float_fields(config)
        assert canonical == config
        assert dumps(config.to_dict()) == dumps(ref.chaos_config_to_dict(canonical))
        assert from_data(ChaosConfig, config.to_dict()) == config

    @settings(max_examples=100, deadline=None)
    @given(serve_chaos_configs)
    def test_serve_chaos_config(self, config):
        reference = ref.serve_chaos_config_to_dict(config)
        assert dumps(config.to_dict()) == dumps(reference)
        assert from_data(ServeChaosConfig, config.to_dict()) == config

    @settings(max_examples=100, deadline=None)
    @given(run_reports, number(0, 1000), number(0, 10))
    def test_run_report(self, report, makespan, overhead):
        assert dumps(report.to_dict()) == dumps(ref.run_report_to_dict(report))
        assert RunReport.from_dict(report.to_dict()) == report
        # int values in the float fields of a manifest read back
        data = {
            **report.to_dict(), "makespan": makespan, "solver_overhead_s": overhead
        }
        new, old = RunReport.from_dict(data), ref.run_report_from_dict(data)
        assert new == old
        assert dumps(new.to_dict()) == dumps(ref.run_report_to_dict(old))

    @settings(max_examples=100, deadline=None)
    @given(traces())
    def test_trace(self, trace):
        assert dumps(trace.to_dict()) == dumps(ref.trace_to_dict(trace))
        assert ExecutionTrace.from_dict(trace.to_dict()).to_dict() == trace.to_dict()


class TestDefaults:
    @pytest.mark.parametrize(
        "decode, data, default",
        [
            (ServiceConfig.from_dict, {"seed": 0}, ServiceConfig()),
            (ArrivalSpec.from_dict, {}, ArrivalSpec()),
            (
                fault_from_dict,
                {"type": "transfer", "device_id": "d0", "time": 0.1, "duration": 0.05},
                TransferFault("d0", 0.1, 0.05),
            ),
        ],
        ids=["ServiceConfig", "ArrivalSpec", "TransferFault"],
    )
    def test_required_keys_alone_give_the_default(self, decode, data, default):
        assert decode(data) == default

    @settings(max_examples=100, deadline=None)
    @given(service_configs, st.data())
    def test_absent_fields_take_their_defaults(self, config, data):
        full = config.to_dict()
        kept = data.draw(st.sets(st.sampled_from(sorted(full)))) | {"seed"}
        expected = dataclasses.replace(
            ServiceConfig(), **{name: getattr(config, name) for name in kept}
        )
        assert ServiceConfig.from_dict({k: full[k] for k in kept}) == expected

    def test_seed_is_required_without_an_override(self):
        with pytest.raises(KeyError, match="seed"):
            ServiceConfig.from_dict({})

    def test_unknown_fault_type_in_a_config_is_named(self):
        data = {"seed": 0, "faults": [{"type": "meteor", "device_id": "d0"}]}
        with pytest.raises(ConfigurationError, match="unknown fault type 'meteor'"):
            ServiceConfig.from_dict(data)

    def test_validation_stays_in_the_dataclass(self):
        with pytest.raises(ConfigurationError, match="rate"):
            ArrivalSpec.from_dict({"rate": 0})
