"""Tests for repro.balancers.gss."""

import pytest

from repro.apps import MatMul
from repro.balancers import GuidedSelfScheduling
from repro.errors import ConfigurationError
from repro.runtime import Runtime
from repro.runtime.faults import DeviceFailure


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GuidedSelfScheduling(divisor=0.0)
        with pytest.raises(ConfigurationError):
            GuidedSelfScheduling(min_chunk=0)


class TestBehaviour:
    def test_completes_domain(self, small_cluster):
        app = MatMul(n=2048)
        res = Runtime(small_cluster, app.codelet(), seed=0).run(
            GuidedSelfScheduling(), app.total_units, 8
        )
        assert res.trace.total_units() == 2048

    def test_chunks_taper_geometrically(self, small_cluster):
        app = MatMul(n=4096)
        res = Runtime(small_cluster, app.codelet(), seed=0).run(
            GuidedSelfScheduling(), app.total_units, 8
        )
        first_wave = [
            r.units for r in res.trace.records if r.dispatch_time == 0.0
        ]
        # the first dispatched chunk is the fair share remaining/P
        assert max(first_wave) == 4096 // len(small_cluster.devices())
        last = min(res.trace.records, key=lambda r: -r.dispatch_time)
        assert max(first_wave) > last.units

    def test_min_chunk_floor(self, small_cluster):
        app = MatMul(n=2048)
        res = Runtime(small_cluster, app.codelet(), seed=0).run(
            GuidedSelfScheduling(min_chunk=13), app.total_units, 8
        )
        tail = sorted(r.units for r in res.trace.records)[:3]
        # every chunk except the domain-clamped final one obeys the floor
        assert tail[1] >= 13 or tail[0] < 13

    def test_heterogeneity_blindness_hurts(self, small_cluster):
        """The textbook failure: GSS's first fair-share chunk can land on
        the slowest device, which then straggles the whole run."""
        from repro.core import PLBHeC

        app = MatMul(n=8192)
        gss = Runtime(small_cluster, app.codelet(), seed=0).run(
            GuidedSelfScheduling(), app.total_units, 8
        )
        plb = Runtime(small_cluster, app.codelet(), seed=0).run(
            PLBHeC(), app.total_units, 8
        )
        assert plb.makespan < gss.makespan

    def test_survives_failure(self, small_cluster):
        app = MatMul(n=4096)
        rt = Runtime(
            small_cluster,
            app.codelet(),
            seed=0,
            faults=(DeviceFailure(device_id="beta.cpu", time=0.2),),
        )
        res = rt.run(GuidedSelfScheduling(), app.total_units, 8)
        assert res.trace.total_units() >= 4096
