"""Determinism and cross-backend integration tests."""

import ast
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro import Greedy, PLBHeC, Runtime, paper_cluster
from repro.apps import BlackScholes, MatMul

#: Layers whose results are virtual time (or a pure function of the
#: inputs).  The host clocks (``perf_counter``, ``time.time``,
#: ``monotonic``, ``process_time``) live in the ``time`` module, and no
#: module of these layers imports it.
VIRTUAL_TIME_LAYERS = (
    "core", "solver", "modeling", "sim", "cluster", "balancers", "service",
    "runtime",
)
#: The real backend's makespan is wall time by definition.
HOST_CLOCK_EXEMPT = {"runtime/real_executor.py"}


def time_imports(tree: ast.AST) -> list[int]:
    """Lines of a module that import ``time`` or a name from it."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "time" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "time")
    ]


class TestDeterminism:
    def test_sim_run_reproducible(self, small_cluster):
        """Bit-identical reruns with fixed scheduler-overhead accounting."""
        app = MatMul(n=4096)
        spans = []
        traces = []
        for _ in range(2):
            rt = Runtime(small_cluster, app.codelet(), seed=17, noise_sigma=0.02)
            res = rt.run(
                PLBHeC(fixed_overhead_s=0.01),
                app.total_units,
                app.default_initial_block_size(),
            )
            spans.append(res.makespan)
            traces.append(
                [(r.worker_id, r.units, r.end_time) for r in res.trace.records]
            )
        assert spans[0] == spans[1]
        assert traces[0] == traces[1]

    def test_measured_overhead_near_reproducible(self, small_cluster):
        """The default (modeled) overhead reruns to the same virtual time."""
        app = MatMul(n=4096)
        spans = []
        for _ in range(2):
            rt = Runtime(small_cluster, app.codelet(), seed=17, noise_sigma=0.02)
            res = rt.run(PLBHeC(), app.total_units, app.default_initial_block_size())
            spans.append(res.makespan)
        assert spans[0] == spans[1]

    def test_seed_changes_results(self, small_cluster):
        app = MatMul(n=4096)
        spans = set()
        for seed in (1, 2):
            rt = Runtime(small_cluster, app.codelet(), seed=seed, noise_sigma=0.05)
            res = rt.run(Greedy(), app.total_units, 8)
            spans.add(res.makespan)
        assert len(spans) == 2

    def test_policies_do_not_share_state(self, small_cluster):
        """Reusing one policy object across runs must not leak state."""
        app = MatMul(n=2048)
        policy = PLBHeC(fixed_overhead_s=0.005)
        r1 = Runtime(small_cluster, app.codelet(), seed=1).run(
            policy, app.total_units, 8
        )
        r2 = Runtime(small_cluster, app.codelet(), seed=1).run(
            policy, app.total_units, 8
        )
        assert r1.makespan == pytest.approx(r2.makespan)


class TestRealBackendEndToEnd:
    def test_matmul_verified_under_plb(self, small_cluster):
        app = MatMul(n=256)
        rt = Runtime(
            small_cluster,
            app.codelet(),
            backend="real",
            speed_factors={"beta.cpu": 2.0},
        )
        res = rt.run(PLBHeC(num_steps=2), app.total_units, 16)
        assert app.verify(res.results)

    def test_blackscholes_verified_under_greedy(self, small_cluster):
        app = BlackScholes(400, lattice_steps=128)
        rt = Runtime(small_cluster, app.codelet(), backend="real")
        res = rt.run(Greedy(num_pieces=16), app.total_units, 16)
        assert app.verify(res.results)


class TestVirtualTimeScaling:
    def test_wall_time_much_smaller_than_virtual(self):
        """A paper-scale run must simulate in a fraction of its makespan."""
        app = MatMul(n=32768)
        rt = Runtime(paper_cluster(4), app.codelet(), seed=0)
        t0 = time.perf_counter()
        res = rt.run(Greedy(), app.total_units, app.default_initial_block_size())
        wall_s = time.perf_counter() - t0
        assert res.makespan > 10.0  # tens of virtual seconds
        assert wall_s < res.makespan / 10


class TestNoHostClock:
    def test_library_layers_read_no_host_clock(self):
        """Host time is the phase profiler's and S1's to measure: the
        layers that compute a run read no clock, so equal inputs give
        equal outputs on any host."""
        root = pathlib.Path(repro.__file__).parent
        found = {}
        for layer in VIRTUAL_TIME_LAYERS:
            for path in sorted((root / layer).rglob("*.py")):
                name = path.relative_to(root).as_posix()
                lines = time_imports(ast.parse(path.read_text()))
                if lines and name not in HOST_CLOCK_EXEMPT:
                    found[name] = lines
        assert found == {}
        # the guard sees the one module that does read the clock
        real = root / "runtime" / "real_executor.py"
        assert time_imports(ast.parse(real.read_text()))


#: Standard-library packages no entry point needs: ``xml.sax.saxutils``
#: alone loads all of them (``urllib.request``, and through it
#: ``http.client``, ``email`` and ``ssl``).
HEAVY_STDLIB = ("xml.sax", "urllib.request", "http.client", "email", "ssl")

_COLD_IMPORT = """
import sys
import repro.cli, repro.experiments.parallel, repro.service
print(sorted(m for m in sys.modules if m.startswith(tuple(sys.argv[1:]))))
"""


class TestColdImport:
    def test_entry_points_load_no_http_or_email_stack(self):
        """Every CLI command, sweep worker and service imports these; the
        SVG and HTML writers escape text with ``html.escape``."""
        src = pathlib.Path(repro.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_IMPORT, *HEAVY_STDLIB],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
