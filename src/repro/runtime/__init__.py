"""StarPU-like runtime: codelets, tasks, workers, pluggable schedulers.

The paper implements PLB-HeC as a StarPU scheduling policy.  This
package provides the equivalent runtime surface:

* :mod:`repro.runtime.codelet` — a task type with per-architecture
  implementations (CPU / GPU), like StarPU codelets;
* :mod:`repro.runtime.data` — the divisible application data domain
  (domain decomposition into integer block units);
* :mod:`repro.runtime.task` — one block execution;
* :mod:`repro.runtime.scheduler_api` — the policy protocol: a policy is
  asked for the next block size when a worker goes idle and is told
  about every completion (the paper's ``FinishedTaskExecution`` hook);
* :mod:`repro.runtime.faults` — the Sec. VI fault model both
  executors share: the fault kinds and the :class:`FaultTimeline` that
  answers what each one does;
* :mod:`repro.runtime.sim_executor` — the virtual-time backend driving
  policies against the cluster ground truth;
* :mod:`repro.runtime.real_executor` — a thread-pool backend running
  real NumPy kernels in wall time;
* :mod:`repro.runtime.runtime` — the :class:`Runtime` facade tying a
  cluster, an application and a policy together.

Information hiding is enforced structurally: policies receive a
:class:`~repro.runtime.scheduler_api.SchedulingContext` holding public
device facts (id, kind, machine) and observed task records — never the
ground-truth performance model.
"""

from repro.runtime.codelet import Codelet
from repro.runtime.data import BlockDomain
from repro.runtime.real_executor import RealExecutor
from repro.runtime.runtime import Runtime, RunResult
from repro.runtime.scheduler_api import (
    DeviceInfo,
    SchedulingContext,
    SchedulingPolicy,
)
from repro.runtime.faults import (
    DeviceFailure,
    Perturbation,
    TransferFault,
    TransientFailure,
)
from repro.runtime.sim_executor import SimulatedExecutor
from repro.runtime.task import Task, TaskState

__all__ = [
    "Codelet",
    "BlockDomain",
    "Task",
    "TaskState",
    "DeviceInfo",
    "SchedulingContext",
    "SchedulingPolicy",
    "Perturbation",
    "DeviceFailure",
    "TransientFailure",
    "TransferFault",
    "SimulatedExecutor",
    "RealExecutor",
    "Runtime",
    "RunResult",
]
