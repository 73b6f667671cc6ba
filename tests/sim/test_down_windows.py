"""``ExecutionTrace.down_windows``: the failure/recovery pairing rule the
critical-path analysis and the fault-isolation invariant share."""

from repro.sim.trace import ExecutionTrace


def test_each_failure_pairs_with_the_first_recovery_at_or_after_it():
    trace = ExecutionTrace(["a", "b"])
    trace.record_recovery(0.5, "a")  # before any failure: pairs with none
    trace.record_failure(1.0, "a")
    trace.record_recovery(3.0, "a")
    trace.record_recovery(2.0, "a")
    trace.record_recovery(2.0, "b")
    trace.record_failure(2.0, "b")  # a recovery at the same instant counts
    trace.record_failure(4.0, "a")  # nothing follows: permanent
    assert trace.down_windows() == [
        ("a", 1.0, 2.0),
        ("b", 2.0, 2.0),
        ("a", 4.0, None),
    ]
