"""Extension — semantic checking at capture + plan-driven view maintenance."""

from repro.bench.experiments import semantics


def test_semantics(run_experiment):
    result = run_experiment(semantics.run)
    # Maintaining the planned views from the Op-Deltas beat rebuilding them
    # from the mirror after every transaction group.
    plan_driven, recompute = result.series["apply_span_ms"]
    assert plan_driven < recompute
