"""The names that the benchmark in ``perfbench/`` imports and patches exist.

``perfbench`` drives the program from outside: it imports entry points such
as ``new_minimal``, ``make_env`` and ``cli.load_checkpoint``, and its tracer
patches functions such as ``DynamicNet.forward``, ``Agent.clone`` and
``evolution.run_episode_set`` by name. Renaming or removing one of them
breaks the benchmark, and this check shows it within a second.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_patches_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import isolate
    import tracer
    import workloads

    import dynevo.netgraph

    forward = dynevo.netgraph.DynamicNet.forward
    t = tracer.Tracer()
    try:
        t.install()
        assert dynevo.netgraph.DynamicNet.forward is not forward
    finally:
        t.uninstall()
    assert dynevo.netgraph.DynamicNet.forward is forward
    genomes = isolate.genomes()
    assert genomes["static"].param_count() == 7902
    assert set(workloads.WORKLOADS) == {"cartpole-solve", "pendulum-pool", "static-resume"}
