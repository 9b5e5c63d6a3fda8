"""The names that the benchmark in ``perfbench/`` imports and patches exist.

``perfbench`` drives the program from outside: it imports entry points such
as ``new_minimal``, ``make_env`` and ``cli.load_checkpoint``, and its tracer
patches functions such as ``DynamicNet.forward``, ``Agent.clone`` and
``evolution.run_episode_set`` by name. Outside the tracer,
``workloads.static_resume`` wraps ``cli.run_evolution`` and ``probe.py``
replaces ``evolution.variation``; those patches work only while the program
looks each name up as a module global at call time. ``netgraph.serialize``
in a trace counts the ``elite.bin`` writes only while ``cmd_evolve`` codes
the elite through the genome's ``serialize``; the tracer patches
``DynamicNet``'s, so a frozen elite's write is not counted there. The
isolation pass times ``forward`` on the static genome of ``isolate.genomes()``,
a :class:`~dynevo.netgraph.FrozenNet`. Renaming or removing
one of them breaks the benchmark, and this check shows it within a second.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _Reached(Exception):
    """Raised by a stand-in to show that the program called it."""


def _reached(*_args, **_kwargs):
    raise _Reached


def test_benchmark_imports_and_patches_resolve(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import isolate
    import tracer
    import workloads

    import dynevo.cli
    import dynevo.evolution
    import dynevo.netgraph
    import dynevo.rng

    forward = dynevo.netgraph.DynamicNet.forward
    t = tracer.Tracer()
    try:
        t.install()
        assert dynevo.netgraph.DynamicNet.forward is not forward
    finally:
        t.uninstall()
    assert dynevo.netgraph.DynamicNet.forward is forward
    genomes = isolate.genomes()
    static = genomes["static"]
    assert static.param_count() == 7902
    static.perturb_parameters(dynevo.rng.RngStream(0))
    state = static.reset_state()
    assert len(static.forward(state, [0.1, -0.2, 0.3, -0.4])) == 2
    assert set(workloads.WORKLOADS) == {"cartpole-solve", "pendulum-pool", "static-resume"}

    monkeypatch.setattr(dynevo.cli, "run_evolution", _reached)
    with pytest.raises(_Reached):  # cmd_evolve reads cli.run_evolution when it runs
        dynevo.cli.main(["evolve", "--task", "CartPole-v1", "--pop", "2", "--gens", "1",
                         "--workers", "1", "--out", str(tmp_path / "run")])
    monkeypatch.setattr(dynevo.evolution, "variation", _reached)
    with pytest.raises(_Reached):  # run_evolution reads evolution.variation when it runs
        dynevo.evolution.run_evolution(
            dynevo.evolution.EvolutionConfig("CartPole-v1", population_size=2, generations=1))


@pytest.mark.parametrize("mode,kind", [("dynamic", "DynamicNet"), ("static", "FrozenNet")])
def test_evolve_writes_the_elite_through_serialize(mode, kind, monkeypatch, tmp_path):
    import dynevo.cli
    import dynevo.netgraph

    monkeypatch.setattr(getattr(dynevo.netgraph, kind), "serialize", _reached)
    with pytest.raises(_Reached):  # cmd_evolve codes elite.bin with the genome's serialize
        dynevo.cli.main(["evolve", "--task", "CartPole-v1", "--mode", mode, "--pop", "2",
                         "--gens", "1", "--workers", "1", "--out", str(tmp_path / "run")])
    assert (tmp_path / "run" / "ckpt_1.bin").exists()
    assert not (tmp_path / "run" / "elite.bin").exists()
