"""Command-line interface: evolve runs, elite testing, DOT export.

The CLI is the only place that touches the filesystem; the library
modules only produce and consume explicit byte sequences. Every run
directory is self-describing: ``manifest.json`` (config echo),
``metrics.csv`` (one row per generation), checkpoints, the final elite
genome and its DOT export. Progress goes to stderr; data goes to files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .envs import SUPPORTED_TASKS, get_spec
from .evolution import (
    CHECKPOINT_MAGIC,
    TEST_SEEDS,
    CheckpointFormatError,
    EvolutionConfig,
    elite_of,
    load_checkpoint,
    run_evolution,
    test_elite,
    write_atomic,
)
from .netgraph import DynamicNet, GenomeFormatError


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_evolve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", help="task id, e.g. CartPole-v1")
    p.add_argument("--mode", choices=["dynamic", "static"], default=None)
    p.add_argument("--pop", type=int, default=None, help="population size (even)")
    p.add_argument("--gens", type=int, default=None, help="number of generations")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument(
        "--workers", type=int, default=None,
        help="most worker processes (default: $DYNEVO_WORKERS or 1)",
    )
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--config", default=None, help="JSON file mirroring the flags")


_CONFIG_KEYS = {
    "task": "task",
    "mode": "mode",
    "pop": "population_size",
    "gens": "generations",
    "seed": "master_seed",
    "workers": "workers",
    "checkpoint_every": "checkpoint_every",
    "perturb_sigma": "perturb_sigma",
    "init_sigma": "init_sigma",
}


def _requested_values(args) -> dict:
    """Config fields set by ``--config`` and the flags; flags win."""
    values: dict = {}
    if args.config:
        path = Path(args.config)
        try:
            file_cfg = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read config file {path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise SystemExit(f"error: config file {path} must hold a JSON object")
        for key, val in file_cfg.items():
            if key not in _CONFIG_KEYS:
                raise SystemExit(f"error: unknown config key {key!r}")
            values[_CONFIG_KEYS[key]] = val
    for flag in ("task", "mode", "pop", "gens", "seed", "checkpoint_every"):
        val = getattr(args, flag)
        if val is not None:
            values[_CONFIG_KEYS[flag]] = val
    return values


def _build_config(args) -> EvolutionConfig:
    values = _requested_values(args)
    workers = args.workers
    if workers is None:
        workers = values.get("workers")
        if not workers:
            env = os.environ.get("DYNEVO_WORKERS", "1")
            try:
                workers = int(env)
            except ValueError:
                raise SystemExit(f"error: DYNEVO_WORKERS is not an integer: {env!r}")
    values["workers"] = workers
    if "task" not in values:
        raise SystemExit("error: --task is required (or provide it via --config)")
    cfg = EvolutionConfig(**values)
    try:
        cfg.validate()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    return cfg


def cmd_evolve(args) -> int:
    cfg = _build_config(args)
    if args.out is None:
        raise SystemExit("error: --out is required")
    out_dir = Path(args.out)

    resume = None
    if args.resume:
        try:
            pop, ckpt_cfg, records = load_checkpoint(Path(args.resume).read_bytes())
        except (OSError, CheckpointFormatError) as exc:
            raise SystemExit(f"error: cannot resume: {exc}")
        # Resume keeps the original run parameters except run length and
        # worker count, which the command line may extend or override.
        requested = _requested_values(args)
        for key in ("task", "mode", "population_size", "master_seed"):
            if key in requested and requested[key] != getattr(ckpt_cfg, key):
                raise SystemExit(
                    f"error: {key} {requested[key]!r} differs from the checkpoint's "
                    f"{getattr(ckpt_cfg, key)!r}; a resumed run keeps its task, "
                    "mode, population size and seed"
                )
        ckpt_cfg.generations = cfg.generations
        ckpt_cfg.workers = cfg.workers
        ckpt_cfg.checkpoint_every = cfg.checkpoint_every
        cfg = ckpt_cfg
        resume = (pop, records)
        _log(f"resuming at generation {pop.generation}")

    def progress(pop, record):
        if record.generation % 10 == 0 or record.generation == cfg.generations - 1:
            _log(
                f"gen {record.generation:5d}  best {record.best_fitness:10.2f}"
                f"  mean {record.mean_fitness:10.2f}"
                f"  elite params {record.elite_params}"
            )

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "config": asdict(cfg),
            "start_timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "code_version": __version__,
            "out_dir": str(out_dir),
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        pop, records = run_evolution(cfg, out_dir=out_dir, resume=resume,
                                     on_generation=progress)
        elite = elite_of(pop)
        write_atomic(out_dir / "elite.bin", elite.genome.serialize())
        write_atomic(out_dir / "elite.dot", elite.genome.to_dot().encode())
    except OSError as exc:
        raise SystemExit(f"error: cannot write run directory {out_dir}: {exc}")
    except RuntimeError as exc:
        if not isinstance(exc.__cause__, OSError):  # not a failed checkpoint write
            raise
        raise SystemExit(f"error: {exc}")
    _log(
        f"done: {len(records)} generations recorded, elite fitness "
        f"{elite.fitness:.2f}, {elite.genome.param_count()} parameters"
    )
    return 0


def cmd_test(args) -> int:
    try:
        pop, cfg, _records = load_checkpoint(Path(args.checkpoint).read_bytes())
    except (OSError, CheckpointFormatError) as exc:
        raise SystemExit(f"error: {exc}")
    spec = get_spec(cfg.task)
    mean, scores = test_elite(pop, spec)
    for seed, score in zip(TEST_SEEDS, scores):
        print(f"seed {seed}: {score}")
    print(f"mean over {len(scores)} runs: {mean}")
    print(f"TEST_MEAN={mean}")
    return 0


def cmd_export_dot(args) -> int:
    path = Path(args.input)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        if data.startswith(CHECKPOINT_MAGIC):
            pop, _cfg, _records = load_checkpoint(data)
            if args.slot is not None:
                agents = [a for a in pop.agents if a.slot == args.slot]
                if not agents:
                    raise SystemExit(f"error: no agent in slot {args.slot}")
                genome = agents[0].genome
            else:
                genome = elite_of(pop).genome
        else:
            genome = DynamicNet.deserialize(data)
    except (CheckpointFormatError, GenomeFormatError) as exc:
        raise SystemExit(f"error: {exc}")
    Path(args.output).write_text(genome.to_dot())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dynevo",
        description=(
            "Evolve dynamic recurrent network architectures on classic-"
            "control tasks. Supported tasks: " + ", ".join(SUPPORTED_TASKS)
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="run an evolutionary optimization")
    _add_evolve_args(p_evolve)
    p_evolve.set_defaults(func=cmd_evolve)

    p_test = sub.add_parser("test", help="score a checkpoint's elite on held-out seeds")
    p_test.add_argument("checkpoint")
    p_test.set_defaults(func=cmd_test)

    p_dot = sub.add_parser("export-dot", help="write a genome as a DOT digraph")
    p_dot.add_argument("input", help="checkpoint or genome file")
    p_dot.add_argument("output", help="path for the DOT text")
    p_dot.add_argument("--slot", type=int, default=None,
                       help="population slot (default: elite)")
    p_dot.set_defaults(func=cmd_export_dot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
