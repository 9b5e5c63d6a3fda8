"""The benchmark's three workloads.

Each workload runs one *round*: a fixed, deterministic amount of work
derived from the workload seed. A round returns its timings, its
deterministic env-step count and the digests that pin its outputs.
The callers only time public entry points of ``dynevo``
(``run_evolution``, ``test_elite``, ``cli.main``) and read their results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import dynevo.cli
import dynevo.evolution as ev
from dynevo.envs import get_spec

# Per-workload sizes. ``full`` is the measured size; ``toy`` only proves
# that every metric is produced (smoke mode).
SIZES = {
    "full": {
        "cartpole-solve": {"pop": 64, "gens": 700},
        "pendulum-pool": {"pop": 64, "gens": 20},
        "static-resume": {"pop": 32, "gens": 2},
    },
    "toy": {
        "cartpole-solve": {"pop": 64, "gens": 25},
        "pendulum-pool": {"pop": 8, "gens": 3},
        "static-resume": {"pop": 4, "gens": 2},
    },
}

SOLVE_THRESHOLD = 475.0  # criterion 1: held-out test mean
SOLVE_PRETRIGGER = 499.0  # consult the test seeds once training looks solved
SOLVE_CHECK_EVERY = 25  # ... or on this cadence
PENDULUM_WORKERS = 2
PENDULUM_MIN_STEP_REWARD = -(math.pi**2 + 0.1 * 8.0**2 + 0.001 * 2.0**2)


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    gen_s: list = field(default_factory=list)  # per-generation intervals
    env_steps: int = 0
    ops: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    solve_s: list = field(default_factory=list)
    resume_s: float | None = None
    cli_other_bytes: int = 0  # run-directory bytes besides checkpoints
    # Checks the round's outputs; called once tracing is off, so that the
    # checks' own calls into dynevo stay out of the trace.
    verify: object = None

    def settle(self) -> None:
        self.verify()
        self.verify = None


class GenerationClock:
    """``on_generation`` callback that timestamps generation ends.

    Interval ``g`` runs from the end of generation ``g - 1`` (or from
    ``start``) to the end of generation ``g``, so it holds select, any
    checkpoint write and the caller's own callback work.
    """

    def __init__(self, start: float, then=None) -> None:
        self.last = start
        self.intervals: list[float] = []
        self.then = then

    def __call__(self, pop, record):
        verdict = self.then(pop, record) if self.then is not None else None
        now = time.perf_counter()
        self.intervals.append(now - self.last)
        self.last = now
        return verdict


def _cpu() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def checkpoint_digests(data: bytes) -> tuple[str, str, list]:
    """Digests of checkpoint bytes with every record's wall time zeroed.

    Returns ``(records_sha, checkpoint_sha, records)``. The records list
    is the checkpoint's last JSON member, so only it is decoded.
    """
    cut = data.rindex(b',"records":[')
    tail = json.loads(b"{" + data[cut + 1 :])
    for rec in tail["records"]:
        rec["elapsed_seconds"] = 0.0
    body = json.dumps(tail, separators=(",", ":")).encode()
    ckpt_sha = hashlib.sha256(data[:cut] + b"," + body[1:]).hexdigest()
    columns = [
        [v for k, v in rec.items() if k != "elapsed_seconds"]
        for rec in tail["records"]
    ]
    records_sha = hashlib.sha256(json.dumps(columns).encode()).hexdigest()
    return records_sha, ckpt_sha, tail["records"]


def _combine(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ----------------------------------------------------------------------
# cartpole-solve


def cartpole_solve(seed: int, size: dict, out_dir: Path) -> Round:
    """Solve CartPole-v1 for master seeds ``seed*1000, seed*1000+1, ...``
    one after another until ``size['gens']`` generations have run.

    A seed stops when its elite's held-out test mean reaches 475
    (criterion 1 of the acceptance gate); the seed running when the
    generation budget is spent is cut there and not counted as solved.
    """
    spec = get_spec("CartPole-v1")
    rnd = Round()
    kept = []
    budget = size["gens"]
    master = seed * 1000
    cpu0 = _cpu()
    while budget > 0:
        cfg = ev.EvolutionConfig(
            task="CartPole-v1", population_size=size["pop"],
            generations=budget, master_seed=master, workers=1,
        )
        solved = []

        def check(pop, record):
            rnd.env_steps += round(record.mean_fitness * cfg.population_size)
            if not (record.best_fitness >= SOLVE_PRETRIGGER
                    or record.generation % SOLVE_CHECK_EVERY == 0):
                return True
            mean, scores = ev.test_elite(pop, spec)
            rnd.env_steps += round(sum(scores))
            if mean < SOLVE_THRESHOLD:
                return True
            solved.append(record.generation)
            return False

        rnd.ops += 1
        start = time.perf_counter()
        clock = GenerationClock(start, check)
        pop, records = ev.run_evolution(cfg, on_generation=clock)
        end = time.perf_counter()
        rnd.wall_s += end - start
        rnd.gen_s += clock.intervals
        if solved:
            rnd.solve_s.append(end - start)
        kept.append((master, cfg, pop, records, solved[0] if solved else None))
        budget -= len(records)
        master += 1
    rnd.cpu_s = _cpu() - cpu0

    def verify():
        records_shas, ckpt_shas, solves = [], [], []
        for master, cfg, pop, records, generation in kept:
            data = ev.save_checkpoint(pop, cfg, records)
            rec_sha, ckpt_sha, _ = checkpoint_digests(data)
            records_shas.append(f"{master} {rec_sha}")
            ckpt_shas.append(f"{master} {ckpt_sha}")
            solves.append([master, generation])
        rnd.digests = {
            "records": _combine(records_shas),
            "checkpoint": _combine(ckpt_shas),
            "solve_generations": solves,
        }

    rnd.verify = verify
    return rnd


# ----------------------------------------------------------------------
# pendulum-pool


def pendulum_pool(seed: int, size: dict, out_dir: Path) -> Round:
    """Evolve Pendulum-v1 over generations ``[0, gens)`` with two pool
    workers, master seed ``seed``."""
    spec = get_spec("Pendulum-v1")
    cfg = ev.EvolutionConfig(
        task="Pendulum-v1", population_size=size["pop"],
        generations=size["gens"], master_seed=seed, workers=PENDULUM_WORKERS,
    )
    rnd = Round(ops=cfg.generations)
    cpu0 = _cpu()
    start = time.perf_counter()
    clock = GenerationClock(start)
    pop, records = ev.run_evolution(cfg, on_generation=clock)
    rnd.wall_s = time.perf_counter() - start
    rnd.cpu_s = _cpu() - cpu0
    rnd.gen_s = clock.intervals
    rnd.env_steps = (
        len(records) * cfg.population_size * spec.episodes_per_eval * spec.max_steps
    )


    def verify():
        data = ev.save_checkpoint(pop, cfg, records)
        rec_sha, ckpt_sha, _ = checkpoint_digests(data)
        rnd.digests = {"records": rec_sha, "checkpoint": ckpt_sha}
        if len(records) != cfg.generations:
            rnd.failures.append(f"{len(records)} generations run, {cfg.generations} asked")
        floor = spec.max_steps * PENDULUM_MIN_STEP_REWARD
        for r in records:
            if not (floor <= r.mean_fitness <= r.best_fitness <= 0.0
                    and floor <= r.median_fitness <= r.best_fitness):
                rnd.failures.append(f"generation {r.generation}: fitness out of range")
        if ev.save_checkpoint(*ev.load_checkpoint(data)) != data:
            rnd.failures.append("checkpoint does not round-trip")

    rnd.verify = verify
    return rnd


# ----------------------------------------------------------------------
# static-resume


def static_resume(seed: int, size: dict, out_dir: Path) -> Round:
    """Run the static baseline through the CLI with a checkpoint every
    generation, then resume from the mid-run checkpoint into a second
    run directory and run to the same final generation."""
    gens = size["gens"]
    mid = gens // 2
    first, second = out_dir / "evolve", out_dir / "resume"
    shutil.rmtree(out_dir, ignore_errors=True)
    common = ["--task", "CartPole-v1", "--gens", str(gens), "--workers", "1",
              "--checkpoint-every", "1"]
    commands = [
        ["evolve", *common, "--mode", "static", "--pop", str(size["pop"]),
         "--seed", str(seed), "--out", str(first)],
        ["evolve", *common, "--resume", str(first / f"ckpt_{mid}.bin"),
         "--out", str(second)],
    ]
    rnd = Round(ops=len(commands))
    entered = []
    clock = GenerationClock(0.0)
    run_evolution = dynevo.cli.run_evolution

    def timed_run(cfg, **kwargs):
        entered.append(time.perf_counter())
        clock.last = entered[-1]
        clock.then = kwargs.get("on_generation")
        kwargs["on_generation"] = clock
        return run_evolution(cfg, **kwargs)

    dynevo.cli.run_evolution = timed_run
    try:
        cpu0 = _cpu()
        for i, argv in enumerate(commands):
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = dynevo.cli.main(argv)
            except SystemExit as exc:  # the CLI's ``error:`` exit
                code = exc.code
            rnd.wall_s += time.perf_counter() - start
            if code != 0:
                rnd.failures.append(f"command {i} exited with {code}")
            elif i == 1:
                rnd.resume_s = entered[-1] - start
        rnd.cpu_s = _cpu() - cpu0
    finally:
        dynevo.cli.run_evolution = run_evolution
    rnd.gen_s = clock.intervals

    def verify():
        final = f"ckpt_{gens}.bin"
        files = {"manifest.json", "metrics.csv", "elite.bin", "elite.dot"}
        for run_dir, first_ckpt in ((first, 1), (second, mid + 1)):
            expected = files | {f"ckpt_{g}.bin" for g in range(first_ckpt, gens + 1)}
            found = {p.name for p in run_dir.iterdir()}
            if found != expected:
                rnd.failures.append(f"{run_dir.name}: files {sorted(found ^ expected)} differ")
            rnd.cli_other_bytes += sum(
                (run_dir / name).stat().st_size for name in files & found
            )
        whole = checkpoint_digests((first / final).read_bytes())
        resumed = checkpoint_digests((second / final).read_bytes())
        if whole[:2] != resumed[:2]:
            rnd.failures.append("resumed run differs from the uninterrupted run")
        rnd.env_steps = round(sum(r["mean_fitness"] for r in whole[2]) * size["pop"])
        rnd.env_steps += round(
            sum(r["mean_fitness"] for r in resumed[2][mid:]) * size["pop"]
        )
        rnd.digests = {"records": whole[0], "checkpoint": whole[1]}
        shutil.rmtree(out_dir, ignore_errors=True)

    rnd.verify = verify
    return rnd


WORKLOADS = {
    "cartpole-solve": cartpole_solve,
    "pendulum-pool": pendulum_pool,
    "static-resume": static_resume,
}
