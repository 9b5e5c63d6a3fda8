"""dynevo benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics: set-up probes, then
rounds of the workload's fixed work until ``--seconds`` are used.
``--trace 1`` runs the layer-isolation pass, one untraced round and one
traced round, and reports the per-layer metrics. Both check the outputs.
Human-readable lines come first; the last line of standard output is
the JSON result. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checkout

checkout.use_source()

import dynevo  # noqa: E402
import numpy  # noqa: E402

import isolate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = checkout.ROOT / "BENCHMARK.json"
PINS = Path(__file__).with_name("pins.json")
PROBE = Path(__file__).with_name("probe.py")
SETUP_PROBES = 5  # timed set-up probes per run, after one warm-up probe
PROBE_TIMEOUT_S = 60
PERCENTILE_MIN_SAMPLES = 40  # p75 needs ten samples beyond it
CANARY_SEED = 0


# ----------------------------------------------------------------------
# provenance


def _git_sha() -> str | None:
    git = checkout.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    """The machine and code a result was measured on."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((checkout.SRC / "dynevo").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dynevo": dynevo.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# measuring


def setup_probe(workload: str, seed: int, size: str, work) -> float | None:
    """Seconds from launching a fresh process to its first generation."""
    cmd = [sys.executable, str(PROBE), workload, str(seed), size, str(work)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
        if line:
            proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    return elapsed if line == b"ready\n" and proc.returncode == 0 else None


def one_round(workload: str, seed: int, size: dict, work, trace=None):
    """Run and check one round; a raised error becomes a failed round."""
    if trace is not None:
        trace.install()
    try:
        rnd = workloads.WORKLOADS[workload](seed, size, work)
    except Exception as exc:  # a program failure is counted, not fatal
        traceback.print_exc()
        return workloads.Round(ops=1, failures=[f"{type(exc).__name__}: {exc}"])
    finally:
        if trace is not None:
            trace.uninstall()
    try:
        rnd.settle()
    except Exception as exc:
        traceback.print_exc()
        rnd.failures.append(f"check raised {type(exc).__name__}: {exc}")
    return rnd


def rounds_for(seconds: float, workload: str, seed: int, size: dict, work) -> list:
    """Rounds until the next one would end after ``seconds``; at least one."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        start = time.perf_counter()
        rounds.append(one_round(workload, seed, size, work))
        took = time.perf_counter() - start
        if rounds[-1].failures or time.perf_counter() + took > deadline:
            return rounds


def cross_checks(workload: str, seed: int, size: str, rounds: list) -> list[str]:
    """Rounds must agree with each other and with the pinned digests."""
    done = [r for r in rounds if r.digests]
    failures = [
        f"round {i} outputs differ from round 0"
        for i, r in enumerate(done[1:], 1)
        if r.digests != done[0].digests
    ]
    pins = json.loads(PINS.read_text()).get(workload, {}).get(size, {})
    pin = pins.get(str(seed))
    if pin is not None and done:
        failures += [
            f"{key} differs from the value pinned for seed {seed}"
            for key, value in pin.items()
            if done[0].digests.get(key) != value
        ]
    return failures


def _p75(values: list) -> float:
    return statistics.quantiles(values, n=4)[2]


def end_to_end(rounds: list, setup: list) -> dict:
    """``{name: (value, unit, samples)}`` over the completed rounds."""
    done = [r for r in rounds if r.wall_s > 0] or [workloads.Round()]
    med = statistics.median
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "setup_s": (med(setup) if setup else 0.0, "s", len(setup)),
        "wall_s": (med(r.wall_s for r in done), "s", len(done)),
        "cpu_s": (med(r.cpu_s for r in done), "s", len(done)),
        "env_steps_per_s": (
            med(r.env_steps / r.wall_s if r.wall_s else 0.0 for r in done),
            "1/s", len(done)),
        "peak_rss_mb": (peak, "MiB", 1),
    }
    gens = [g * 1e3 for r in done for g in r.gen_s]
    if len(gens) >= PERCENTILE_MIN_SAMPLES:
        out["gen_ms_p50"] = (med(gens), "ms", len(gens))
        out["gen_ms_p75"] = (_p75(gens), "ms", len(gens))
    solves = [s for r in done for s in r.solve_s]
    if solves:
        out["solve_s_p50"] = (med(solves), "s", len(solves))
    if len(solves) >= PERCENTILE_MIN_SAMPLES:
        out["solve_s_p75"] = (_p75(solves), "s", len(solves))
    resumes = [r.resume_s for r in done if r.resume_s is not None]
    if resumes:
        out["resume_s"] = (med(resumes), "s", len(resumes))
    return out


def per_layer(workload: str, seed: int, size: dict, work) -> tuple[dict, list]:
    """Isolation pass, an untraced round and a traced round."""
    out = {}
    for task, us in isolate.env_step_us(checkout.ROOT / "tests" / "golden").items():
        out[f"envs.step.us.{task}"] = (us, "us")
    for genome, us in isolate.forward_us().items():
        out[f"netgraph.forward.us.{genome}"] = (us, "us")
    plain = one_round(workload, seed, size, work)
    trace = tracer.Tracer()
    traced = one_round(workload, seed, size, work, trace)
    out.update(trace.layer_metrics())
    saved = out["evolution.save_checkpoint.bytes"][0]
    out["cli.bytes_written"] = (traced.cli_other_bytes + saved, "B")
    out["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    coverage = trace.stage_s() / traced.wall_s if traced.wall_s else 0.0
    out["trace.stage_coverage"] = (coverage, "fraction")
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    trace.write_spans(checkout.OUT / f"{workload}-seed{seed}-spans.jsonl")
    return {k: (v, u, 1) for k, (v, u) in out.items()}, [plain, traced]


def declared(metrics: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    out = {}
    for entry in wanted:
        value, unit, _ = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit}, declared {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def measure(args) -> int:
    bench = json.loads(BENCHMARK.read_text())
    size = workloads.SIZES[args.size][args.workload]
    work = checkout.OUT / "work" / f"{args.workload}-{os.getpid()}"
    info = provenance()
    attempted = failed = 0
    if args.trace:
        metrics, rounds = per_layer(args.workload, args.seed, size, work)
        wanted = bench["per_layer"]
    else:
        setup = []
        for i in range(SETUP_PROBES + 1):
            took = setup_probe(args.workload, args.seed, args.size, work)
            attempted += 1
            failed += took is None
            if i and took is not None:
                setup.append(took)
        rounds = rounds_for(args.seconds, args.workload, args.seed, size, work)
        metrics = end_to_end(rounds, setup)
        wanted = bench["end_to_end"]
    failures = [f for r in rounds for f in r.failures]
    failures += cross_checks(args.workload, args.seed, args.size, rounds)
    # The canary is the toy-size round of the pinned seed: it checks the
    # outputs on fixed inputs whatever workload seed this run was given.
    canary = one_round(args.workload, CANARY_SEED, workloads.SIZES["toy"][args.workload], work)
    failures += [f"canary: {f}" for f in canary.failures]
    failures += [f"canary: {f}" for f in cross_checks(args.workload, CANARY_SEED, "toy", [canary])]
    attempted += sum(r.ops for r in rounds) + canary.ops
    failed = min(attempted, failed + len(failures))
    shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  size={args.size}"
          f"  rounds={len(rounds)}")
    for key, value in info.items():
        print(f"#   {key}: {value}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:12s} n={samples}")
    print(f"{'failed_frac':40s} {failed / attempted:14.6g} {'fraction':12s} n={attempted}")
    for failure in failures:
        print(f"FAILED: {failure}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": declared(metrics, wanted),
    }
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  size=args.size, provenance=info, failures=failures,
                  report={k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
                  round_walls=[r.wall_s for r in rounds],
                  digests=[r.digests for r in rounds])
    out = checkout.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# smoke mode


def smoke() -> int:
    """Run every workload at toy size in both modes and check that each
    metric named in BENCHMARK.json is reported with its unit."""
    bench = json.loads(BENCHMARK.read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--size", "toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            known = len(problems)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                print(f"{label}: failed", flush=True)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {proc.stdout}")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in wanted}:
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            for m in wanted:
                got = metrics.get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: {m['name']} reported as {got}")
            print(f"{label}: {'ok' if len(problems) == known else 'failed'}", flush=True)
    for problem in problems:
        print(f"SMOKE: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="toy sizes only prove that every metric is produced")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the metric names")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
