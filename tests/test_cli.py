"""End-to-end checks of the command-line harness."""

import dataclasses
import errno
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

import dynevo
from dynevo.cli import main
from dynevo.evolution import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointFormatError,
    load_checkpoint,
)
from dynevo.netgraph import decode_framed, encode_framed


def run_cli(args):
    return main(args)


def evolve_args(out, task="CartPole-v1", pop=8, gens=3, seed=0, extra=()):
    return [
        "evolve", "--task", task, "--mode", "dynamic", "--pop", str(pop),
        "--gens", str(gens), "--seed", str(seed), "--workers", "1",
        "--out", str(out), *extra,
    ]


def test_evolve_produces_run_directory(tmp_path):
    out = tmp_path / "run"
    assert run_cli(evolve_args(out)) == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("generation,best_fitness")
    assert len(metrics) == 4  # header + 3 generations
    assert (out / "manifest.json").exists()
    assert (out / "ckpt_3.bin").exists()
    assert (out / "elite.bin").exists()
    assert (out / "elite.dot").read_text().startswith("digraph")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["task"] == "CartPole-v1"


def test_evolve_deterministic_metrics(tmp_path):
    rows = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli(evolve_args(out))
        lines = (out / "metrics.csv").read_text().splitlines()
        # identical modulo wall-clock column
        rows.append([",".join(l.split(",")[:-1]) for l in lines])
    assert rows[0] == rows[1]


def test_evolve_rejects_unsupported_task(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(evolve_args(tmp_path / "x", task="Ant-v3"))


def test_evolve_requires_task(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["evolve", "--out", str(tmp_path / "x")])


def test_config_file_mirrors_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "CartPole-v1", "pop": 8, "gens": 2, "seed": 0, "workers": 1,
    }))
    out = tmp_path / "run"
    assert run_cli(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len((out / "metrics.csv").read_text().splitlines()) == 3


def test_config_file_rejects_unknown_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "CartPole-v1", "bogus": 1}))
    with pytest.raises(SystemExit):
        run_cli(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("text", ["{bad", "[1]", None])  # None: no file
def test_config_file_malformed_is_error_line(tmp_path, text):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert str(exc.value).startswith("error:")


def test_config_value_wrong_type_is_error_line(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "CartPole-v1", "pop": "8"}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert str(exc.value).startswith("error: population_size must be an integer")


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("key", ["perturb_sigma", "init_sigma"])
def test_config_non_finite_sigma_is_error_line(tmp_path, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"task": "CartPole-v1", "pop": 4, "gens": 2, "workers": 1, '
                        f'"{key}": {value}}}')
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert str(exc.value) == "error: sigmas must be positive and finite"
    assert not (tmp_path / "o").exists()


def test_config_file_workers_zero_is_error_line(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "CartPole-v1", "workers": 0}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert str(exc.value) == "error: workers must be >= 1"


def test_test_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli(evolve_args(out, gens=2))
    capsys.readouterr()
    assert run_cli(["test", str(out / "ckpt_2.bin")]) == 0
    captured = capsys.readouterr().out
    seed_lines = [l for l in captured.splitlines() if l.startswith("seed ")]
    assert len(seed_lines) == 10
    assert any(l.startswith("TEST_MEAN=") for l in captured.splitlines())


def test_test_subcommand_corrupt_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"DYNEVO-CKPT\x01\x00\x00\x00oops")
    with pytest.raises(SystemExit):
        run_cli(["test", str(bad)])


def test_test_subcommand_missing_file(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["test", str(tmp_path / "nope.bin")])


def test_export_dot_from_genome(tmp_path):
    from dynevo import new_minimal

    gpath = tmp_path / "g.bin"
    gpath.write_bytes(new_minimal(3, 2).serialize())
    dpath = tmp_path / "g.dot"
    assert run_cli(["export-dot", str(gpath), str(dpath)]) == 0
    dot = dpath.read_text()
    assert dot.startswith("digraph")
    assert sum(line.count("->") for line in dot.splitlines()) == 0


def test_export_dot_from_checkpoint(tmp_path):
    out = tmp_path / "run"
    run_cli(evolve_args(out, gens=2))
    dpath = tmp_path / "elite.dot"
    assert run_cli(["export-dot", str(out / "ckpt_2.bin"), str(dpath)]) == 0
    assert dpath.read_text().startswith("digraph")


def test_export_dot_missing_input(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["export-dot", str(tmp_path / "nope"), str(tmp_path / "o.dot")])


def test_resume_continues_run(tmp_path):
    out_full = tmp_path / "full"
    run_cli(evolve_args(out_full, gens=6, extra=["--checkpoint-every", "3"]))
    out_resumed = tmp_path / "resumed"
    run_cli(evolve_args(out_resumed, gens=6, extra=[
        "--resume", str(out_full / "ckpt_3.bin"),
    ]))
    pop_a, _, recs_a = load_checkpoint((out_full / "ckpt_6.bin").read_bytes())
    pop_b, _, recs_b = load_checkpoint((out_resumed / "ckpt_6.bin").read_bytes())
    assert [a.genome.to_obj() for a in pop_a.agents] == [
        a.genome.to_obj() for a in pop_b.agents
    ]
    strip = lambda r: (r.generation, r.best_fitness, r.elite_params)
    assert [strip(r) for r in recs_a] == [strip(r) for r in recs_b]


def test_resume_into_same_dir_rewrites_metrics(tmp_path):
    out = tmp_path / "rr"
    run_cli(evolve_args(out, gens=6, extra=["--checkpoint-every", "3"]))
    full = (out / "metrics.csv").read_text().splitlines()
    run_cli(evolve_args(out, gens=6, extra=["--resume", str(out / "ckpt_3.bin")]))
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2", "3", "4", "5"]
    # identical modulo wall-clock column
    assert [l.rsplit(",", 1)[0] for l in lines] == [l.rsplit(",", 1)[0] for l in full]


@pytest.fixture(scope="module")
def resumable(tmp_path_factory):
    """A 4-agent CartPole run, seed 3, with a checkpoint at generation 1."""
    out = tmp_path_factory.mktemp("resumable") / "a"
    run_cli(evolve_args(out, pop=4, gens=1, seed=3))
    return out / "ckpt_1.bin"


@pytest.mark.parametrize("flags", [
    ["--task", "Pendulum-v1"],
    ["--mode", "static"],
    ["--pop", "8"],
    ["--seed", "99"],
    {"perturb_sigma": 0.5},  # a dict: --config file contents
    {"init_sigma": 2.0},
])
def test_resume_rejects_differing_run_flags(tmp_path, resumable, flags):
    args = ["evolve", "--task", "CartPole-v1", "--gens", "2", "--workers", "1",
            "--resume", str(resumable), "--out", str(tmp_path / "r")]
    if isinstance(flags, dict):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(flags))
        args += ["--config", str(cfg_path)]
    elif flags[0] == "--task":
        args[2] = flags[1]
    else:
        args += flags
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert str(exc.value).startswith("error:")
    assert not (tmp_path / "r" / "ckpt_2.bin").exists()


def test_resume_rejects_differing_config_file_value(tmp_path, resumable):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": "CartPole-v1", "seed": 4}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--config", str(cfg_path), "--gens", "2",
                 "--resume", str(resumable), "--out", str(tmp_path / "r")])
    assert str(exc.value).startswith("error: master_seed")


def test_resume_from_checkpoint_with_wrong_config_type_is_error_line(tmp_path, resumable):
    bad = tmp_path / "bad.bin"
    data = resumable.read_bytes()
    assert data.count(b'"population_size":4') == 1
    bad.write_bytes(data.replace(b'"population_size":4', b'"population_size":"4"'))
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--task", "CartPole-v1", "--gens", "2",
                 "--resume", str(bad), "--out", str(tmp_path / "r")])
    assert str(exc.value).startswith("error: cannot resume: corrupt checkpoint")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_seed_sequence_range_is_error_line(tmp_path, resumable, seed):
    reason = f"master_seed must be in [0, 2**64), got {seed}"
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(tmp_path / "o", seed=seed))
    assert str(exc.value) == f"error: {reason}"
    assert not (tmp_path / "o").exists()

    frame = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    obj = decode_framed(resumable.read_bytes(), *frame, CheckpointFormatError, "checkpoint")
    obj["master_seed"] = obj["config"]["master_seed"] = seed
    bad = tmp_path / "bad.bin"
    bad.write_bytes(encode_framed(*frame, obj))
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--workers", "1", "--resume", str(bad), "--out", str(tmp_path / "r")])
    assert str(exc.value) == f"error: cannot resume: corrupt checkpoint: {reason}"
    assert not (tmp_path / "r").exists()


def _set_all_slots_zero(obj):
    for rec in obj["agents"]:
        rec["slot"] = 0


@pytest.mark.parametrize("edit,reason", [
    (lambda obj: obj.update(master_seed=99), "master_seed 99 differs from the config's 3"),
    (_set_all_slots_zero, "agent record 1 names slot 0"),
    (lambda obj: obj.update(generation=0), "records are not generations 0 .. -1"),
], ids=["seed", "slots", "records"])
def test_resume_of_checkpoint_with_disagreeing_copy_is_error_line(
    tmp_path, resumable, edit, reason
):
    frame = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    obj = decode_framed(resumable.read_bytes(), *frame, CheckpointFormatError, "checkpoint")
    edit(obj)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(encode_framed(*frame, obj))
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--gens", "2", "--workers", "1", "--resume", str(bad),
                 "--out", str(tmp_path / "r")])
    assert str(exc.value) == f"error: cannot resume: corrupt checkpoint: {reason}"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("slot", ["-1", "4"])
def test_export_dot_slot_out_of_range_is_error_line(tmp_path, resumable, slot):
    with pytest.raises(SystemExit) as exc:
        run_cli(["export-dot", str(resumable), str(tmp_path / "o.dot"), "--slot", slot])
    assert str(exc.value) == f"error: no agent in slot {slot}; slots are 0 .. 3"
    assert not (tmp_path / "o.dot").exists()


def test_export_dot_slot_is_a_position(tmp_path, resumable):
    pop, _cfg, _records = load_checkpoint(resumable.read_bytes())
    assert run_cli(["export-dot", str(resumable), str(tmp_path / "o.dot"), "--slot", "2"]) == 0
    assert (tmp_path / "o.dot").read_text() == pop.agents[2].genome.to_dot()


def test_export_dot_slot_of_genome_file_is_error_line(tmp_path, resumable):
    genome = tmp_path / "elite.bin"
    genome.write_bytes(load_checkpoint(resumable.read_bytes())[0].agents[0].genome.serialize())
    with pytest.raises(SystemExit) as exc:
        run_cli(["export-dot", str(genome), str(tmp_path / "o.dot"), "--slot", "7"])
    assert str(exc.value) == f"error: --slot needs a checkpoint; {genome} is not one"
    assert not (tmp_path / "o.dot").exists()


@pytest.mark.parametrize("source", ["genome", "checkpoint"])
def test_export_dot_to_missing_directory_is_error_line(tmp_path, resumable, source):
    genome = tmp_path / "elite.bin"
    genome.write_bytes(load_checkpoint(resumable.read_bytes())[0].agents[0].genome.serialize())
    output = tmp_path / "nodir" / "x.dot"
    with pytest.raises(SystemExit) as exc:
        run_cli(["export-dot", str(genome if source == "genome" else resumable), str(output)])
    assert str(exc.value).startswith("error: ") and str(output) in str(exc.value)
    assert not output.parent.exists()


def test_resume_with_gens_below_checkpoint_is_error_line(tmp_path, resumable):
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--resume", str(resumable), "--gens", "0", "--workers", "1",
                 "--out", str(out)])
    assert str(exc.value) == "error: generations 0 is below the checkpoint's generation 1"
    assert not out.exists()


def _mistype_record(obj):
    obj["records"][0].update(best_fitness="oops", elite_params=2.5)


@pytest.mark.parametrize("edit,reason", [
    (_mistype_record, "record 0 field best_fitness must be float, got 'oops'"),
    (lambda obj: obj.update(generation=1.7), "generation must be int, got 1.7"),
], ids=["record", "generation"])
def test_resume_of_checkpoint_with_mistyped_record_is_error_line(
    tmp_path, resumable, edit, reason
):
    frame = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    obj = decode_framed(resumable.read_bytes(), *frame, CheckpointFormatError, "checkpoint")
    edit(obj)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(encode_framed(*frame, obj))
    with pytest.raises(SystemExit) as exc:
        run_cli(["evolve", "--gens", "2", "--workers", "1", "--resume", str(bad),
                 "--out", str(tmp_path / "r")])
    assert str(exc.value) == f"error: cannot resume: corrupt checkpoint: {reason}"
    assert not (tmp_path / "r").exists()


def _reading_commands(ckpt, tmp_path):
    """Each command that reads a checkpoint, by name."""
    return {
        "test": ["test", str(ckpt)],
        "export-dot": ["export-dot", str(ckpt), str(tmp_path / "o.dot")],
        "resume": ["evolve", "--task", "CartPole-v1", "--gens", "2", "--workers", "1",
                   "--resume", str(ckpt), "--out", str(tmp_path / "r")],
    }


@pytest.fixture
def invalid_checkpoint(tmp_path, resumable):
    """The resumable checkpoint with slot 0's output nodes moved to layer 0."""
    frame = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    obj = decode_framed(resumable.read_bytes(), *frame, CheckpointFormatError, "checkpoint")
    for node in obj["agents"][0]["genome"]["nodes"]:
        if node["kind"] == "output":
            node["layer"] = 0
    path = tmp_path / "invalid.bin"
    path.write_bytes(encode_framed(*frame, obj))
    return path


@pytest.mark.parametrize("command", ["test", "export-dot", "resume"])
def test_invalid_genome_in_checkpoint_is_error_line(tmp_path, invalid_checkpoint, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(_reading_commands(invalid_checkpoint, tmp_path)[command])
    assert str(exc.value).startswith("error:")
    assert "empty or out-of-range layer" in str(exc.value)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["test", "resume"])
def test_non_finite_output_biases_are_error_line(tmp_path, resumable, command):
    """``json`` writes and reads NaN; a checkpoint holding one is refused."""
    frame = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    obj = decode_framed(resumable.read_bytes(), *frame, CheckpointFormatError, "checkpoint")
    for node in obj["agents"][0]["genome"]["nodes"]:
        if node["kind"] == "output":
            node["bias"] = float("nan")
    path = tmp_path / "nan.bin"
    path.write_bytes(encode_framed(*frame, obj))
    with pytest.raises(SystemExit) as exc:
        run_cli(_reading_commands(path, tmp_path)[command])
    assert str(exc.value).startswith("error:")
    assert "corrupt checkpoint: malformed genome object: node bias must be finite, got nan" in (
        str(exc.value))
    assert not (tmp_path / "r").exists()


def test_export_dot_invalid_genome_file_is_error_line(tmp_path):
    from dynevo import RngStream, new_minimal

    net = new_minimal(2, 1)
    net.grow_node(RngStream(0))  # inputs -> hidden 3 -> output 2
    net._remove_connection(3, 2)  # hidden 3 is left dead
    gpath = tmp_path / "dead.bin"
    gpath.write_bytes(net.serialize())
    with pytest.raises(SystemExit) as exc:
        run_cli(["export-dot", str(gpath), str(tmp_path / "o.dot")])
    assert str(exc.value) == "error: invalid genome: dead hidden node 3"


def test_invalid_checkpoint_rejected_under_python_O(invalid_checkpoint):
    # Under -O, a bare assert would let the invalid genome through.
    env = dict(os.environ, PYTHONPATH=str(Path(dynevo.__file__).parents[1]))
    stripped = subprocess.run([sys.executable, "-O", "-c", "assert False"], env=env)
    assert stripped.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "dynevo.cli", "test", str(invalid_checkpoint)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "empty or out-of-range layer" in proc.stderr


def _cut_lengths(data):
    payload = len(CHECKPOINT_MAGIC) + 4
    return {
        "empty": 0,
        "magic": len(CHECKPOINT_MAGIC),
        "magic+version": payload,
        "half-payload": payload + (len(data) - payload) // 2,
        "all-but-last-byte": len(data) - 1,
    }


@pytest.mark.parametrize("command", ["test", "export-dot", "resume"])
@pytest.mark.parametrize("cut", list(_cut_lengths(b"")))
def test_truncated_checkpoint_is_error_line(tmp_path, resumable, cut, command):
    data = resumable.read_bytes()
    path = tmp_path / "cut.bin"
    path.write_bytes(data[: _cut_lengths(data)[cut]])
    with pytest.raises(SystemExit) as exc:
        run_cli(_reading_commands(path, tmp_path)[command])
    assert str(exc.value).startswith("error:")


def test_resume_accepts_equal_run_flags(tmp_path, resumable):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"perturb_sigma": 0.1, "init_sigma": 1}))
    out = tmp_path / "r"
    assert run_cli(evolve_args(out, pop=4, gens=2, seed=3, extra=[
        "--resume", str(resumable), "--config", str(cfg_path),
    ])) == 0
    assert (out / "ckpt_2.bin").exists()
    # The checkpoint's values are kept: 1.0, not the file's integer 1.
    manifest = json.loads((out / "manifest.json").read_text())
    assert repr(manifest["config"]["init_sigma"]) == "1.0"


def test_resume_keeps_length_and_cadence_without_task(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    run_cli(evolve_args(first, gens=6, extra=["--checkpoint-every", "2"]))
    assert run_cli(["evolve", "--resume", str(first / "ckpt_2.bin"),
                    "--workers", "1", "--out", str(second)]) == 0
    lines = (second / "metrics.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2", "3", "4", "5"]
    assert sorted(p.name for p in second.glob("ckpt_*.bin")) == ["ckpt_4.bin", "ckpt_6.bin"]
    config = json.loads((second / "manifest.json").read_text())["config"]
    assert (config["task"], config["generations"], config["checkpoint_every"]) == (
        "CartPole-v1", 6, 2)


@pytest.mark.parametrize("gens,every,expected", [
    (3, 1, [1, 2, 3]),   # last generation is a checkpoint multiple
    (5, 2, [2, 4, 5]),   # final checkpoint off the schedule
])
def test_each_checkpoint_saved_once(tmp_path, monkeypatch, gens, every, expected):
    from dynevo import evolution as ev

    saved = []
    real_save = ev.save_checkpoint

    def counting_save(pop, cfg, records):
        saved.append(pop.generation)
        return real_save(pop, cfg, records)

    monkeypatch.setattr(ev, "save_checkpoint", counting_save)
    run_cli(evolve_args(tmp_path, pop=4, gens=gens,
                        extra=["--checkpoint-every", str(every)]))
    assert saved == expected
    assert sorted(p.name for p in tmp_path.glob("ckpt_*.bin")) == sorted(
        f"ckpt_{g}.bin" for g in expected
    )


def test_interrupted_run_and_resume_lose_nothing(tmp_path, monkeypatch):
    from dynevo import evolution as ev

    full, out = tmp_path / "full", tmp_path / "run"
    run_cli(evolve_args(full, gens=6, extra=["--checkpoint-every", "2"]))

    real_evaluate = ev.evaluate
    interrupt = {"at": None}  # Ctrl-C when evaluation reaches this generation

    def evaluate(pop, *args):
        if pop.generation == interrupt["at"]:
            raise KeyboardInterrupt
        return real_evaluate(pop, *args)

    monkeypatch.setattr(ev, "evaluate", evaluate)
    interrupt["at"] = 1
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(tmp_path / "early", gens=6, extra=["--checkpoint-every", "2"]))
    assert str(exc.value) == "error: interrupted at generation 1; no checkpoint written"

    interrupt["at"] = 3
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(out, gens=6, extra=["--checkpoint-every", "2"]))
    assert str(exc.value) == (
        f"error: interrupted at generation 3; last checkpoint {out / 'ckpt_2.bin'}"
    )
    resume = ["evolve", "--workers", "1", "--out", str(out), "--resume"]
    interrupt["at"] = 5
    with pytest.raises(SystemExit) as exc:
        run_cli(resume + [str(out / "ckpt_2.bin")])
    assert str(exc.value) == (
        f"error: interrupted at generation 5; last checkpoint {out / 'ckpt_4.bin'}"
    )
    interrupt["at"] = None
    assert run_cli(resume + [str(out / "ckpt_4.bin")]) == 0

    lines = (out / "metrics.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2", "3", "4", "5"]
    assert sorted(p.name for p in out.iterdir()) == [
        "ckpt_2.bin", "ckpt_4.bin", "ckpt_6.bin", "elite.bin", "elite.dot",
        "manifest.json", "metrics.csv",
    ]
    pop_a, _, recs_a = load_checkpoint((full / "ckpt_6.bin").read_bytes())
    pop_b, _, recs_b = load_checkpoint((out / "ckpt_6.bin").read_bytes())
    assert [a.to_obj() for a in pop_a.agents] == [a.to_obj() for a in pop_b.agents]
    timeless = lambda r: dataclasses.replace(r, elapsed_seconds=0.0)
    assert [timeless(r) for r in recs_a] == [timeless(r) for r in recs_b]


class _InlinePool:
    """A pool that scores each shard in this process, until a worker cannot start."""

    fail_at = 5  # with two shards a generation: generation 2's first shard

    def __init__(self, max_workers, initializer, initargs):
        self.submits = 0

    def submit(self, fn, payload):
        self.submits += 1
        if self.submits == self.fail_at:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        future = Future()
        future.set_result(fn(payload))
        return future

    def shutdown(self):
        pass


@pytest.fixture
def two_shards(monkeypatch):
    """Two usable cores, and every batch worth two shards."""
    from dynevo import evolution as ev

    monkeypatch.setattr(ev, "usable_cores", lambda: 2)
    monkeypatch.setattr(ev, "MIN_SHARD_EDGES", 1)
    return ev


def test_worker_that_cannot_start_is_error_line_naming_last_checkpoint(tmp_path, monkeypatch,
                                                                        two_shards):
    monkeypatch.setattr(two_shards, "ProcessPoolExecutor", _InlinePool)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(out, gens=4, extra=["--checkpoint-every", "1", "--workers", "2"]))
    assert str(exc.value) == ("error: generation 2: cannot start pool workers: "
                              f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}; "
                              f"last checkpoint {out / 'ckpt_2.bin'}")


def test_worker_pool_that_cannot_start_is_error_line(tmp_path, monkeypatch, two_shards):
    def no_pool(*args, **kwargs):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(two_shards, "ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(tmp_path / "run", extra=["--workers", "2"]))
    assert str(exc.value) == ("error: generation 0: cannot start the worker pool: "
                              f"[Errno {errno.EMFILE}] {os.strerror(errno.EMFILE)}; "
                              "no checkpoint written")


def test_failed_scoring_shard_is_error_line_naming_last_checkpoint(tmp_path, monkeypatch):
    from dynevo import evolution as ev

    full, out = tmp_path / "full", tmp_path / "run"
    run_cli(evolve_args(full, gens=6, extra=["--checkpoint-every", "2"]))
    before = (full / "ckpt_2.bin").read_bytes()

    real_evaluate_one = ev._evaluate_one
    calls = {"n": 0, "fail_at": 0}  # the in-process shard raises on this call

    def evaluate_one(payload):
        calls["n"] += 1
        if calls["n"] == calls["fail_at"]:
            raise ValueError("shard lost")
        return real_evaluate_one(payload)

    monkeypatch.setattr(ev, "_evaluate_one", evaluate_one)
    calls.update(n=0, fail_at=1)
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(tmp_path / "early", gens=6, extra=["--checkpoint-every", "2"]))
    assert str(exc.value) == ("error: generation 0: scoring slots 0-7 failed: "
                              "ValueError: shard lost; no checkpoint written")

    calls.update(n=0, fail_at=4)
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(out, gens=6, extra=["--checkpoint-every", "2"]))
    assert str(exc.value) == ("error: generation 3: scoring slots 0-7 failed: "
                              f"ValueError: shard lost; last checkpoint {out / 'ckpt_2.bin'}")
    assert sorted(p.name for p in out.iterdir()) == ["ckpt_2.bin", "manifest.json",
                                                     "metrics.csv"]
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2"]
    pop_a, _, recs_a = load_checkpoint(before)
    pop_b, _, recs_b = load_checkpoint((out / "ckpt_2.bin").read_bytes())
    assert [a.to_obj() for a in pop_a.agents] == [a.to_obj() for a in pop_b.agents]
    timeless = lambda r: dataclasses.replace(r, elapsed_seconds=0.0)
    assert [timeless(r) for r in recs_a] == [timeless(r) for r in recs_b]

    calls["fail_at"] = 0
    assert run_cli(["evolve", "--workers", "1", "--out", str(out),
                    "--resume", str(out / "ckpt_2.bin")]) == 0
    pop_a, _, _ = load_checkpoint((full / "ckpt_6.bin").read_bytes())
    pop_b, _, _ = load_checkpoint((out / "ckpt_6.bin").read_bytes())
    assert [a.to_obj() for a in pop_a.agents] == [a.to_obj() for a in pop_b.agents]


# Runs the CLI with an os.replace that SIGKILLs its own process when it
# would put ckpt_3.bin in place: a kill inside the atomic checkpoint write.
_KILL_AT_CKPT_3 = """
import os, signal, sys
from dynevo.cli import main
replace = os.replace
def replace_or_die(src, dst):
    if os.path.basename(dst) == "ckpt_3.bin":
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)
os.replace = replace_or_die
sys.exit(main(sys.argv[1:]))
"""


def test_sigkill_during_checkpoint_write_and_resume_lose_nothing(tmp_path):
    full, out = tmp_path / "full", tmp_path / "run"
    run_cli(evolve_args(full, gens=5, extra=["--checkpoint-every", "1"]))
    env = dict(os.environ, PYTHONPATH=str(Path(dynevo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_AT_CKPT_3,
         *evolve_args(out, gens=5, extra=["--checkpoint-every", "1"])],
        env=env, stderr=subprocess.DEVNULL, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL
    assert (out / ".ckpt_3.bin.tmp").exists() and not (out / "ckpt_3.bin").exists()
    timeless = lambda r: dataclasses.replace(r, elapsed_seconds=0.0)

    def assert_same_run(name):
        pop_a, _, recs_a = load_checkpoint((full / name).read_bytes())
        pop_b, _, recs_b = load_checkpoint((out / name).read_bytes())
        assert [a.to_obj() for a in pop_a.agents] == [a.to_obj() for a in pop_b.agents]
        assert [timeless(r) for r in recs_a] == [timeless(r) for r in recs_b]

    assert_same_run("ckpt_2.bin")
    resume = ["evolve", "--workers", "1", "--out", str(out), "--resume"]
    assert run_cli(resume + [str(out / "ckpt_2.bin")]) == 0
    assert not list(out.glob("*.tmp"))  # pathlib's * matches a leading dot
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2", "3", "4"]
    assert_same_run("ckpt_5.bin")


def test_ctrl_c_with_pool_workers_is_one_error_line(tmp_path):
    # Static CartPole at population 8 shards onto the pool when 2 cores are
    # usable; Ctrl-C goes to the whole process group, workers included.
    env = dict(os.environ, PYTHONPATH=str(Path(dynevo.__file__).parents[1]))
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-m", "dynevo.cli", "evolve", "--task", "CartPole-v1",
         "--mode", "static", "--pop", "8", "--gens", "100000", "--workers", "2",
         "--checkpoint-every", "1", "--out", str(out)],
        env=env, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not (out / "ckpt_2.bin").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1].startswith("error: interrupted at generation ")
    assert not list(out.glob(".*.tmp"))


def test_interrupted_test_command_is_error_line(resumable, monkeypatch):
    from dynevo import cli

    def interrupted(pop, spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "test_elite", interrupted)
    with pytest.raises(SystemExit) as exc:
        run_cli(["test", str(resumable)])
    assert str(exc.value) == "error: interrupted"


def test_interrupted_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    out = tmp_path / "run"
    real_write_bytes = Path.write_bytes

    def interrupt_ckpt_2(self, data):
        if "ckpt_2" not in self.name:
            return real_write_bytes(self, data)
        real_write_bytes(self, data[: len(data) // 2])
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "write_bytes", interrupt_ckpt_2)
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(out, pop=4, gens=3, extra=["--checkpoint-every", "1"]))
    monkeypatch.undo()
    assert str(exc.value) == (
        f"error: interrupted at generation 2; last checkpoint {out / 'ckpt_1.bin'}"
    )
    assert sorted(p.name for p in out.iterdir()) == [
        "ckpt_1.bin", "manifest.json", "metrics.csv",
    ]
    load_checkpoint((out / "ckpt_1.bin").read_bytes())


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    from dynevo import cli

    out = tmp_path / "run"
    run_cli(evolve_args(out, pop=4, gens=1))
    ckpt = out / "ckpt_1.bin"
    before = ckpt.read_bytes()
    pop, cfg, records = load_checkpoint(before)
    pop.agents[0].fitness = 123.0  # a different payload for the new write
    real_write_bytes = Path.write_bytes

    def write_half_then_fail(self, data):
        real_write_bytes(self, data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(SystemExit, match="checkpoint write failed"):
        cli._save_ckpt(out, pop, cfg, records)
    monkeypatch.undo()
    assert ckpt.read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == [
        "ckpt_1.bin", "elite.bin", "elite.dot", "manifest.json", "metrics.csv",
    ]


def test_out_under_regular_file_is_error_line(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(blocker / "run", pop=4, gens=1))
    assert str(exc.value).startswith(f"error: cannot write run directory {blocker / 'run'}")
    assert blocker.read_text() == "not a directory\n"


def test_failed_checkpoint_write_is_error_line(tmp_path, monkeypatch):
    from dynevo import cli

    def no_space(path, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_atomic", no_space)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run_cli(evolve_args(out, pop=4, gens=2, extra=["--checkpoint-every", "1"]))
    assert str(exc.value) == (
        f"error: checkpoint write failed at {out / 'ckpt_1.bin'}: "
        "[Errno 28] No space left on device"
    )
    assert not list(out.glob("ckpt_*")) and not (out / "elite.bin").exists()
