"""Behaviour fingerprint: pinned digests of small fixed runs.

Each run is one task and mode at population 16 for 3 generations. The
pins are the sha256 of the deterministic ``RunRecord`` columns and of the
final ``save_checkpoint`` bytes, both with ``elapsed_seconds`` zeroed.
A refactor or speed-up must leave every digest unchanged; a change that
alters behaviour on purpose re-pins them and says why.
"""

import dataclasses
import hashlib

import pytest

from dynevo.evolution import EvolutionConfig, run_evolution, save_checkpoint

RUNS = [
    ("CartPole-v1", "dynamic"),
    ("Acrobot-v1", "dynamic"),
    ("MountainCar-v0", "dynamic"),
    ("MountainCarContinuous-v0", "dynamic"),
    ("Pendulum-v1", "dynamic"),
    ("CartPole-v1", "static"),
    ("Pendulum-v1", "static"),
]
SEEDS = (0, 1)

# (records sha256, checkpoint sha256) per "task/mode/seed".
PINS = {
    "CartPole-v1/dynamic/0": (
        "f553c685c83a88c17e99c11deb08bc727024d22654c679e68f6128459689a41e",
        "d529d3f408578ef4851f38fda3e12ccbcd79da633b99abdf0fff58560a66d695",
    ),
    "CartPole-v1/dynamic/1": (
        "aa019137c2ce18457f414bbc6bf04b58a82c860a4ffacf6f97b706a927ec7907",
        "0e973f8b36250417feed89f9d9ac950df583175974f2184a04cb742c80587348",
    ),
    "Acrobot-v1/dynamic/0": (
        "dd3d035a7b72d17b1f0417bc08997e274419c7cd8fb0a81f90e3e2b4bc3c4df0",
        "8d2943fc13fc4f9062de1b4d73245c3a04fca1d4767695dc6b5ac0050146eb52",
    ),
    "Acrobot-v1/dynamic/1": (
        "02d62ce8e419c6ae64072bd73f4a5b3784f68a015ef2d1f00d94059ddc13dfd8",
        "a7b4b3b0ca5ac38d22426af6b7722aaf6ca1872b43cf358b1ba2bfcc9aa39c39",
    ),
    "MountainCar-v0/dynamic/0": (
        "659c7f80e653a1356f42a4e7ff143722725839f8a9186d6e7e0e431f4f0f01af",
        "2fd20ebd1af8e594a1a3d537f3d491c5877d4e271a160daca852a33aff8b5240",
    ),
    "MountainCar-v0/dynamic/1": (
        "659c7f80e653a1356f42a4e7ff143722725839f8a9186d6e7e0e431f4f0f01af",
        "b72ea4b9a2be8c41718598eaca2440c4c88b1e95557ccb25e334472ddc166820",
    ),
    "MountainCarContinuous-v0/dynamic/0": (
        "b32f10a9b099797dce3d2bac1e5de4467bc71998fb4dc67519109a951a3a5af6",
        "b6461f05c09b83c6c272911f15213577d3a18f8555ab3952daf78df2706e44c4",
    ),
    "MountainCarContinuous-v0/dynamic/1": (
        "a2ffa03c4fd19f9b05c10b20f2003d044c0fff8c243f50f89f123b56d1e3f412",
        "25a84dbf6d68365ab2c0c359efc0810ac933e21f7521a4cc9a7385fdeabfff36",
    ),
    "Pendulum-v1/dynamic/0": (
        "07769b78efd5c8fcc9894fe47f6502ed31d73000f9934e3381da90c3b2ac4d02",
        "feab91a90abdf7e2705eb2d35c91167fedee2497bccb6b82055c1b7066bceed8",
    ),
    "Pendulum-v1/dynamic/1": (
        "d193ee7c3481ab8871d7ba7ed73fbe48ab01ca8b5010533bb0b2e3cb2313f637",
        "693c7c543f00e6e9a4838801ed1d57e8cbf50e598b2e17ca897d3a1407c8a015",
    ),
    "CartPole-v1/static/0": (
        "52dbb5283412f13a711644ea0631da4398b02b1a431312825a5aa31bcc7bb0a2",
        "ba95cf9dd04b62fe0883b376c74fba07d66ae43c52b979215786f205ba6dc540",
    ),
    "CartPole-v1/static/1": (
        "fe477080d9e1916e9be05fbf1d56c6bbdd1f13979e40cc6384aabb886a10550c",
        "2f540a08a6ef820ccd5d246177e748b22e44953badce0857759be59d98ef1e6d",
    ),
    "Pendulum-v1/static/0": (
        "1e919f43e5b89e111ecdac6d6aaf5cd0f4bbde7b1937b0aa80b752f94eadd675",
        "1cf5aca4189b8b2196f2f8aec2973032f507f9444ba5164cdc0eec34f0c4fdfa",
    ),
    "Pendulum-v1/static/1": (
        "d51efeb3faa3fdd12cdc8ca99edc5852b3349a705875d064573875b8ba016859",
        "95790a8c19668660bca0b4832165d4d368e276e50b9a848c3c3c717d0ce530c1",
    ),
}


def fingerprint(task, mode, seed):
    cfg = EvolutionConfig(
        task=task, mode=mode, population_size=16, generations=3, master_seed=seed
    )
    pop, records = run_evolution(cfg)
    records = [dataclasses.replace(r, elapsed_seconds=0.0) for r in records]
    rows = "\n".join(r.csv_row() for r in records).encode()
    return (
        hashlib.sha256(rows).hexdigest(),
        hashlib.sha256(save_checkpoint(pop, cfg, records)).hexdigest(),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("task,mode", RUNS)
def test_fingerprint(task, mode, seed):
    assert fingerprint(task, mode, seed) == PINS[f"{task}/{mode}/{seed}"]
