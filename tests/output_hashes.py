"""Print the SHA-256 of each byte-reproducible file a fixed set of runs writes.

Usage:
    PYTHONPATH=src python tests/output_hashes.py OUT

Runs fourteen small harness configs, each over seeds {0, 1}, into
``OUT/<config name>/`` and prints one ``<sha256>  <path>`` line per
output file, paths relative to OUT and sorted.  ``*.timings.json``
holds wall-clock times and is skipped.  Each seed log ``<run>.zolog``
adds two lines, ``<run>.zolog:replay`` and ``<run>.zolog:revert``: the
bytes of ``replay(<run>.init.pset, log)`` and of
``revert(<run>.final.pset, log)``, so the checkpoint path is hashed too.
A refactor that must not change any output runs the script on both
trees (``PYTHONPATH=<tree>/src``) and diffs the two listings.
"""

import hashlib
import os
import sys

from zobench.harness import parse_config, run
from zobench.params import ParamSet
from zobench.seedlog import read_log, replay, revert

SEEDS = [0, 1]
DATA = {"n_train": 64, "n_test": 32, "batch_size": 16}
ZO_MLP = {"type": "zo", "lr": 0.05, "q": 2, "steps": 15, "epsilon": 1e-3,
          "combine": "mean"}
MLP = {"task": "mlp", "dim": 8, "hidden": 6, "classes": 3}
SEQ = {"task": "seq", "frames": 6, "feat_dim": 4, "classes": 3, "hidden": 6}
ZO_TTA = {"type": "zo", "lr": 0.001, "q": 2, "epsilon": 1e-3}
LOWRANK = {"sampler": "lowrank", "rank": 2}


def train(name, optimizer, model=MLP, **extra):
    return {"version": 1, "name": name, "kind": "train", "model": model,
            "data": DATA, "optimizer": optimizer, "seeds": SEEDS, **extra}


def tta(name, optimizer=ZO_TTA, model=SEQ, mask=("feat.*", "norm.*"),
        noise_sigma=0.005, **tta_extra):
    return {"version": 1, "name": name, "kind": "tta", "model": model,
            "data": {**DATA, "noise_sigma": noise_sigma},
            "optimizer": optimizer,
            "tta": {"steps": 2, "mask": list(mask), "samples": 4,
                    "pretrain": {"steps": 40, "lr": 0.05}, **tta_extra},
            "seeds": SEEDS}


CONFIGS = [
    # the criterion-11 pair
    train("det", ZO_MLP),
    tta("dettta"),
    train("lowrank", {**ZO_MLP, **LOWRANK, "q": 1},
          sweep={"q": [1, 3], "lr": [0.02, 0.05]}),
    train("shared", {**ZO_MLP, "batch_mode": "shared"}),
    train("sgdbudget", {"type": "sgd", "lr": 0.1, "forward_budget": 40}),
    # the pooled seq CE forward under ZO perturbations
    train("seqtrain", {**ZO_MLP, "steps": 5}, model=SEQ),
    # full-kind q=1: a step's last restore and its update share one z
    train("qone", {**ZO_MLP, "q": 1}),
    tta("revert", reset_mode="revert"),
    tta("qonerevert", {**ZO_TTA, "q": 1}, reset_mode="revert"),
    tta("lowrankrevert", {**ZO_TTA, **LOWRANK}, reset_mode="revert"),
    tta("adam", {"type": "adam", "lr": 0.01}),
    tta("sgd", {"type": "sgd", "lr": 0.05}),
    tta("mlp", {**ZO_TTA, "lr": 0.5},
        model={"task": "mlp", "dim": 6, "hidden": 5, "classes": 3},
        mask=["layer1.*"], noise_sigma=3.0),
    tta("logistic", {**ZO_TTA, "lr": 0.5},
        model={"task": "logistic", "dim": 6, "classes": 3},
        mask=["weight"], noise_sigma=3.0),
]


def output_hashes(out) -> list:
    """Run every config under ``out``; return the sorted hash lines."""
    for raw in CONFIGS:
        run(parse_config(raw), output_dir=os.path.join(out, raw["name"]))
    hashed = {}
    for root, _, files in os.walk(out):
        for fname in files:
            if fname.endswith(".timings.json"):
                continue
            path = os.path.join(root, fname)
            name = os.path.relpath(path, out)
            with open(path, "rb") as fh:
                hashed[name] = fh.read()
            if fname.endswith(".zolog"):
                stem, log = path[:-len(".zolog")], read_log(path)
                hashed[name + ":replay"] = replay(
                    ParamSet.load(stem + ".init.pset"), log).to_bytes()
                hashed[name + ":revert"] = revert(
                    ParamSet.load(stem + ".final.pset"), log).to_bytes()
    return [f"{hashlib.sha256(blob).hexdigest()}  {name}"
            for name, blob in sorted(hashed.items())]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: output_hashes.py OUT")
    print("\n".join(output_hashes(sys.argv[1])))
