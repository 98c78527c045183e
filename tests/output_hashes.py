"""Print the SHA-256 of each byte-reproducible file a fixed set of runs writes.

Usage:
    PYTHONPATH=src python tests/output_hashes.py OUT [--against LISTING]

Runs twenty-six small harness configs, each over seeds {0, 1}, into
``OUT/<config name>/`` and prints one ``<sha256>  <path>`` line per
output file, paths relative to OUT and sorted.  ``*.timings.json``
holds wall-clock times and is skipped.  Each seed log ``<run>.zolog``
adds two lines, ``<run>.zolog:replay`` and ``<run>.zolog:revert``: the
bytes of ``replay(<run>.init.pset, log)`` and of
``revert(<run>.final.pset, log)``, so the checkpoint path is hashed too.
A refactor that must not change any output runs the script on both
trees (``PYTHONPATH=<tree>/src``) and diffs the two listings.

With ``--against LISTING``, a listing this script printed before, it
prints only the lines that differ: each line of this run whose path is
missing from LISTING or hashed differently there, then ``removed
<path>`` for each path of LISTING this run did not write, then one
``# <config>: <changed> of <lines> lines changed`` per config.  That is
the record of a change that is meant to move some outputs and not
others.
"""

import argparse
import hashlib
import os
from collections import Counter

from zobench.harness import parse_config, run
from zobench.params import ParamSet
from zobench.seedlog import read_log, replay, revert

SEEDS = [0, 1]
DATA = {"n_train": 64, "n_test": 32, "batch_size": 16}
ZO_MLP = {"type": "zo", "lr": 0.05, "q": 2, "steps": 15, "epsilon": 1e-3,
          "combine": "mean"}
MLP = {"task": "mlp", "dim": 8, "hidden": 6, "classes": 3}
# layer1.weight's 76,800 elements exceed params.CHUNK: drawn in pieces
WIDE = {"task": "mlp", "dim": 300, "hidden": 256, "classes": 3}
SEQ = {"task": "seq", "frames": 6, "feat_dim": 4, "classes": 3, "hidden": 6}
SMALL_MLP = {"task": "mlp", "dim": 6, "hidden": 5, "classes": 3}
LOGISTIC = {"task": "logistic", "dim": 6, "classes": 3}
QUADRATIC = {"task": "quadratic", "dim": 8}
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
    train("adamtrain", {"type": "adam", "lr": 0.01, "steps": 20}),
    train("seqadam", {"type": "adam", "lr": 0.01, "steps": 20}, model=SEQ),
    # the pooled seq CE forward under ZO perturbations
    train("seqtrain", {**ZO_MLP, "steps": 5}, model=SEQ),
    # full-kind q=1: a step's one update carries its query's +eps restore
    train("qone", {**ZO_MLP, "q": 1}),
    train("wide", {**ZO_MLP, "steps": 3}, model=WIDE),
    train("wideqone", {**ZO_MLP, "q": 1, "steps": 3}, model=WIDE),
    # a low-rank z is drawn whole, even on a set that may use the worker
    train("widelowrank", {**ZO_MLP, **LOWRANK, "steps": 3}, model=WIDE),
    # q=4: the worker's update outlasts the next step's first product, so
    # the calling thread waits for it
    train("widequad", {**ZO_MLP, "q": 4, "steps": 3}, model=WIDE),
    tta("revert", reset_mode="revert"),
    tta("qonerevert", {**ZO_TTA, "q": 1}, reset_mode="revert"),
    tta("lowrankrevert", {**ZO_TTA, **LOWRANK}, reset_mode="revert"),
    tta("adam", {"type": "adam", "lr": 0.01}),
    # feat.bias left out: the adapted subset has a gap in the buffer
    tta("adamgap", {"type": "adam", "lr": 0.01}, mask=["feat.weight", "norm.*"]),
    tta("sgd", {"type": "sgd", "lr": 0.05}),
    tta("mlp", {**ZO_TTA, "lr": 0.5}, model=SMALL_MLP, mask=["layer1.*"],
        noise_sigma=3.0),
    tta("logistic", {**ZO_TTA, "lr": 0.5}, model=LOGISTIC, mask=["weight"],
        noise_sigma=3.0),
    # first-order backwards the configs above leave out
    train("logsgd", {"type": "sgd", "lr": 0.1, "steps": 20}, model=LOGISTIC),
    train("logadam", {"type": "adam", "lr": 0.01, "steps": 20}, model=LOGISTIC),
    train("quadadam", {"type": "adam", "lr": 0.05, "steps": 20},
          model=QUADRATIC),
    tta("logisticadam", {"type": "adam", "lr": 0.01}, model=LOGISTIC,
        mask=["weight"], noise_sigma=3.0),
    tta("mlpsgd", {"type": "sgd", "lr": 0.05}, model=SMALL_MLP,
        mask=["layer1.*"], noise_sigma=3.0),
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


def changed_lines(lines, old_lines) -> list:
    """What ``--against`` prints: ``lines`` against ``old_lines``."""
    def path(line):
        return line.split("  ", 1)[1]

    def config(line):
        return path(line).split(os.sep, 1)[0]

    old, new_paths = set(old_lines), {path(line) for line in lines}
    changed = [line for line in lines if line not in old]
    gone = [line for line in old_lines if path(line) not in new_paths]
    totals = Counter(config(line) for line in lines + gone)
    hits = Counter(config(line) for line in changed + gone)
    return (changed + [f"removed  {path(line)}" for line in gone]
            + [f"# {name}: {hits[name]} of {n} lines changed"
               for name, n in sorted(totals.items())])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", metavar="OUT")
    parser.add_argument("--against", metavar="LISTING")
    args = parser.parse_args()
    lines = output_hashes(args.out)
    if args.against is not None:
        with open(args.against) as fh:
            lines = changed_lines(lines, fh.read().splitlines())
    print("\n".join(lines))
