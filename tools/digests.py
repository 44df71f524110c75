"""sha256 digests of the outputs a refactor must keep byte for byte.

    PYTHONPATH=src python3 tools/digests.py > digests.txt

Prints one sorted ``name sha256`` line per output:
  - every ``generate`` array (y, x, edges, widths, raw) of ex1-9 under their
    own model and of ex1-3 under nlr, at (n 120, p 30, seed 0),
    (80, 12, (5, 3)) and (200, 50, 11);
  - every file ``simulate --config`` writes for the same configs at n 90,
    p 15, its config echo included;
  - report.json, long.csv and table.txt of ``experiment --example 1..9``
    (n 120, p 25, 2 reps);
  - screen.json of ``screen`` with --method plr and pc, --interactions top,
    --cutoff pvalue:0.01, --cutoff hard:5 and --perms 5 on an ex3 dataset;
  - on the same ex3 dataset expanded by its true pairs, the
    ``predict_scores`` arrays of type1, type2 and type3 fitted on every node
    and on a 70% train mask, the latter on every node and on the held-out
    nodes alone, and the JSON of ``classify --split 0.7 --auc`` for each
    kind.
Run it on two checkouts and ``diff`` the outputs. Each array digest covers
its dtype and shape as well as its bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from netscreen.classify import KINDS, ClassifierSpec, fit, predict_scores
from netscreen.cli import main as cli
from netscreen.dataset import STREAMS, stream
from netscreen.io import write_json
from netscreen.screening import interaction_expand
from netscreen.simulate import example_config, generate

MODELS = [(ex, "nlr" if ex == 9 else "nnb") for ex in range(1, 10)] + [
    (ex, "nlr") for ex in (1, 2, 3)]
SIZES = [(120, 30, 0), (80, 12, (5, 3)), (200, 50, 11)]
SCREENS = {"plr": ["--method", "plr"], "pc": ["--method", "pc"],
           "top": ["--interactions", "top"],
           "pvalue": ["--cutoff", "pvalue:0.01"],
           "hard5": ["--cutoff", "hard:5"], "perms5": ["--perms", "5"]}
EX3 = example_config(3, n=150, p=12, seed=1)  # the screens' and fits' data
SPLIT = 0.7


def _array_bytes(a) -> bytes:
    a = np.asarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli(argv)
    if code != 0:
        raise RuntimeError(f"netscreen {' '.join(argv)} exited {code}")


def _files(directory: Path, names=None) -> dict:
    paths = sorted(directory.iterdir()) if names is None else [
        directory / name for name in names]
    return {path.name: path.read_bytes() for path in paths}


def generated(ex: int, model: str, n: int, p: int, seed) -> dict:
    ds, extras = generate(example_config(ex, n=n, p=p, model=model,
                                         seed=0), seed=seed)
    raw = b"".join(str(j).encode() + _array_bytes(extras["raw"][j])
                   for j in sorted(extras["raw"]))
    return {"y": _array_bytes(ds.y), "x": _array_bytes(ds.x),
            "edges": _array_bytes(ds.edges),
            "widths": _array_bytes(ds.k_levels), "raw": raw}


def simulated(ex: int, model: str, tmp: Path) -> dict:
    config = tmp / "config.json"
    write_json(config, example_config(ex, n=90, p=15, model=model,
                                      seed=2).to_dict())
    _run(["simulate", "--config", str(config), "--out", str(tmp / "out")])
    return _files(tmp / "out")


def experimented(ex: int, tmp: Path) -> dict:
    _run(["experiment", "--example", str(ex), "--n", "120", "--p", "25",
          "--reps", "2", "--out", str(tmp)])
    return _files(tmp, ("report.json", "long.csv", "table.txt"))


def _ex3_files(tmp: Path) -> list[str]:
    """Write EX3's dataset under tmp; return the options that read it."""
    data = tmp / "data"
    _run(["simulate", "--example", "3", "--n", str(EX3.n), "--p", str(EX3.p),
          "--seed", str(EX3.seed), "--out", str(data)])
    return ["--nodes", str(data / "nodes.csv"),
            "--edges", str(data / "edges.csv"),
            "--metadata", str(data / "metadata.json")]


def screened(options, tmp: Path) -> dict:
    _run(["screen", *_ex3_files(tmp), *options,
          "--out", str(tmp / "screen.json")])
    return _files(tmp, ("screen.json",))


def predicted() -> dict:
    """predict_scores of every kind on EX3 expanded by its true pairs, fitted
    on every node and on a SPLIT train mask drawn as ``classify --split``
    draws it; the split fit also scores its held-out nodes alone."""
    ds = interaction_expand(generate(EX3)[0], EX3.true_features().pairs)
    split = stream(EX3.seed, STREAMS["split"]).random(ds.n) < SPLIT
    masks = {"all": None, f"train{SPLIT}": split}
    out = {}
    for kind in KINDS:
        spec = ClassifierSpec(kind, s_y=EX3.s_y, s_a=EX3.s_a)
        for label, mask in masks.items():
            clf = fit(spec, ds, mask)
            out[f"{kind}-{label}"] = _array_bytes(predict_scores(clf, ds))
            if mask is not None:
                held = np.flatnonzero(~mask) + 1
                out[f"{kind}-{label}-heldout"] = _array_bytes(
                    predict_scores(clf, ds, held))
    return out


def classified(kind: str, tmp: Path) -> dict:
    _run(["classify", *_ex3_files(tmp), "--kind", kind,
          "--s-y", ",".join(EX3.s_y.keys()), "--s-a", ",".join(EX3.s_a.keys()),
          "--split", str(SPLIT), "--auc", "--seed", str(EX3.seed),
          "--out", str(tmp / "classify.json")])
    return _files(tmp, ("classify.json",))


def grid() -> list:
    """(name, function of a scratch directory giving {part: bytes})."""
    entries = []
    for ex, model in MODELS:
        for n, p, seed in SIZES:
            label = str(seed).replace(" ", "")  # no space in a name
            entries.append((f"generate/ex{ex}-{model}/n{n}-p{p}-seed{label}",
                            lambda tmp, a=(ex, model, n, p, seed):
                            generated(*a)))
        entries.append((f"simulate/ex{ex}-{model}",
                        lambda tmp, a=(ex, model): simulated(*a, tmp)))
    for ex in range(1, 10):
        entries.append((f"experiment/ex{ex}",
                        lambda tmp, ex=ex: experimented(ex, tmp)))
    for name, options in SCREENS.items():
        entries.append((f"screen/{name}",
                        lambda tmp, o=options: screened(o, tmp)))
    entries.append(("classify/predict_scores", lambda tmp: predicted()))
    for kind in KINDS:
        entries.append((f"classify/{kind}-split{SPLIT}-auc",
                        lambda tmp, kind=kind: classified(kind, tmp)))
    return entries


def digest_lines(entries) -> list[str]:
    """Sorted "name sha256" lines of every part of every entry."""
    lines = []
    for name, make in entries:
        with tempfile.TemporaryDirectory() as tmp:
            for part, blob in make(Path(tmp)).items():
                lines.append(f"{name}/{part} "
                             f"{hashlib.sha256(blob).hexdigest()}")
    return sorted(lines)


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in digest_lines(grid())))
