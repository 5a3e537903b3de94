"""One SHA-256 per training run, trial, measurement and CLI output file.

``tests/test_golden.py`` compares them with ``tests/golden.json``, so a
change that moves the bits of any output fails tier-1 and names what moved.
A change that is meant to move them regenerates the file:

    PYTHONPATH=src python tests/output_digests.py --write

Without ``--write`` the script prints one ``<sha256>  <name>`` line per
output. It covers:

- 20 runs: every method x distill on/off x fixed/learned tau, on a 400-pair
  pool at b=24 for 25 steps, with an eval point every 5 steps on 32 pairs,
  against a 100-step b=32 reference (each run hashes its weights, Adam
  moments, u, tau and report);
- ``variance_reduction_trial`` and ``data_efficiency_trial`` at seed 0;
- ``scaling_suite`` on the same pool and reference;
- ``train_pairs_variance`` of one run's model, plain and shifted;
- every file the README's command sequence writes, run in this process
  through ``cli.run`` in a fresh directory.

The bits depend on numpy's version and on the SIMD paths its CPU dispatch
picks, so ``golden.json`` keeps one set of digests per ``platform_key()``
and ``--write`` replaces only this platform's. pytest does not collect this
file (its name does not start with ``test_``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from drrho import cli, data, experiments, trainer

GOLDEN = Path(__file__).with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/output_digests.py --write"

# The README's command sequence, as written there.
README_COMMANDS = [
    "gen-data --n 640 --d-x 24 --d-y 20 --d-latent 4 --noise-sigma 0.3 --test-fraction 0.2 --seed 0"
    " --output pool.dpd",
    "train --method fastclip --data pool.dpd --steps 800 --batch-size 64 --embed-dim 16 --lr 5e-3 --seed 1000"
    " --output ref-run",
    "ref-embed --data pool.dpd --model ref-run/model.ckpt --output pool.emb",
    "train --method drrho-clip --data pool.dpd --ref pool.emb --learnable-tau --steps 150 --batch-size 48"
    " --embed-dim 8 --lr 5e-3 --seed 0 --output run",
    "eval --model run/model.ckpt --data pool.dpd --output run-eval",
    "variance --model run/model.ckpt --data pool.dpd --ref pool.emb --output run-var",
    "sweep --data pool.dpd --ref pool.emb --methods drrho-clip,fastclip --fractions 1.0,0.75,0.5 --output run-sweep",
]


def digest(*parts) -> str:
    """SHA-256 over arrays (their little-endian float64 bytes) and anything
    else as its JSON text, whose floats are repr-exact."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def run_digests(dataset, cache) -> tuple[dict[str, str], dict]:
    """The 20-run matrix: one digest per run, and the models by run name."""
    out, models = {}, {}
    base = trainer.TrainConfig(steps=25, batch_size=24, eval_every=5, eval_subset=32)
    for method in trainer.METHODS:
        for distill in (False, True):
            for learned in (False, True):
                config = replace(base, method=method, distill=distill, tau_learnable=learned)
                state, report = trainer.train(config, dataset, cache)
                name = f"train/{method}/distill={distill}/tau_learnable={learned}"
                out[name] = digest(state.w, state.u, state.m, state.v, [state.m_tau, state.v_tau, state.model.tau],
                                   report.to_json_dict())
                models[name] = state.model
    return out, models


def readme_cli_digests() -> dict[str, str]:
    """Every file of the README's command sequence, by relative path."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in README_COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.run(shlex.split(line)) != 0:
                        raise SystemExit(f"command failed: drrho {line}")
            files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
            return {f"cli/{p.relative_to(tmp)}": hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        finally:
            os.chdir(cwd)


def platform_key() -> str:
    """numpy's version and the CPU features its dispatch may use: the
    digests of one key are the same on every machine that has it."""
    return f"numpy {np.__version__}; " + " ".join(sorted(k for k, on in __cpu_features__.items() if on))


def compute() -> dict[str, str]:
    """Every output's digest, by name."""
    dataset = data.generate_synthetic(400, 24, 20, 4, 0.3, 0.2, seed=0)
    reference, cache = experiments.train_reference(dataset, steps=100, batch_size=32)
    out = {"reference": digest(reference.w1, reference.w2, cache.e1, cache.e2, [reference.tau])}
    runs, models = run_digests(dataset, cache)
    out.update(runs)
    out["trial/variance_reduction/seed=0"] = digest(experiments.variance_reduction_trial([0]))
    out["trial/data_efficiency/seed=0"] = digest(experiments.data_efficiency_trial([0]))
    suite = experiments.scaling_suite(dataset, cache)
    out["scaling_suite"] = digest({m: {**r, "points": [asdict(p) for p in r["points"]]} for m, r in suite.items()})
    plain, shifted = experiments.train_pairs_variance(models["train/drrho-clip/distill=False/tau_learnable=False"],
                                                      dataset, 96, cache)
    out["train_pairs_variance"] = digest(plain.image_variances, plain.text_variances,
                                         shifted.image_variances, shifted.text_variances)
    out.update(readme_cli_digests())
    return out


def main(argv: list[str]) -> None:
    if argv not in ([], ["--write"]):
        raise SystemExit("usage: output_digests.py [--write]")
    out = compute()
    if argv:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[platform_key()] = out
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(out)} digests for {platform_key()} to {GOLDEN}")
        return
    for name, value in out.items():
        print(f"{value}  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
