"""Named mutants of ``src/drrho``, each run against tier-1 without the golden test.

    PYTHONPATH=src python tests/mutants.py [NAME ...]

A mutant is an exact source substring of one module and its replacement;
the substring must occur exactly once. For each mutant (all, or those
named) the script copies ``src/`` to a temporary directory, applies the
mutant there and runs tier-1 against the copy with
``tests/test_golden.py::test_outputs_match_the_golden_digests`` deselected,
stopping at the first failure. It prints ``KILLED <first failing test>`` or
``SURVIVED``, and exits 1 if any mutant survived. The golden test catches
any change in output bits; what this measures is what the semantic tests
catch once a change regenerates ``tests/golden.json``. The working tree is
never edited. pytest does not collect this file (its name does not start
with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_TEST = "tests/test_golden.py::test_outputs_match_the_golden_digests"

# name: (module under src/drrho, substring, replacement)
MUTANTS = {
    "distill-blend-drops-lambda": (
        "trainer.py",
        "coef += np.multiply(dist, lam, out=dist)",
        "coef += dist",
    ),
    "distill-blend-drops-one-minus-lambda-on-ds": (
        "trainer.py",
        "        coef *= 1.0 - lam\n",
        "",
    ),
    "distill-blend-drops-one-minus-lambda-on-tau": (
        "trainer.py",
        'grads["tau"] = np.asarray([(1.0 - lam) * g_tau])',
        'grads["tau"] = np.asarray([g_tau])',
    ),
    "distill-slot-where-q-overwrites-it": (
        "trainer.py",
        "scratch[0], (scratch[2], scratch[1]), scratch[:2]",
        "scratch[0], (scratch[1], scratch[2]), scratch[:2]",
    ),
    "reference-subtracted-after-q-is-written": (
        "trainer.py",
        "    s = np.subtract(fwd.s, s_ref, out=fwd.s) if run.shift else fwd.s\n"
        "    if run.u:\n"
        "        u = update_u(state, batch, s, out=q_out)\n",
        "    s = fwd.s\n"
        "    if run.u:\n"
        "        u = update_u(state, batch, s, out=q_out)\n"
        "        s = np.subtract(fwd.s, s_ref, out=fwd.s) if run.shift else fwd.s\n",
    ),
    "reference-shift-on-fastclip-too": (
        "trainer.py",
        'shift = config.method == "drrho-clip"',
        'shift = config.method in ("drrho-clip", "fastclip") and cache is not None',
    ),
    "u-cold-start-dropped": (
        "trainer.py",
        "g_i = np.where((old == 0.0) & (g > 0.0), 1.0, g)",
        "g_i = g",
    ),
    "epsilon-ignored": (
        "trainer.py",
        "return np.add(state.config.epsilon, u)",
        "return np.add(0.0, u)",
    ),
    "no-weight-decay": (
        "trainer.py",
        "w *= 1.0 - lr * WEIGHT_DECAY",
        "w *= 1.0",
    ),
    "adam-bias-correction-off-by-one": (
        "trainer.py",
        "lr, t = state.lr_at(state.step), state.step + 1",
        "lr, t = state.lr_at(state.step), state.step + 2",
    ),
    "eval-cadence-ignored": (
        "trainer.py",
        "if state.step % config.resolved_eval_every() == 0 or state.step == config.effective_steps:",
        "if state.step == config.effective_steps:",
    ),
    "one-epoch-order-reused": (
        "trainer.py",
        "    if t % per_epoch == 0:\n",
        "    if t == 0:\n",
    ),
    "jest-seed-fixed-across-steps": (
        "trainer.py",
        "seed=config.seed + t,",
        "seed=config.seed,",
    ),
    "text-tower-not-normalized": (
        "encoder.py",
        "h /= r[..., None]",
        "h[0] /= r[0][:, None]",
    ),
    "recall-image-to-text-only": (
        "contrastive.py",
        "return float(0.5 * (image_hits.mean() + text_hits.mean()))",
        "return float(image_hits.mean())",
    ),
    "infonce-identity-halved": (
        "baselines.py",
        "p_row.flat[:: b + 1] -= 2.0 * scale",
        "p_row.flat[:: b + 1] -= scale",
    ),
    "log-mean-exp-over-n-minus-one": (
        "risk.py",
        "mean = np.exp(t, out=t).sum(axis=axis) / v.shape[axis]",
        "mean = np.exp(t, out=t).sum(axis=axis) / (v.shape[axis] - 1)",
    ),
    "scaling-fit-without-intercept": (
        "experiments.py",
        "design = np.stack([np.ones_like(x), x], axis=1)",
        "design = np.stack([np.zeros_like(x), x], axis=1)",
    ),
    "test-split-rounds-down": (
        "data.py",
        "n_test = int(np.ceil(test_fraction * n))",
        "n_test = int(np.floor(test_fraction * n))",
    ),
    "checksum-unchecked": (
        "container.py",
        'if hashlib.sha256(blob).hexdigest() != manifest.get("checksum_sha256"):',
        "if False:",
    ),
}


def check(name: str) -> None:
    """Exit naming the mutant unless its substring occurs exactly once."""
    module, old, _ = MUTANTS[name]
    count = (ROOT / "src" / "drrho" / module).read_text().count(old)
    if count != 1:
        raise SystemExit(f"{name}: its substring occurs {count} times in {module}, expected once")


def first_failure(output: str) -> str | None:
    """The first ``FAILED`` or ``ERROR`` test of pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 2)[1]
    return None


def run(name: str) -> bool:
    """Apply one mutant to a copy of src/ and run tier-1 on it; True if killed."""
    module, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "drrho" / module
        path.write_text(path.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "-o", f"pythonpath={src}", "--deselect", GOLDEN_TEST],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
    if proc.returncode == 0:
        print(f"SURVIVED  {name}  ({elapsed:.0f} s)", flush=True)
        return False
    failed = first_failure(proc.stdout) or f"(pytest exit {proc.returncode})"
    print(f"KILLED    {name}  {failed}  ({elapsed:.0f} s)", flush=True)
    return True


def main(names: list[str]) -> None:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants: {unknown}; known: {list(MUTANTS)}")
    for name in names or MUTANTS:  # every substring is checked before any run
        check(name)
    survived = [name for name in names or MUTANTS if not run(name)]
    if survived:
        print(f"{len(survived)} survived: {', '.join(survived)}")
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
