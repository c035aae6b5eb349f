"""Workload definitions, seeded inputs and golden-report checks.

A workload is a list of ``fpselect`` commands run against one generated
dataset and catalog. Inputs come from the ``synth`` configs in
``configs/``. ``--seed n`` picks synth seed ``n % POOL_SIZE``. Every synth
seed in the pool has pinned SHA-256 hashes of its inputs and a golden
report and exit code per command under ``golden/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
GOLDEN_DIR = BENCH_DIR / "golden"
WORK_DIR = ROOT / ".bench_work"

# Synth seeds with pinned inputs and goldens; --seed n uses n % POOL_SIZE.
POOL_SIZE = 5


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``argv`` omits the input, seed and output flags, which the runner adds.
    ``knowledge`` names the attacker the command builds while it sets up
    (``None`` for commands that build none). ``golden_argv`` is the serial
    form the golden report was generated from, when ``argv`` differs.
    """

    name: str
    argv: tuple[str, ...]
    knowledge: str | None
    measures_sets: bool
    golden_argv: tuple[str, ...] | None = None

    @property
    def beta(self) -> int:
        return int(self.argv[self.argv.index("--beta") + 1])


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    commands: tuple[Command, ...]
    text_match_threshold: float | None = None


_EXACT = ("--alpha", "0.01", "--beta", "4")
_UNIFORM = ("--knowledge", "uniform", "--alpha", "0.05", "--beta", "8")

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's main regime: exact matching, population attacker, the
        # only workload on the prefetch thread pool and the entropy ranking.
        Workload(
            name="exact-population",
            config="exact-population.json",
            commands=(
                Command(
                    "select",
                    ("select", *_EXACT, "--k", "3", "--threads", "2"),
                    "population",
                    True,
                    golden_argv=("select", *_EXACT, "--k", "3", "--threads", "1"),
                ),
                Command(
                    "baseline-entropy",
                    ("baseline", "--method", "entropy", *_EXACT),
                    "population",
                    True,
                ),
                Command(
                    "baseline-cond-entropy",
                    ("baseline", "--method", "cond-entropy", *_EXACT),
                    "population",
                    True,
                ),
            ),
        ),
        # Three text attributes at threshold 2 send reach down the tolerant
        # fp_match path; the exact path and the pool are bypassed.
        Workload(
            name="tolerant-text",
            config="tolerant-text.json",
            text_match_threshold=2.0,
            commands=(
                Command(
                    "calibrate",
                    ("calibrate", "--windows", "6", "--negative-cap", "100"),
                    None,
                    False,
                ),
                Command(
                    "select",
                    ("select", *_EXACT, "--k", "1", "--threads", "1"),
                    "population",
                    True,
                ),
            ),
        ),
        # A uniform attacker whose PMF is several times the population and
        # ties everywhere, so the lexicographic tie-break picks the
        # dictionary; the oracle measures all 256 subsets.
        Workload(
            name="uniform-oracle",
            config="uniform-oracle.json",
            commands=(
                Command(
                    "oracle", ("oracle", "--max-n", "8", *_UNIFORM), "uniform", True
                ),
                Command(
                    "select",
                    ("select", *_UNIFORM, "--k", "1", "--threads", "1"),
                    "uniform",
                    True,
                ),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    dataset: Path
    catalog: Path
    synth_seed: int

    def argv(self, command: Command, out: Path, *, golden: bool = False) -> list[str]:
        base = command.golden_argv if golden and command.golden_argv else command.argv
        return [*base, "--dataset", str(self.dataset), "--catalog", str(self.catalog),
                "--seed", str(self.synth_seed), "--out", str(out)]

    def normalise(self, report: str) -> str:
        """Replace the run's input paths, the only run-specific report bytes."""
        return report.replace(json.dumps(str(self.dataset)), '"<dataset>"').replace(
            json.dumps(str(self.catalog)), '"<catalog>"'
        )

    def hashes(self) -> dict[str, str]:
        return {
            "dataset_sha256": _sha256(self.dataset),
            "catalog_sha256": _sha256(self.catalog),
        }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate_inputs(
    workload: Workload, synth_seed: int, directory: Path, config_dir: Path = CONFIG_DIR
) -> Inputs:
    """Write the workload's dataset and catalog for one synth seed.

    The generator runs in a child process, so the parent's peak RSS
    reflects the workload alone.
    """
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        directory / "dataset.jsonl", directory / "catalog.json", synth_seed
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "fpselect.cli", "synth",
         "--config", str(config_dir / workload.config), "--seed", str(synth_seed),
         "--out", str(inputs.dataset), "--catalog-out", str(inputs.catalog)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"synth failed ({proc.returncode}): {proc.stderr.strip()}")
    if workload.text_match_threshold is not None:
        entries = json.loads(inputs.catalog.read_text(encoding="utf-8"))
        for entry in entries:
            if entry["kind"] == "text":
                entry["match_threshold"] = workload.text_match_threshold
        inputs.catalog.write_text(
            json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return inputs


class Golden:
    """Pinned input hashes, exit codes and reports of one workload seed."""

    def __init__(self, golden_dir: Path, workload: Workload, synth_seed: int) -> None:
        base = golden_dir / workload.name
        manifest = json.loads((base / "manifest.json").read_text(encoding="utf-8"))
        self.entry = manifest[str(synth_seed)]
        self._reports = {
            c.name: (base / f"seed{synth_seed}" / f"{c.name}.json").read_text(
                encoding="utf-8")
            for c in workload.commands
        }

    def inputs_match(self, inputs: Inputs) -> bool:
        got = inputs.hashes()
        return all(self.entry[key] == value for key, value in got.items())

    def matches(self, command: Command, exit_code: int | None, report: str | None) -> bool:
        return (
            exit_code == self.entry["exit_codes"][command.name]
            and report == self._reports[command.name]
        )


def load_golden(golden_dir: Path, workload: Workload, inputs: Inputs) -> Golden | None:
    """The golden of the inputs' seed, or None when it is missing or the
    generated inputs differ from their pinned hashes; with None every
    command counts as failed."""
    try:
        golden = Golden(golden_dir, workload, inputs.synth_seed)
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench: no usable golden for {workload.name} seed"
              f" {inputs.synth_seed}: {exc!r}", file=sys.stderr)
        return None
    if not golden.inputs_match(inputs):
        print(f"bench: generated inputs of {workload.name} seed {inputs.synth_seed}"
              " do not match their pinned SHA-256", file=sys.stderr)
        return None
    return golden
