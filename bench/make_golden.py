"""Regenerate the pinned input hashes and golden reports.

Usage, from the repository root:

    python3 bench/make_golden.py [workload ...]

Goldens come from the serial form of each command. A command that the
benchmark runs with more workers must give the same exit code and bytes,
or nothing is written. Only rerun this when a change to the report bytes
or to ``fpselect.synth`` is intended, and say so in the change.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr
from pathlib import Path

from workloads import (
    CONFIG_DIR,
    GOLDEN_DIR,
    POOL_SIZE,
    SRC,
    WORK_DIR,
    WORKLOADS,
    Workload,
    generate_inputs,
)


def golden_for(workload: Workload, synth_seed: int, work: Path,
               config_dir: Path = CONFIG_DIR) -> tuple[dict, dict[str, str]]:
    """Manifest entry and normalised reports of one seed of a workload."""
    from fpselect import cli

    inputs = generate_inputs(workload, synth_seed, work / "inputs", config_dir)
    exit_codes, reports = {}, {}
    for command in workload.commands:
        outputs = []
        for golden in (True, False) if command.golden_argv else (True,):
            out = work / f"{command.name}.json"
            out.unlink(missing_ok=True)
            with redirect_stderr(io.StringIO()):
                status = cli.main(inputs.argv(command, out, golden=golden))
            outputs.append((status, inputs.normalise(out.read_text(encoding="utf-8"))))
        if len(set(outputs)) != 1:
            raise SystemExit(f"{workload.name}/{command.name} seed {synth_seed}:"
                             " the benchmark's form differs from the serial golden")
        exit_codes[command.name], reports[command.name] = outputs[0]
    return {**inputs.hashes(), "exit_codes": exit_codes}, reports


def write_golden(workload: Workload, golden_dir: Path, work: Path,
                 config_dir: Path = CONFIG_DIR, seeds=range(POOL_SIZE)) -> None:
    manifest = {}
    for seed in seeds:
        entry, reports = golden_for(workload, seed, work, config_dir)
        manifest[str(seed)] = entry
        directory = golden_dir / workload.name / f"seed{seed}"
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in reports.items():
            (directory / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{workload.name} seed {seed}: {entry['exit_codes']}", file=sys.stderr)
    (golden_dir / workload.name / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    for name in names or sorted(WORKLOADS):
        write_golden(WORKLOADS[name], GOLDEN_DIR, WORK_DIR / "golden" / name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
