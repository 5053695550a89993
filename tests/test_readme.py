"""The examples of README.md run as written, and its CLI commands write
the pinned outputs.

``python tests/test_readme.py`` prints each reference line that the
current program moves, old -> new, and then rewrites
``tests/golden/readme_outputs.json`` (and the eigenstate golden file)
from it; a change that moves an output on purpose does so and lists the
printed lines.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GOLDEN = ROOT / "tests" / "golden"
REFERENCES = GOLDEN / "readme_outputs.json"
# outputs past this many bytes are pinned by a SHA-256 and every
# SAMPLE_STEP-th line, so that a mismatch names a line, not only a hash
WHOLE_BYTES = 4096
SAMPLE_STEP = 50


def test_readme_python_blocks_run():
    # in order and in one namespace, as a reader pastes them; each block is
    # padded so that a traceback names its line in README.md
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    namespace = {}
    for block in blocks:
        pad = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(pad + block[1], str(README), "exec"), namespace)


def readme_commands():
    """The argv of every ``rabi2q`` command in the README's bash blocks,
    continuation lines joined."""
    text = README.read_text()
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["rabi2q"]:
                commands.append(words[1:])
    return commands


_RUN = """
import json, sys
from rabi2q.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def run_readme_commands(out_dir: Path) -> dict:
    """Run the README commands in one fresh process at one OpenBLAS thread,
    writing into out_dir; each file written, by name, as its ``# rabi2q``
    header line (None for a file that is not a CSV) and its other lines."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(readme_commands())],
        cwd=out_dir, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        lines = path.read_text().splitlines()
        if lines[:1] and lines[0].startswith("# rabi2q "):
            outputs[path.name] = lines[0], lines[1:]
        else:
            outputs[path.name] = None, lines
    return outputs


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reference_of(header, lines) -> dict:
    """The pinned form of one output: a CSV's header line, apart from its
    other lines, and those lines, or, past WHOLE_BYTES, their count,
    SHA-256 and every SAMPLE_STEP-th line by number."""
    pinned = {} if header is None else {"header": header}
    if sum(len(line) + 1 for line in lines) <= WHOLE_BYTES:
        return {**pinned, "lines": lines}
    return {**pinned, "count": len(lines), "sha256": _digest(lines),
            "sample": {str(i): lines[i]
                       for i in range(0, len(lines), SAMPLE_STEP)}}


def mismatches(name, header, lines, reference) -> list:
    """How an output differs from its reference, each line as reference ->
    output; empty when it does not."""
    if header != reference.get("header"):
        return [f"{name} header: {reference.get('header')!r} -> {header!r}"]
    if "file" in reference:
        reference = {"lines": (GOLDEN / reference["file"]).read_text()
                     .splitlines()}
    if "lines" in reference:
        want = reference["lines"]
        diff = [f"{name} line {i}: {ref!r} -> {got!r}"
                for i, (got, ref) in enumerate(zip(lines, want))
                if got != ref]
        if len(lines) != len(want):
            diff.append(f"{name}: {len(want)} lines -> {len(lines)}")
        return diff
    diff = [f"{name} line {i}: {ref!r} -> "
            f"{lines[int(i)] if int(i) < len(lines) else None!r}"
            for i, ref in reference["sample"].items()
            if int(i) >= len(lines) or lines[int(i)] != ref]
    if len(lines) != reference["count"]:
        diff.append(f"{name}: {reference['count']} lines -> {len(lines)}")
    elif _digest(lines) != reference["sha256"]:
        diff.append(f"{name}: SHA-256 differs off the sampled lines")
    return diff


@pytest.fixture(scope="module")
def readme_outputs(tmp_path_factory):
    return run_readme_commands(tmp_path_factory.mktemp("readme"))


def test_readme_outputs_match_their_references(readme_outputs):
    references = json.loads(REFERENCES.read_text())
    assert sorted(readme_outputs) == sorted(references)
    assert [line for name, (header, lines) in readme_outputs.items()
            for line in mismatches(name, header, lines,
                                   references[name])] == []


def _last_digit_up(cell: str) -> str:
    """The printed cell with its last digit moved by one."""
    i = max(i for i, c in enumerate(cell) if c.isdigit())
    return cell[:i] + "01234567890"[int(cell[i]) + 1] + cell[i + 1:]


@pytest.mark.parametrize("name, line", [
    ("states.csv", 5), ("perturb.csv", 3), ("spectrum.csv", 100),
    ("spectrum.csv", 101), ("dynamics_dsc.csv", 733)],
    ids=["golden-file", "whole", "sampled-line", "hashed-line", "dynamics"])
def test_reference_check_fails_on_one_changed_digit(readme_outputs, name,
                                                    line):
    # the last printed digit of one cell, on a kept line, a sampled line
    # and a line only the hash covers
    references = json.loads(REFERENCES.read_text())
    header, lines = readme_outputs[name]
    lines = list(lines)
    cells = lines[line].split(",")
    cells[-1] = _last_digit_up(cells[-1])
    lines[line] = ",".join(cells)
    assert mismatches(name, header, lines, references[name])


def test_reference_check_pins_each_csv_header(readme_outputs):
    # each CSV's header line, with its version, command and configuration
    # hash, is pinned apart from the other lines: one changed hash digit,
    # as a hash that left out a flag would show, is reported
    references = json.loads(REFERENCES.read_text())
    headers = {name: header for name, (header, _) in readme_outputs.items()}
    assert [name for name, header in headers.items() if header is None] == [
        "spectrum.svg"]
    for name, (header, lines) in readme_outputs.items():
        if header is not None:
            moved = header[:-1] + ("1" if header[-1] == "0" else "0")
            assert mismatches(name, moved, lines, references[name])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_readme_commands(Path(tmp))
    # each reference line that moves, old -> new, before the rewrite
    old = json.loads(REFERENCES.read_text())
    for name, (header, lines) in outputs.items():
        for change in (mismatches(name, header, lines, old[name])
                       if name in old else [f"{name}: new output"]):
            print(change)
    pinned = {name: reference_of(*output) for name, output in outputs.items()}
    # the eigenstate output stays whole in its own golden file
    header, lines = outputs["states.csv"]
    (GOLDEN / "eigenstate_readme.csv").write_text("\n".join(lines) + "\n")
    pinned["states.csv"] = {"header": header, "file": "eigenstate_readme.csv"}
    REFERENCES.write_text(json.dumps(pinned, indent=1) + "\n")
