"""Output snapshot of the command line and the demos.

Every case runs in-process and its exit code, stdout and stderr are kept, one
file per run, under this directory:

- ``cli/<fixture>/``: each ``demos/matrices/`` fixture under ``compute``
  strict/mp/uc/all, ``compare`` and ``check`` strict/mp/uc/all, each in the
  json, table and csv output formats (162 runs);
- ``edge/<input>/``: the same nine commands, json output, on inputs at the
  edges of float64 and of the balancing sweep (see ``EDGE_INPUTS``); the
  sweep-capped 50x50 plant, whose every balance runs the full cap, only
  under ``compute`` and ``check`` uc;
- ``demos/``: each demo script, run through ``runpy``.

Warnings print as the command line prints them, with the source path and
line number masked, since any edit moves them. ``tests/test_snapshots.py``
compares every file byte for byte. A change that alters output on purpose
regenerates the files and shows the diff in review:

    PYTHONPATH=src python tests/snapshots/regen.py
"""

import contextlib
import io
import re
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
TESTS = HERE.parent
ROOT = TESTS.parent
if str(TESTS) not in sys.path:
    sys.path.insert(0, str(TESTS))

from ucrga.cli import main  # noqa: E402
from ucrga.matrix import format_csv  # noqa: E402

from golden import UNCONVERGED_BIDIAGONAL  # noqa: E402
from suites import sparse_suite  # noqa: E402

FIXTURES = sorted((ROOT / "demos" / "matrices").iterdir())
DEMOS = sorted((ROOT / "demos").glob("*.py"))

COMMANDS = [
    *(["compute", "--method", m] for m in ("strict", "mp", "uc", "all")),
    ["compare"],
    *(["check", "--method", m] for m in ("strict", "mp", "uc", "all")),
]
CLI_OUTPUTS = ("json", "table", "csv")
EDGE_OUTPUTS = ("json",)
EDGE_COMMANDS = {
    "unconverged-bidiagonal": [["compute", "--method", "uc"], ["check", "--method", "uc"]]
}


def _edge_inputs() -> dict[str, str]:
    inputs = {
        # the rescale check once overflowed, or flushed the subnormal to zero
        "overflowing-row": "1e308,1\n1,1\n",
        "subnormal-entry": "5e-324,0\n0,1\n",
        # 1 / sigma once overflowed on these
        "subnormal-2x2": "1e-310,1e-310\n1e-310,2e-310\n",
        "smallest-1x1": "5e-324\n",
        # sigma_1 overflows although every entry is finite
        "huge-2x2": "1.5e308,1.5e308\n1.5e308,1.5e308\n",
        # the balanced core spans more than float64
        "core-beyond-float-3x3": "1,1,8.732828226623622e-189\n5e-324,5e-324,1e308\n1,1,1\n",
        # the balancing sweep stops at its cap
        "unconverged-bidiagonal": format_csv(UNCONVERGED_BIDIAGONAL),
    }
    inputs.update({f"sparse-{name}": format_csv(g) for name, g in sparse_suite().items()})
    return inputs


EDGE_INPUTS = _edge_inputs()


def _mask(text: str) -> str:
    """Drop the source path and line number from each warning's first line."""
    return re.sub(r"^\S*?([^/\\\s]+\.py):\d+: (\w+Warning): ", r"\1: \2: ", text, flags=re.M)


def _capture(run) -> str:
    """Exit code, stdout and stderr of ``run()`` as one text."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
        np.printoptions(),
    ):
        # the command line's own warning filter: each location reports once
        warnings.simplefilter("default")
        warnings.showwarning = show
        code = run()
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{_mask(err.getvalue())}"


def _run_demo(path: Path) -> int:
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def _runs(path: Path, outputs, commands=COMMANDS) -> dict[str, list[str]]:
    """The file name and argv of each command on ``path``."""
    return {
        f"{'-'.join(c for c in command if c != '--method')}-{output}.txt": [
            *command, "--input", str(path), "--output", output
        ]
        for command in commands
        for output in outputs
    }


def groups() -> list[str]:
    """One name per input file and one for the demos."""
    return (
        [f"cli/{path.name}" for path in FIXTURES]
        + [f"edge/{name}" for name in EDGE_INPUTS]
        + ["demos"]
    )


def generate(group: str) -> dict[str, str]:
    """The snapshot text of every run in ``group``, keyed by its path under
    this directory."""
    kind, _, name = group.partition("/")
    if kind == "demos":
        return {f"demos/{path.stem}.txt": _capture(lambda: _run_demo(path)) for path in DEMOS}
    if kind == "cli":
        runs = _runs(ROOT / "demos" / "matrices" / name, CLI_OUTPUTS)
        return {f"{group}/{file}": _capture(lambda: main(argv)) for file, argv in runs.items()}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{name}.csv"
        path.write_text(EDGE_INPUTS[name], encoding="utf-8")
        runs = _runs(path, EDGE_OUTPUTS, EDGE_COMMANDS.get(name, COMMANDS))
        return {
            f"{group}/{file}": _capture(lambda: main(argv)).replace(directory, "<inputs>")
            for file, argv in runs.items()
        }


def stored(group: str) -> dict[str, str]:
    """The snapshot files of ``group`` as they are on disk."""
    return {
        path.relative_to(HERE).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted((HERE / group).glob("*.txt"))
    }


def regenerate() -> None:
    """Rewrite every snapshot file, removing those no run produces any more."""
    for group in groups():
        for stale in stored(group):
            (HERE / stale).unlink()
        for relative, text in generate(group).items():
            target = HERE / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
