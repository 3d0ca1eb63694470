"""Mutation check: every mutant in mutants.py must be killed by its tests.

    python tests/mutation/run.py

For each entry it copies src/, tests/ and pyproject.toml to a temporary
directory, replaces the entry's old string (which must occur exactly
once) with its new one, and runs the entry's test ids there with
pytest -x. A mutant is killed when pytest reports a failing test. The
listed tests are first run once on an unmutated copy, where they must
all pass. Exits 1 if any mutant survives, any old string is missing or
ambiguous, or a test run ends without a verdict (a mistyped test id, a
collection error); 0 when every mutant is killed. Standard library
only; it prints one line per mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(Path(__file__).resolve().parent))
from mutants import MUTANTS  # noqa: E402

_COPIED = ("src", "tests", "pyproject.toml")
_IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache",
                                  "*.egg-info")


def _copy_tree(dest: Path) -> None:
    for name in _COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=_IGNORED)
        else:
            shutil.copy2(source, dest / name)


def _pytest(tree: Path, test_ids: list) -> int:
    """pytest's exit code for test_ids run in tree: 0 passed, 1 a test failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--no-header", *test_ids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _apply(tree: Path, mutant: dict) -> str:
    """Apply the mutant in tree; an error message, or '' once applied."""
    path = tree / mutant["file"]
    text = path.read_text()
    count = text.count(mutant["old"])
    if count != 1:
        return f"old string found {count} times in {mutant['file']}"
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    return ""


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        base = Path(scratch) / "base"
        _copy_tree(base)
        listed = sorted({t for m in MUTANTS for t in m["tests"]})
        code = _pytest(base, listed)
        if code != 0:
            print(f"ERROR the listed tests do not pass unmutated (pytest exit {code})")
            return 1
        for k, mutant in enumerate(MUTANTS, start=1):
            label = f"{k:2d} {mutant['file']}: {mutant['old']!r} -> {mutant['new']!r}"
            tree = Path(scratch) / f"mutant{k}"
            _copy_tree(tree)
            problem = _apply(tree, mutant)
            start = time.perf_counter()
            verdict = "ERROR"
            if not problem:
                code = _pytest(tree, mutant["tests"])
                verdict = {0: "SURVIVED", 1: "KILLED"}.get(code, "ERROR")
                problem = f"pytest exit {code}"
            shutil.rmtree(tree)
            failures += verdict != "KILLED"
            print(f"{verdict} {label} ({problem}, {time.perf_counter() - start:.1f} s)",
                  flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
