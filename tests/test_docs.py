"""The docs describe the code that exists.

Two checks over README / DESIGN / EXPERIMENTS / ``docs/``, both of
them cheap and exact: every back-ticked repository path, test id
(``tests/x.py::TestY``) or dotted ``repro.…`` name resolves, and every
quoted ``repro …`` command is accepted by the CLI's own parser.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import io
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
DOC_IDS = [str(doc.relative_to(ROOT)) for doc in DOCS]

TICKED = re.compile(r"`([^`\n]+)`")
TEST_ID = re.compile(r"([\w/.-]+\.py)((?:::\w+)+)")
FENCED = re.compile(r"```([^\n]*)\n(.*?)```", re.S)
FILE_SUFFIXES = (
    ".py", ".md", ".json", ".jsonl", ".toml", ".yml", ".yaml", ".txt",
)
#: First components that make a suffix-less token a path (``tests/golden``).
TOP_LEVEL = {p.name for p in ROOT.iterdir() if p.is_dir()} | {"repro"}


@functools.cache
def _repo_basenames() -> frozenset[str]:
    """Every file name in the checkout: a bare ``bench_fig6_hang.py``
    cites a file without saying where it lives."""
    names: set[str] = set()
    for _dir, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git")]
        names.update(files)
    return frozenset(names)


def _path_tokens(text: str) -> list[str]:
    """Back-ticked tokens that name a file or directory of the repo —
    not placeholders, globs, URLs, format ids (``repro.spans/1``),
    bare suffixes (``.repro.json``) or absolute paths."""
    tokens = []
    for token in TICKED.findall(text):
        token = token.strip()
        if re.search(r"[\s<>*{}$|=()\[\]…~]|://", token):
            continue
        token = re.sub(r":\d+(-\d+)?$", "", token.split("::")[0]).rstrip("/.,:")
        if token.startswith(("/", ".")) and not token.startswith(".github"):
            continue
        if re.fullmatch(r"repro\.\w+/\d+", token):
            continue
        if token.endswith(FILE_SUFFIXES) or (
            "/" in token and token.split("/")[0] in TOP_LEVEL
        ):
            tokens.append(token)
    return tokens


@functools.cache
def _defined_names(path: Path) -> frozenset[str]:
    """Every ``def`` and ``class`` name in *path*, at any nesting level
    (read by AST walk: the file is never imported)."""
    return frozenset(
        node.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
    )


def _unresolved_test_ids(text: str, bases=(ROOT,)) -> list[str]:
    """Back-ticked ``path.py::Name[::name]`` ids whose file is missing
    under every base or does not define every ``::`` component."""
    unresolved = []
    for token in dict.fromkeys(TICKED.findall(text)):
        match = TEST_ID.fullmatch(token.strip())
        if match is None:
            continue
        names = set(match[2].split("::")[1:])
        paths = [base / match[1] for base in bases]
        if not any(path.is_file() and names <= _defined_names(path)
                   for path in paths):
            unresolved.append(token)
    return unresolved


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=DOC_IDS)
def test_every_backticked_path_and_module_exists(doc):
    text = doc.read_text()
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro", doc.parent)
    missing = [
        token
        for token in dict.fromkeys(_path_tokens(text))
        if not any((base / token).exists() for base in bases)
        and not ("/" not in token and token in _repo_basenames())
    ]
    missing += [
        name
        for name in dict.fromkeys(
            t.strip().rstrip("()") for t in TICKED.findall(text)
        )
        if re.fullmatch(r"repro(\.\w+)+", name) and not _resolves(name)
    ]
    missing += _unresolved_test_ids(text, bases)
    assert not missing, f"{doc.name} cites what does not exist: {missing}"


COMMAND = re.compile(
    r"^(?:\$ )?(?:\w+=\S+ )*(?:python3? -m repro|repro) (.+)$"
)


def _quoted_commands(text: str):
    """``(pasteable, argument text)`` of every quoted ``repro …``
    command: lines of fenced blocks are pasteable (in a ``console``
    block only the ``$`` lines — the rest is output), inline back-ticked
    mentions (``repro report``) may leave required arguments out."""
    sources = [
        (True, line)
        for language, block in FENCED.findall(text)
        for line in block.replace("\\\n", " ").splitlines()
        if language != "console" or line.startswith("$ ")
    ] + [(False, token) for token in TICKED.findall(FENCED.sub("", text))]
    for pasteable, line in sources:
        match = COMMAND.match(line.strip())
        if match is None:
            continue
        # Drop trailing comments, pipes, redirects and chained commands.
        rest = re.split(r"\s+#\s|\s[|>]|\s&&\s|\s2>", match.group(1))[0]
        if not re.search(r"…|\.\.\.|[<\[{]", rest):  # placeholders
            yield pasteable, rest


@pytest.mark.parametrize("doc", DOCS, ids=DOC_IDS)
def test_every_quoted_repro_command_parses(doc):
    rejected = []
    for pasteable, rest in _quoted_commands(doc.read_text()):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args(shlex.split(rest))
        except SystemExit as exit_:
            error = stderr.getvalue().strip().splitlines()[-1:]
            incomplete = error and "arguments are required" in error[0]
            if exit_.code and (pasteable or not incomplete):
                rejected.append((rest, error))
    assert not rejected, f"{doc.name} quotes commands the CLI rejects: {rejected}"


def test_the_checks_see_something():
    text = "\n".join(doc.read_text() for doc in DOCS)
    assert len(_path_tokens(text)) > 100
    assert sum(1 for _ in _quoted_commands(text)) > 60
    assert len(set(TEST_ID.findall(text))) > 15


def test_test_ids_resolve_at_any_nesting_level():
    cited = [
        "tests/test_faults.py::TestPolling",
        "tests/test_spans.py::TestCachedSpans",
        # A method of a class, cited without the class.
        "tests/test_coverage.py::test_guided_beats_uniform_at_equal_budget",
        "tests/test_spans.py::TestNonPerturbation",
        "tests/test_experiments.py::TestABL::test_ibarrier_termination",
    ]
    assert _unresolved_test_ids(" ".join(f"`{c}`" for c in cited)) == []
    made_up = [
        "tests/test_docs.py::test_that_does_not_exist",
        "tests/test_experiments.py::TestABL::test_cache_speedup",
        "tests/no_such_file.py::TestPolling",
    ]
    assert _unresolved_test_ids(
        " ".join(f"`{m}`" for m in made_up)
    ) == made_up
