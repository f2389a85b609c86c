#!/usr/bin/env python
"""Documentation checker: code blocks must parse, links must resolve.

Run from the repository root (CI's ``docs`` job does)::

    python tools/check_docs.py

Checks, over ``README.md`` and ``docs/*.md``:

1. every fenced ```` ```python ```` code block compiles (syntax check via
   ``compile()`` — blocks are never executed, so they may reference
   optional scale or name their own files);
2. every ``import repro…`` / ``from repro… import name`` inside those blocks
   resolves against the real package (``importlib`` + ``getattr``; needs
   ``src`` on ``PYTHONPATH``), so an example naming a deleted module or
   symbol fails here instead of for the reader;
3. every relative markdown link points at a file that exists in the tree;
4. every anchored link (``docs/foo.md#section`` or ``#section``) matches a
   heading in the target document, using GitHub's slugging rules;
5. every ``repro.bench run|list --filter X`` inside a fenced block selects at
   least one registered benchmark (``default_registry().select``), so a
   command naming a deleted benchmark fails here instead of for the reader;
6. every dotted ``repro.…`` name that is a whole markdown code span (say
   ``repro.shard.partition.plan_shards`` in single backticks) resolves: its
   longest importable module prefix is imported and the rest looked up with
   ``getattr``, so prose naming a deleted module or symbol fails here
   instead of for the reader;
7. every ``*.md`` path a module under ``src/`` names (say
   ``docs/performance.md`` in a docstring) exists, relative to the
   repository root, so code cannot cite a document that was never written
   or was removed.

Exit status 0 when clean; 1 with one line per problem otherwise.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

FENCE = re.compile(r"^```(\w*)\s*$")
# Inline markdown links; images excluded via the negative lookbehind.
LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*)$")
BENCH_COMMAND = re.compile(r"repro\.bench\s+(?:run|list)\b(.*)")
BENCH_FILTER = re.compile(r"--filter[=\s]+(\S+)")
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)`")
MD_PATH = re.compile(r"[\w./-]*\w\.md\b")


def doc_files() -> List[Path]:
    """The documents under check: the README plus the docs tree."""
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def iter_code_blocks(text: str) -> Iterator[Tuple[int, str, str]]:
    """Yield ``(first_line_number, language, source)`` per fenced block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = FENCE.match(lines[i])
        if match is None:
            i += 1
            continue
        language = match.group(1)
        start = i + 1
        i = start
        while i < len(lines) and not lines[i].startswith("```"):
            i += 1
        yield start + 1, language, "\n".join(lines[start:i])
        i += 1


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    # Drop inline code/link markup, lowercase, keep word chars and hyphens.
    text = re.sub(r"`([^`]*)`", r"\1", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set:
    """Every anchor a markdown document exposes (fenced blocks excluded)."""
    slugs = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING.match(line)
        if match is not None:
            slugs.add(github_slug(match.group(2)))
    return slugs


def unresolved_repro_imports(tree: ast.AST) -> Iterator[str]:
    """Yield every ``repro`` module or name the block imports that does not exist."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            targets = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module_name, name in targets:
            if module_name.split(".")[0] != "repro":
                continue
            try:
                module = importlib.import_module(module_name)
                if name is not None and name != "*" and not hasattr(module, name):
                    importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                yield module_name if name is None else f"{module_name}.{name}"


def check_code_blocks(path: Path, problems: List[str]) -> int:
    """Compile every python block, resolve its repro imports; returns how many were checked."""
    checked = 0
    for line_number, language, source in iter_code_blocks(path.read_text(encoding="utf-8")):
        if language != "python":
            continue
        checked += 1
        where = f"{path.relative_to(ROOT)}:{line_number}"
        try:
            compile(source, f"{path.name}:{line_number}", "exec")
        except SyntaxError as exc:
            problems.append(
                f"{where}: python block does not parse: {exc.msg} (block line {exc.lineno})"
            )
            continue
        for missing in unresolved_repro_imports(ast.parse(source)):
            problems.append(f"{where}: python block imports {missing}, which does not exist")
    return checked


def check_links(path: Path, problems: List[str]) -> int:
    """Resolve every relative link and anchor; returns how many were checked."""
    checked = 0
    text = path.read_text(encoding="utf-8")
    # Strip fenced blocks so shell snippets cannot produce false links.
    stripped = []
    in_fence = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            stripped.append(line)
    for target in LINK.findall("\n".join(stripped)):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        checked += 1
        file_part, _, anchor = target.partition("#")
        resolved = path if not file_part else (path.parent / file_part).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(ROOT)}: broken link target {target!r}")
            continue
        if anchor and resolved.suffix == ".md":
            if anchor not in heading_slugs(resolved):
                problems.append(
                    f"{path.relative_to(ROOT)}: link {target!r} names a heading "
                    f"that does not exist in {resolved.name}"
                )
    return checked


def check_bench_filters(path: Path, problems: List[str]) -> int:
    """Select every documented ``--filter``; returns how many were checked."""
    from repro.bench import default_registry

    registry = default_registry()
    checked = 0
    for line_number, _, source in iter_code_blocks(path.read_text(encoding="utf-8")):
        # A command continued with a trailing backslash is one line.
        for command in BENCH_COMMAND.findall(source.replace("\\\n", " ")):
            for pattern in BENCH_FILTER.findall(command):
                checked += 1
                if not registry.select([pattern]):
                    problems.append(
                        f"{path.relative_to(ROOT)}:{line_number}: block filters benchmarks "
                        f"by {pattern!r}, which selects none"
                    )
    return checked


def resolves(name: str) -> bool:
    """Whether a dotted name is its longest importable module prefix plus attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_dotted_names(path: Path, problems: List[str]) -> int:
    """Resolve every backticked ``repro.…`` name; returns how many were checked."""
    checked = 0
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for name in DOTTED_NAME.findall(line):
            checked += 1
            if not resolves(name):
                problems.append(
                    f"{path.relative_to(ROOT)}:{line_number}: names {name}, which does not exist"
                )
    return checked


def check_source_doc_paths(problems: List[str]) -> int:
    """Find every ``*.md`` path named under ``src/``; returns how many were checked."""
    checked = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for name in MD_PATH.findall(line):
                checked += 1
                if not (ROOT / name).is_file():
                    problems.append(
                        f"{path.relative_to(ROOT)}:{line_number}: names {name}, "
                        "which does not exist"
                    )
    return checked


def main() -> int:
    problems: List[str] = []
    blocks = links = filters = names = 0
    files = doc_files()
    for path in files:
        blocks += check_code_blocks(path, problems)
        links += check_links(path, problems)
        filters += check_bench_filters(path, problems)
        names += check_dotted_names(path, problems)
    sources = check_source_doc_paths(problems)
    for problem in problems:
        print(problem, file=sys.stderr)
    status = "FAILED" if problems else "ok"
    print(
        f"docs check {status}: {len(files)} files, {blocks} python blocks "
        f"compiled, {links} links resolved, {filters} bench filters selected, "
        f"{names} repro names resolved, {sources} document paths in src/ checked, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
