#!/usr/bin/env python3
"""Documentation checker: links resolve, fenced Python snippets execute.

Walks ``README.md`` and every Markdown file under ``docs/`` and enforces the
two properties that keep prose honest:

1. **Links** — every relative Markdown link (and image) must point at a file
   or directory that exists in the checkout.  External (``http(s)://``,
   ``mailto:``) links and pure ``#fragment`` anchors are not checked.
2. **Snippets** — every fenced ```` ```python ```` block is executed against
   the installed package, each in a fresh namespace, with the repo root as
   the working directory.  A snippet that raises fails the check, so example
   code cannot rot silently.  A fence immediately preceded by an
   ``<!-- docs-check: skip -->`` comment (optionally with blank lines in
   between) is skipped — use it for deliberately partial fragments.

Run from anywhere inside the checkout::

    python tools/check_docs.py

Exit status is non-zero when any link is broken or any snippet fails; this is
the ``docs-check`` CI job's second half (the first half is ruff's
missing-docstring rules over all of ``src/repro``).
"""

from __future__ import annotations

import os
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

SKIP_MARKER = "<!-- docs-check: skip -->"

#: Pages every checkout must ship: the docs subsystem's table of contents.
#: A page listed here that is missing from ``docs/`` fails the check, so a
#: refactor cannot silently drop documentation (renames must update this
#: manifest alongside the README links).
REQUIRED_DOCS = (
    "architecture.md",
    "fairness.md",
    "observability.md",
    "performance.md",
    "resilience.md",
    "sessions.md",
    "simulation-semantics.md",
)

#: Markdown inline links/images: [text](target) / ![alt](target).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Schemes that point outside the checkout and are therefore not checked.
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def repo_root() -> Path:
    """The checkout root (where ``pyproject.toml`` lives)."""
    for parent in (Path(__file__).resolve(), *Path(__file__).resolve().parents):
        if (parent / "pyproject.toml").exists():
            return parent
    raise SystemExit("could not locate the repo root (no pyproject.toml found)")


def documentation_files(root: Path) -> list[Path]:
    """README plus every Markdown file under ``docs/``."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").rglob("*.md")))
    return [f for f in files if f.exists()]


@dataclass
class Snippet:
    """One fenced Python block: source text plus its location for reporting."""

    path: Path
    line: int  # 1-based line of the opening fence
    source: str


def extract(path: Path) -> tuple[list[tuple[int, str]], list[Snippet]]:
    """Collect (line, target) link references and executable Python snippets."""
    links: list[tuple[int, str]] = []
    snippets: list[Snippet] = []
    lines = path.read_text().splitlines()
    in_fence = False
    fence_lang = ""
    fence_start = 0
    fence_body: list[str] = []
    skip_armed = False
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("```"):
            if not in_fence:
                in_fence = True
                fence_lang = stripped[3:].strip().lower()
                fence_start = number
                fence_body = []
            else:
                if fence_lang == "python" and not skip_armed:
                    snippets.append(
                        Snippet(path=path, line=fence_start, source="\n".join(fence_body))
                    )
                in_fence = False
                skip_armed = False
            continue
        if in_fence:
            fence_body.append(line)
            continue
        if stripped == SKIP_MARKER:
            skip_armed = True
        elif stripped:
            skip_armed = False
        for match in _LINK_RE.finditer(line):
            links.append((number, match.group(1)))
    return links, snippets


def check_links(root: Path, path: Path, links: list[tuple[int, str]]) -> list[str]:
    """Return one error string per relative link that does not resolve."""
    errors = []
    for number, target in links:
        if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            errors.append(
                f"{path.relative_to(root)}:{number}: broken link -> {target}"
            )
    return errors


def run_snippet(root: Path, snippet: Snippet) -> str | None:
    """Execute one snippet from the repo root; return an error string on failure."""
    namespace: dict = {"__name__": "__docs_check__"}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        code = compile(snippet.source, f"{snippet.path.name}:{snippet.line}", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own documentation
    except Exception:
        location = f"{snippet.path.relative_to(root)}:{snippet.line}"
        return f"{location}: snippet raised\n{traceback.format_exc(limit=4)}"
    finally:
        os.chdir(cwd)
    return None


def main() -> int:
    """Check every documentation file; print a summary and return an exit code."""
    root = repo_root()
    sys.path.insert(0, str(root / "src"))
    errors: list[str] = []
    for name in REQUIRED_DOCS:
        if not (root / "docs" / name).exists():
            errors.append(f"docs/{name}: required page is missing (see REQUIRED_DOCS)")
    checked_links = executed = 0
    for path in documentation_files(root):
        links, snippets = extract(path)
        checked_links += len(links)
        errors.extend(check_links(root, path, links))
        for snippet in snippets:
            executed += 1
            error = run_snippet(root, snippet)
            if error:
                errors.append(error)
    for error in errors:
        print(f"FAIL {error}")
    status = "FAILED" if errors else "ok"
    print(
        f"docs-check {status}: {checked_links} links checked, "
        f"{executed} python snippets executed, {len(errors)} problem(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
