"""Every ``ROADMAP item <n>`` cited in ``src/``, ``tests/``, ``docs/``
and ``.github/`` names an item still open in ``ROADMAP.md``.

Item numbers are stable, and a closed item leaves the "Open items"
section; a pointer to it is stale, and cites the PR that closed it
instead.  A citation may wrap across lines and comment markers.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITED = ("src", "tests", "docs", ".github")
TEXT_SUFFIXES = {".py", ".md", ".yml", ".yaml", ".txt", ".toml", ".cfg",
                 ".json"}
CITATION = re.compile(
    r"ROADMAP[\s#]+items?[\s#]+(\d+(?:(?:\s*,\s*|\s+and\s+|\s+or\s+)\d+)*)")
OPEN_ITEM = re.compile(r"^(\d+)\. \*\*", re.MULTILINE)


def open_items() -> set[int]:
    text = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    section = text.split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(number) for number in OPEN_ITEM.findall(section)}


def citations() -> list[tuple[str, int]]:
    found = []
    for top in CITED:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or path.suffix not in TEXT_SUFFIXES:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for match in CITATION.finditer(text):
                found.extend((str(path.relative_to(ROOT)), int(number))
                             for number in re.findall(r"\d+", match[1]))
    return found


def test_roadmap_citations_name_open_items():
    items = open_items()
    cited = citations()
    assert items and cited  # neither side silently empty
    stale = [(path, number) for path, number in cited
             if number not in items]
    assert stale == []


def test_a_wrapped_citation_is_read_whole():
    text = "as planned (ROADMAP\n    # items 7,\n  8 and 10)"
    match = CITATION.search(text)
    assert match and re.findall(r"\d+", match[1]) == ["7", "8", "10"]
