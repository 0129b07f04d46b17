"""Line-based source editing and unified diff rendering."""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field


@dataclass
class SourceEditor:
    """Applies line-level edits to a source file.

    Lines are 1-indexed (matching AST locations).  Edits are collected and
    applied in one pass so earlier edits do not shift later line numbers.
    """

    source: str
    _replacements: dict[int, str] = field(default_factory=dict)
    _deletions: set[int] = field(default_factory=set)
    #: line -> list of lines inserted *after* it (0 = top of file).
    _insertions: dict[int, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lines = self.source.splitlines()

    def line(self, number: int) -> str:
        return self._lines[number - 1]

    def replace_line(self, number: int, text: str) -> None:
        self._replacements[number] = text

    def delete_line(self, number: int) -> None:
        self._deletions.add(number)

    def insert_after(self, number: int, text: str) -> None:
        self._insertions.setdefault(number, []).append(text)

    def insert_before(self, number: int, text: str) -> None:
        self.insert_after(number - 1, text)

    def substitute(self, number: int, old: str, new: str) -> bool:
        """Replace the first occurrence of ``old`` on a line; False when
        the text is absent (the edit is then skipped)."""
        current = self._replacements.get(number, self.line(number))
        if old not in current:
            return False
        self._replacements[number] = current.replace(old, new, 1)
        return True

    def substitute_word(self, number: int, old: str, new: str) -> bool:
        """Whole-word substitution (for identifier renames)."""
        current = self._replacements.get(number, self.line(number))
        pattern = rf"\b{re.escape(old)}\b"
        replaced, count = re.subn(pattern, new, current, count=1)
        if count == 0:
            return False
        self._replacements[number] = replaced
        return True

    def result(self) -> str:
        out: list[str] = self._build_lines()
        if not out:
            return ""
        return "\n".join(out) + ("\n" if self.source.endswith("\n") else "")

    def _build_lines(self) -> list[str]:
        out: list[str] = []
        for extra in self._insertions.get(0, ()):
            out.append(extra)
        for number, text in enumerate(self._lines, start=1):
            if number in self._deletions:
                pass
            elif number in self._replacements:
                out.append(self._replacements[number])
            else:
                out.append(text)
            out.extend(self._insertions.get(number, ()))
        return out

    @property
    def dirty(self) -> bool:
        return bool(self._replacements or self._deletions or self._insertions)


def unified_diff(
    old: str, new: str, filename: str, context: int = 3
) -> str:
    """Unified diff in kernel-patch style (a/ and b/ prefixes)."""
    diff = difflib.unified_diff(
        old.splitlines(keepends=True),
        new.splitlines(keepends=True),
        fromfile=f"a/{filename}",
        tofile=f"b/{filename}",
        n=context,
    )
    return "".join(diff)


def indentation_of(line: str) -> str:
    """Leading whitespace of a line (preserved when moving statements)."""
    return line[: len(line) - len(line.lstrip())]
