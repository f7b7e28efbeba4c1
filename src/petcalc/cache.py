"""Disk cache for memoised Billey restrictions.

One JSON-lines file per cache directory. The first line is the format
header ``{"format": 3}``; every other line holds one whole row of the
Billey memo: a root system, a fixed point w and the nonzero
restrictions at w of all Schubert classes, as
``{"rs": ..., "w": [...], "row": [[v_word, poly_json], ...],
"digest": ...}`` with rows and entries sorted. The digest is the CRC-32
of the line's text up to the digest key, so a line that was cut,
edited or written by hand without it is rejected even when it parses.
A line is adopted whole or not at all: one malformed part rejects the
line and its row is recomputed, so a corrupt line costs time but never
reads as a zero. Files of any other format are ignored and replaced by
the next save that writes. A save whose memo holds only rows that
``load`` adopted leaves the file untouched; any other save keeps the
row lines of other root systems and rewrites the file atomically, each
through a temp file of its own. Both read the file a line at a time,
and the root system of a line from its ``{"rs":<key>,`` prefix, so
neither holds the file whole nor parses the rows of other systems.
"""

import contextlib
import json
import os
import tempfile
import zlib
from pathlib import Path

from .gkm import adopt_billey_row, billey_rows
from .poly import Polynomial
from .rootsys import element_from_word

FORMAT_VERSION = 3
_FILENAME = "billey-cache.jsonl"
_DIGEST_KEY = ',"digest":"'
_ROW_START = '{"rs":'


def root_system_key(rs):
    if rs.type_label:
        return rs.type_label
    return json.dumps([list(row) for row in rs.cartan], separators=(",", ":"))


def _element_for_words(rs, word):
    word = tuple(int(i) for i in word)
    if any(not 1 <= i <= rs.rank for i in word):
        raise ValueError("word letter out of range")
    elt = element_from_word(rs, word)
    if elt.length != len(word):
        raise ValueError("cached word is not reduced")
    return elt


def _digest(text):
    return format(zlib.crc32(text.encode("utf-8")), "08x")


def _signed_line(payload):
    """The compact JSON of payload with the digest of that text appended."""
    text = json.dumps(payload, separators=(",", ":"))
    return f'{text[:-1]}{_DIGEST_KEY}{_digest(text)}"}}'


def _row_prefix(key):
    """The text every row line of the root system ``key`` starts with."""
    return f"{_ROW_START}{json.dumps(key)},"


def _check_digest(line):
    head, key, tail = line.rpartition(_DIGEST_KEY)
    if not key or tail != _digest(head + "}") + '"}':
        raise ValueError("row digest missing or wrong")


class BilleyDiskCache:
    def __init__(self, directory):
        self.directory = Path(directory)
        self.path = self.directory / _FILENAME
        self._adopted = set()  # (root system key, w) of every loaded row

    def _lines(self):
        """The lines after the header of a current-format file, one at a
        time without their newline; none for a missing or other file."""
        try:
            with self.path.open(encoding="utf-8") as handle:
                lines = (line.rstrip("\n") for line in handle)
                if json.loads(next(lines, "")).get("format") == FORMAT_VERSION:
                    yield from lines
        except (OSError, ValueError, AttributeError):
            return

    def load(self, rs):
        """Adopt every valid row for this root system into its memo.

        Lines of other root systems are skipped by their prefix, unparsed.
        Returns the number of restriction entries adopted.
        """
        key = root_system_key(rs)
        prefix = _row_prefix(key)
        adopted = 0
        for line in self._lines():
            if not line.startswith(prefix):
                continue
            try:
                entry = json.loads(line)
                if entry.get("rs") != key:
                    continue
                _check_digest(line)
                w = _element_for_words(rs, entry["w"])
                row = {
                    _element_for_words(rs, v): Polynomial.from_json(rs.rank, p)
                    for v, p in entry["row"]
                }
                if len(row) != len(entry["row"]):
                    raise ValueError("repeated class in a row")
            except (ValueError, KeyError, TypeError, AttributeError):
                continue  # corrupt line: recompute the row, never trust it
            adopt_billey_row(rs, w, row)
            self._adopted.add((key, w))
            adopted += len(row)
        return adopted

    def save(self, rs):
        """Write the memo's rows for this root system, keeping the lines
        of other root systems; do nothing if ``load`` adopted them all.
        """
        key = root_system_key(rs)
        rows = billey_rows(rs)
        if all((key, w) in self._adopted for w, _ in rows):
            return
        own = _row_prefix(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        # a temp file of its own, so concurrent writers cannot clobber it
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=_FILENAME + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"format": FORMAT_VERSION}) + "\n")
                for line in self._lines():
                    if line.startswith(_ROW_START) and not line.startswith(own):
                        handle.write(line + "\n")
                for w, row in sorted(rows, key=lambda item: item[0].sort_key()):
                    entries = sorted(row.items(),
                                     key=lambda item: item[0].sort_key())
                    handle.write(_signed_line({
                        "rs": key,
                        "w": list(w.word),
                        "row": [[list(v.word), poly.to_json()]
                                for v, poly in entries],
                    }) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
