"""Disk cache for memoised Billey restrictions.

One JSON-lines file per cache directory. The first line is a format
header; every other line is either a restriction entry keyed by the
root system, the class word and the fixed-point word, or a marker that
a whole fixed-point row has been computed (missing pairs of a marked
row are genuinely zero). Corrupt lines and stale formats are skipped
and recomputed, never trusted; rewrites are atomic, each through a
temp file of its own.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

from .poly import Polynomial
from .rootsys import element_from_word

FORMAT_VERSION = 1
_FILENAME = "billey-cache.jsonl"


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


class BilleyDiskCache:
    def __init__(self, directory):
        self.directory = Path(directory)
        self.path = self.directory / _FILENAME

    def load(self, rs):
        """Merge valid entries for this root system into its memo tables.

        Returns the number of restriction entries adopted.
        """
        if not self.path.exists():
            return 0
        key = root_system_key(rs)
        adopted = 0
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return 0
        if not lines:
            return 0
        try:
            header = json.loads(lines[0])
            if header.get("format") != FORMAT_VERSION:
                return 0
        except (json.JSONDecodeError, AttributeError):
            return 0
        for line in lines[1:]:
            try:
                entry = json.loads(line)
                if entry.get("rs") != key:
                    continue
                w = _element_for_words(rs, entry["w"])
                if entry.get("row_complete"):
                    rs._billey_rows_done.add(w)
                    continue
                v = _element_for_words(rs, entry["v"])
                poly = Polynomial.from_json(rs.rank, entry["poly"])
                rs._billey[(v, w)] = poly
                adopted += 1
            except (ValueError, KeyError, TypeError, json.JSONDecodeError):
                continue  # corrupt entry: recompute instead of trusting it
        return adopted

    def save(self, rs):
        """Write the current memo contents for this root system.

        Entries for other root systems already in the file are kept.
        Pairs of a row are written before the row marker, so a truncated
        write can never claim completeness it does not have.
        """
        key = root_system_key(rs)
        foreign = []
        if self.path.exists():
            try:
                lines = self.path.read_text(encoding="utf-8").splitlines()
                if lines and json.loads(lines[0]).get("format") == FORMAT_VERSION:
                    for line in lines[1:]:
                        try:
                            if json.loads(line).get("rs") != key:
                                foreign.append(line)
                        except json.JSONDecodeError:
                            continue
            except OSError:
                pass

        by_row = {}
        for (v, w), poly in rs._billey.items():
            by_row.setdefault(w, []).append((v, poly))
        out = [json.dumps({"format": FORMAT_VERSION})]
        out.extend(foreign)
        for w in sorted(by_row, key=lambda e: e.sort_key()):
            for v, poly in sorted(by_row[w], key=lambda p: p[0].sort_key()):
                out.append(
                    json.dumps(
                        {
                            "rs": key,
                            "v": list(v.word),
                            "w": list(w.word),
                            "poly": poly.to_json(),
                        },
                        separators=(",", ":"),
                    )
                )
            if w in rs._billey_rows_done:
                out.append(
                    json.dumps(
                        {"rs": key, "w": list(w.word), "row_complete": True},
                        separators=(",", ":"),
                    )
                )
        self.directory.mkdir(parents=True, exist_ok=True)
        # a temp file of its own, so concurrent writers cannot clobber it
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=_FILENAME + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write("\n".join(out) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
