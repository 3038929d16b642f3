"""Dataset schemas for the three assessment granularities plus Q&A posts,
and the unified-diff parser that turns commit diffs into hunks.

Ingest format is JSONL, one record per line; commit diffs are embedded as
strings and parsed on load.
"""

from __future__ import annotations

import datetime
import functools
import json
import re
import reprlib
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

CVSS_TASKS = (
    "Confidentiality",
    "Integrity",
    "Availability",
    "Access Vector",
    "Access Complexity",
    "Authentication",
    "Severity",
)

QA_SITES = ("SO", "SSE")
QA_LABELS = ("positive", "unlabeled")


class SchemaError(ValueError):
    """A JSONL record or JSON object that does not satisfy its schema."""


class DiffParseError(ValueError):
    """Malformed or internally inconsistent unified diff."""


@dataclass(frozen=True)
class SvReport:
    id: str
    description: str
    date: datetime.date
    labels: dict[str, str]


@dataclass(frozen=True)
class FunctionRecord:
    id: str
    lines: tuple[str, ...]
    vulnerable_line_indices: frozenset[int]
    date: datetime.date
    labels: dict[str, str]


@dataclass(frozen=True)
class Hunk:
    """One contiguous block of a unified diff.

    `ops` holds the hunk body in order as (tag, line) with tag in
    {' ', '-', '+'} — the interleaving is needed to reconstruct the
    post-file and to re-emit the diff.
    """

    pre_start: int
    pre_len: int
    post_start: int
    post_len: int
    ops: tuple[tuple[str, str], ...]

    @property
    def deleted(self) -> tuple[str, ...]:
        return tuple(line for tag, line in self.ops if tag == "-")

    @property
    def added(self) -> tuple[str, ...]:
        return tuple(line for tag, line in self.ops if tag == "+")

    def pre_range(self) -> tuple[int, int]:
        """1-based inclusive (start, end) touched in the pre-file."""
        start = max(1, self.pre_start)
        return start, max(start, self.pre_start + self.pre_len - 1)


@dataclass(frozen=True)
class FileChange:
    path: str
    hunks: tuple[Hunk, ...]
    pre_source: str | None = None
    post_source: str | None = None


@dataclass(frozen=True)
class CommitRecord:
    id: str
    project: str
    date: datetime.date
    files: tuple[FileChange, ...]
    labels: dict[str, str]
    diff_text: str = ""


@dataclass(frozen=True)
class QaPost:
    id: str
    site: str
    title: str
    body: str
    answers: str
    tags: frozenset[str]
    label: str

    @property
    def text(self) -> str:
        return " ".join(part for part in (self.title, self.body, self.answers) if part)

    @property
    def word_count(self) -> int:
        return len(self.text.split())


@dataclass(frozen=True)
class Dataset:
    kind: str
    records: tuple
    tasks: tuple[str, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


# ---------------------------------------------------------------------------
# Unified diff parsing.
# ---------------------------------------------------------------------------

_HUNK_HEADER = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")

# non-hunk lines tolerated between file sections
_META_PREFIXES = (
    "diff ", "index ", "new file mode", "deleted file mode", "old mode",
    "new mode", "similarity index", "rename from", "rename to",
    "copy from", "copy to", "Binary files",
)


def _clean_path(header_path: str) -> str:
    path = header_path.split("\t", 1)[0].strip()
    if path.startswith(("a/", "b/")):
        path = path[2:]
    return path


def parse_unified_diff(text: str) -> list[FileChange]:
    """Unified-diff text -> FileChange records in header order.

    Raises DiffParseError with the offending line number on malformed
    headers, and a structural error when a hunk body disagrees with its
    declared lengths or contains no change.
    """
    lines = text.splitlines()
    files: list[FileChange] = []
    pre_path: str | None = None
    i = 0
    n = len(lines)
    current_hunks: list[Hunk] | None = None
    current_path = ""

    while i < n:
        line = lines[i]
        if line.startswith("--- "):
            if current_hunks is not None:
                files.append(FileChange(path=current_path, hunks=tuple(current_hunks)))
                current_hunks = None
            pre_path = _clean_path(line[4:])
            i += 1
            continue
        if line.startswith("+++ "):
            if pre_path is None:
                raise DiffParseError(f"line {i + 1}: +++ header without preceding ---")
            post_path = _clean_path(line[4:])
            current_path = pre_path if post_path == "/dev/null" else post_path
            current_hunks = []
            pre_path = None
            i += 1
            continue
        if line.startswith("@@"):
            if current_hunks is None:
                raise DiffParseError(f"line {i + 1}: hunk header outside a file section")
            m = _HUNK_HEADER.match(line)
            if m is None:
                raise DiffParseError(f"line {i + 1}: malformed hunk header {line!r}")
            pre_start = int(m.group(1))
            pre_len = int(m.group(2)) if m.group(2) is not None else 1
            post_start = int(m.group(3))
            post_len = int(m.group(4)) if m.group(4) is not None else 1
            i += 1
            ops: list[tuple[str, str]] = []
            consumed_pre = consumed_post = 0
            while i < n and (consumed_pre < pre_len or consumed_post < post_len):
                body = lines[i]
                if body.startswith("\\"):  # "\ No newline at end of file"
                    i += 1
                    continue
                tag = body[:1] or " "
                content = body[1:]
                if tag == " ":
                    ops.append((" ", content))
                    consumed_pre += 1
                    consumed_post += 1
                elif tag == "-":
                    ops.append(("-", content))
                    consumed_pre += 1
                elif tag == "+":
                    ops.append(("+", content))
                    consumed_post += 1
                else:
                    raise DiffParseError(
                        f"line {i + 1}: unexpected line inside hunk: {body!r}"
                    )
                i += 1
            if consumed_pre != pre_len or consumed_post != post_len:
                raise DiffParseError(
                    f"hunk at -{pre_start},{pre_len}: body ends before declared lengths"
                )
            if not any(tag in "-+" for tag, _ in ops):
                raise DiffParseError(
                    f"hunk at -{pre_start},{pre_len}: no deleted or added lines"
                )
            current_hunks.append(
                Hunk(pre_start, pre_len, post_start, post_len, tuple(ops))
            )
            continue
        if not line.strip() or line.startswith(_META_PREFIXES) or line.startswith("\\"):
            i += 1
            continue
        raise DiffParseError(f"line {i + 1}: unrecognized diff line {line!r}")

    if current_hunks is not None:
        files.append(FileChange(path=current_path, hunks=tuple(current_hunks)))
    elif pre_path is not None:
        raise DiffParseError("dangling --- header at end of diff")
    return files


def apply_hunks(pre_text: str, hunks: tuple[Hunk, ...]) -> str:
    """Reconstruct the post-file from the pre-file and ordered hunks."""
    pre_lines = pre_text.splitlines()
    out: list[str] = []
    cursor = 0  # next 0-based pre line not yet copied
    for hunk in sorted(hunks, key=lambda h: h.pre_start):
        # a zero-length pre range names the line *after which* to insert
        start0 = hunk.pre_start - 1 if hunk.pre_len > 0 else hunk.pre_start
        if start0 < cursor:
            raise DiffParseError(f"overlapping hunk at -{hunk.pre_start}")
        out.extend(pre_lines[cursor:start0])
        cursor = start0
        for tag, line in hunk.ops:
            if tag in (" ", "-"):
                if cursor >= len(pre_lines) or pre_lines[cursor] != line:
                    raise DiffParseError(
                        f"hunk at -{hunk.pre_start}: pre-file disagrees at line {cursor + 1}"
                    )
                cursor += 1
            if tag in (" ", "+"):
                out.append(line)
    out.extend(pre_lines[cursor:])
    if not out:
        return ""
    return "\n".join(out) + ("\n" if pre_text.endswith("\n") or not pre_text else "")


# ---------------------------------------------------------------------------
# Checked loading of JSON objects into dataclasses.
# ---------------------------------------------------------------------------

# the Python types json.loads yields that a declared scalar type accepts: an
# int passes as a float unchanged, and a bool never passes as a number
_SCALAR_TYPES = {str: {str}, int: {int}, float: {int, float}, bool: {bool}}


def require_keys(obj, keys, where: str, exact: bool = False) -> None:
    """Reject `obj` unless it is a JSON object holding every key of `keys`
    and, if `exact`, no other key."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: not a JSON object")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")
    unknown = obj.keys() - set(keys) if exact else ()
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def check_value(value, hint, where: str):
    """`value`, parsed from JSON, as the declared type `hint`.

    Understands scalars, `X | None`, `tuple[X, ...]` and fixed tuples
    (from lists), dataclasses (through `from_fields`), and `np.ndarray`: a
    float array from a list of numbers or of equal-length lists of
    numbers.  Raises `SchemaError` naming `where` for anything else.
    """
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = set(hint.__args__) - {type(None)}
    if hint in _SCALAR_TYPES:
        if type(value) in _SCALAR_TYPES[hint]:
            return value
    elif is_dataclass(hint):
        return from_fields(hint, value, where)
    elif hint is np.ndarray and isinstance(value, list):
        # numpy would read a bool as 0 or 1, so every element's type is checked
        rows = value if value and type(value[0]) is list else [value]
        numbers = _SCALAR_TYPES[float]
        if all(type(row) is list and numbers.issuperset(map(type, row)) for row in rows):
            try:
                return np.array(value, dtype=float)
            except ValueError:  # rows of unequal length
                pass
    elif typing.get_origin(hint) is tuple and isinstance(value, list):
        args = typing.get_args(hint)
        if args[-1] is not Ellipsis:
            if len(value) == len(args):
                return tuple(check_value(v, arg, where) for v, arg in zip(value, args))
        elif args[0] not in _SCALAR_TYPES:
            return tuple(check_value(v, args[0], where) for v in value)
        elif set(map(type, value)) <= _SCALAR_TYPES[args[0]]:  # one pass
            return tuple(value)
    name = hint.__name__ if isinstance(hint, type) else hint
    raise SchemaError(f"{where}: expected {name}, got {reprlib.repr(value)}")


@functools.cache
def _schema(cls) -> tuple[dict, tuple[str, ...], str]:
    """A dataclass's declared type per field, its fields without a
    default, and the noun naming it in messages: its name's last word."""
    hints = typing.get_type_hints(cls)
    declared = fields(cls)
    required = tuple(
        f.name for f in declared if f.default is MISSING and f.default_factory is MISSING
    )
    noun = re.findall("[A-Z][a-z]*", cls.__name__)[-1].lower()
    return {f.name: hints[f.name] for f in declared}, required, noun


def from_fields(cls, obj, where: str, partial: bool = False):
    """An instance of the dataclass `cls` from a parsed JSON object.

    Every field must be present (with `partial`, every field without a
    default), every key must name a field, and every value must fit its
    field's declared type (see `check_value`).  Raises `SchemaError`
    naming `where` and the key, or `where` and a value `cls` rejects.
    """
    hints, required, noun = _schema(cls)
    require_keys(obj, required if partial else hints, where)
    unknown = obj.keys() - hints.keys()
    if unknown:
        raise SchemaError(f"{where}: unknown {noun} keys {sorted(unknown)}")
    values = {k: check_value(v, hints[k], f"{where}, key {k!r}") for k, v in obj.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSONL load / serialize / validate.
# ---------------------------------------------------------------------------

def _parse_date(raw, where: str) -> datetime.date:
    raw = check_value(raw, str, f"{where}, field 'date'")
    try:
        return datetime.date.fromisoformat(raw)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad date {raw!r}") from exc


def _parse_labels(raw, where: str) -> dict[str, str]:
    if not isinstance(raw, dict) or not raw:
        raise SchemaError(f"{where}: field 'labels' must be a non-empty object")
    out = {}
    for task, cls in raw.items():
        if not isinstance(task, str) or not isinstance(cls, str):
            raise SchemaError(f"{where}: labels must map task name to class string")
        out[task] = cls
    return out


def _record_from_json(obj: dict, kind: str, where: str):
    if kind == "report":
        require_keys(obj, ("id", "description", "date", "labels"), where)
        if not isinstance(obj["description"], str) or not obj["description"].strip():
            raise SchemaError(f"{where}: field 'description' must be non-empty text")
        return SvReport(
            id=str(obj["id"]),
            description=obj["description"],
            date=_parse_date(obj["date"], where),
            labels=_parse_labels(obj["labels"], where),
        )
    if kind == "function":
        require_keys(obj, ("id", "lines", "vuln_idx", "date", "labels"), where)
        lines = check_value(obj["lines"], tuple[str, ...], f"{where}, field 'lines'")
        vuln = check_value(obj["vuln_idx"], tuple[int, ...], f"{where}, field 'vuln_idx'")
        if not vuln or not all(0 <= x < len(lines) for x in vuln):
            raise SchemaError(f"{where}: field 'vuln_idx' must be non-empty in-bounds indices")
        if len(set(vuln)) >= len(lines):
            raise SchemaError(f"{where}: record has no non-vulnerable line")
        return FunctionRecord(
            id=str(obj["id"]),
            lines=lines,
            vulnerable_line_indices=frozenset(vuln),
            date=_parse_date(obj["date"], where),
            labels=_parse_labels(obj["labels"], where),
        )
    if kind == "commit":
        require_keys(obj, ("id", "project", "date", "diff", "labels"), where)
        diff = check_value(obj["diff"], str, f"{where}, field 'diff'")
        try:
            changes = parse_unified_diff(diff)
        except DiffParseError as exc:
            raise SchemaError(f"{where}: field 'diff': {exc}") from exc
        if not changes:
            raise SchemaError(f"{where}: field 'diff' contains no file changes")
        return CommitRecord(
            id=str(obj["id"]),
            project=str(obj["project"]),
            date=_parse_date(obj["date"], where),
            files=tuple(changes),
            labels=_parse_labels(obj["labels"], where),
            diff_text=diff,
        )
    if kind == "post":
        require_keys(obj, ("id", "site", "title", "body", "answers", "tags", "label"), where)
        if obj["site"] not in QA_SITES:
            raise SchemaError(f"{where}: field 'site' must be one of {QA_SITES}")
        if obj["label"] not in QA_LABELS:
            raise SchemaError(f"{where}: field 'label' must be one of {QA_LABELS}")
        tags = check_value(obj["tags"], tuple[str, ...], f"{where}, field 'tags'")
        post = QaPost(
            id=str(obj["id"]),
            site=obj["site"],
            title=str(obj["title"]),
            body=str(obj["body"]),
            answers=str(obj["answers"]),
            tags=frozenset(tags),
            label=obj["label"],
        )
        if not post.word_count:
            raise SchemaError(f"{where}: post has no words")
        return post
    raise ValueError(f"unknown dataset kind {kind!r}")


def utf8_lines(path):
    """The lines of a text file; bytes that are not UTF-8 raise
    `SchemaError` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc


def load_dataset(path, kind: str) -> Dataset:
    """Load and validate a JSONL dataset of the given kind.

    Errors name the file, the 0-based record index and the offending
    field; duplicate ids are rejected.  Record order is file order.
    """
    records = []
    seen_ids: set[str] = set()
    tasks: tuple[str, ...] | None = None
    idx = 0
    for line in utf8_lines(path):
        if not line.strip():
            continue
        where = f"{path}: record {idx}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{where}: invalid JSON: {exc}") from exc
        record = _record_from_json(obj, kind, where)
        if record.id in seen_ids:
            raise SchemaError(f"{where}: duplicate id {record.id!r}")
        seen_ids.add(record.id)
        if kind != "post":
            declared = tuple(record.labels.keys())
            if tasks is None:
                tasks = declared
            elif set(declared) != set(tasks):
                raise SchemaError(
                    f"{where}: field 'labels': tasks {sorted(declared)} differ "
                    f"from declared {sorted(tasks)}"
                )
        records.append(record)
        idx += 1
    return Dataset(kind=kind, records=tuple(records), tasks=tasks or ())


def serialize_dataset(dataset: Dataset) -> str:
    """Dataset -> JSONL text; load_dataset of the result is value-identical."""
    out = []
    for rec in dataset.records:
        if dataset.kind == "report":
            obj = {
                "id": rec.id,
                "description": rec.description,
                "date": rec.date.isoformat(),
                "labels": rec.labels,
            }
        elif dataset.kind == "function":
            obj = {
                "id": rec.id,
                "lines": list(rec.lines),
                "vuln_idx": sorted(rec.vulnerable_line_indices),
                "date": rec.date.isoformat(),
                "labels": rec.labels,
            }
        elif dataset.kind == "commit":
            obj = {
                "id": rec.id,
                "project": rec.project,
                "date": rec.date.isoformat(),
                "diff": rec.diff_text,
                "labels": rec.labels,
            }
        elif dataset.kind == "post":
            obj = {
                "id": rec.id,
                "site": rec.site,
                "title": rec.title,
                "body": rec.body,
                "answers": rec.answers,
                "tags": sorted(rec.tags),
                "label": rec.label,
            }
        else:
            raise ValueError(f"unknown dataset kind {dataset.kind!r}")
        out.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(out) + ("\n" if out else "")

