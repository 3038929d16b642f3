"""Seeded generator of Java-like commits for the benchmark.

Each commit changes one file.  The pre-source is a class of methods
whose bodies nest if/for/while/try blocks; every block body holds plain
statements only.  Hunks replace one or two statements that sit directly
in a chosen block body, with one context line on each side, so the
closest enclosing scope of each hunk is that block, known by
construction.  The generator writes the unified diff itself and keeps
the pre- and post-sources for the checks.

Labels come from a latent profile in {0, 1, 2}: the class of task t is
classes[(profile + t) % len(classes)].  The changed lines call
profile-specific helpers, so the labels are learnable from the code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from gen_reports import TASK_CLASSES

PROFILE_CALLS = (
    ("checkBounds", "clampIndex", "BOUND"),
    ("escapeHtml", "sanitizeMarkup", "MARKUP"),
    ("lockRegion", "guardThread", "MUTEX"),
)
BLOCK_HEADERS = (
    ("if_else", "if ({v} > {n}) {{"),
    ("loop", "for (int i{d} = 0; i{d} < {v}; i{d}++) {{"),
    ("loop", "while ({v} < {n}) {{"),
    ("try_catch", "try {{"),
)
VARS = ("alpha", "beta", "gamma", "delta", "total", "offset")
HELPERS = ("compute", "adjust", "combine", "scale", "merge")


@dataclass
class Scope:
    kind: str
    start: int  # 1-based line of the header
    end: int = 0  # 1-based line of the closing brace
    statements: list[int] = field(default_factory=list)  # 0-based direct body lines


@dataclass
class Commit:
    id: str
    year: int
    profile: int
    labels: dict[str, str]
    path: str
    pre: str
    post: str
    diff: str
    scopes: list[tuple[str, int, int]]  # expected closest scope per hunk, in hunk order

    def record(self) -> dict:
        return {
            "id": self.id,
            "project": "bench",
            "date": f"{self.year:04d}-{1 + int(self.id[-2:]) % 12:02d}-15",
            "diff": self.diff,
            "labels": self.labels,
        }


def labels_for(profile: int) -> dict[str, str]:
    return {
        task: classes[(profile + t) % len(classes)]
        for t, (task, classes) in enumerate(TASK_CLASSES.items())
    }


def _statement(rng: random.Random) -> str:
    v = rng.choice(VARS)
    return rng.choice((
        f"{v} = {rng.choice(HELPERS)}({rng.choice(VARS)}, {rng.randint(1, 9)});",
        f"{v} += {rng.choice(VARS)} * {rng.randint(2, 7)};",
        f'log("{rng.choice(HELPERS)} {v}");',
    ))


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: list[str] = []
        self.scopes: list[Scope] = []

    def emit(self, depth: int, text: str) -> int:
        self.lines.append("    " * depth + text)
        return len(self.lines) - 1

    def body(self, scope: Scope, depth: int, nest: int) -> None:
        rng = self.rng
        for _ in range(rng.randint(4, 6)):
            scope.statements.append(self.emit(depth, _statement(rng)))
        if nest > 0:
            for _ in range(rng.randint(1, 2)):
                self.block(depth, nest - 1)
                for _ in range(2):
                    scope.statements.append(self.emit(depth, _statement(rng)))

    def block(self, depth: int, nest: int) -> None:
        kind, header = self.rng.choice(BLOCK_HEADERS)
        text = header.format(v=self.rng.choice(VARS), n=self.rng.randint(2, 50), d=depth)
        scope = Scope(kind, self.emit(depth, text) + 1)
        self.scopes.append(scope)
        self.body(scope, depth + 1, nest)
        if kind == "try_catch":
            scope.end = self.emit(depth, "} catch (Exception e" + str(depth) + ") {") + 1
            self.emit(depth + 1, 'log("failed");')
            self.emit(depth, "}")
        else:
            scope.end = self.emit(depth, "}") + 1

    def source(self, name: str, methods: int) -> str:
        self.emit(0, f"package bench.{name.lower()};")
        self.emit(0, "")
        self.emit(0, f"public class {name} {{")
        self.emit(1, "private int total;")
        for m in range(methods):
            self.emit(1, "")
            scope = Scope("method", self.emit(1, f"public int {name[0].lower()}{name[1:]}{m}(int alpha, int beta) {{") + 1)
            self.scopes.append(scope)
            self.emit(2, "int gamma = alpha + beta;")
            self.emit(2, "int delta = 0;")
            self.emit(2, "int offset = 1;")
            self.body(scope, 2, nest=1)
            self.emit(2, "return gamma + delta;")
            scope.end = self.emit(1, "}") + 1
        self.emit(0, "}")
        return "\n".join(self.lines) + "\n"


def _hunk_text(pre: list[str], start: int, n_del: int, added: list[str], shift: int) -> tuple[str, int]:
    """One hunk with a context line on each side; returns (text, new shift)."""
    pre_start = start  # 1-based line of the leading context line
    body = [" " + pre[start - 1]]
    body += ["-" + line for line in pre[start : start + n_del]]
    body += ["+" + line for line in added]
    body.append(" " + pre[start + n_del])
    pre_len, post_len = n_del + 2, len(added) + 2
    header = f"@@ -{pre_start},{pre_len} +{pre_start + shift},{post_len} @@"
    return "\n".join([header] + body), shift + len(added) - n_del


def make_commit(rng: random.Random, cid: str, year: int) -> Commit:
    name = rng.choice(("Parser", "Session", "Buffer", "Router", "Cache")) + str(rng.randint(1, 99))
    builder = _Builder(rng)
    pre_text = builder.source(name, methods=rng.randint(2, 3))
    pre = pre_text.split("\n")[:-1]
    profile = rng.randrange(3)
    old_call, new_call, const = PROFILE_CALLS[profile]
    # pick scopes with a run of 4 direct statements: context, 1-2 changed, context
    runs = []
    for scope in builder.scopes:
        direct = set(scope.statements)
        for s in scope.statements:
            if all(s + k in direct for k in range(4)):
                runs.append((s, scope))
                break
    rng.shuffle(runs)
    chosen = sorted(runs[: rng.randint(1, 2)], key=lambda r: r[0])
    if len(chosen) == 2 and chosen[1][0] - chosen[0][0] < 5:
        chosen = chosen[:1]  # keep hunks apart so they never overlap
    edits = []
    for s, _ in chosen:
        line = pre[s + 1]
        indent = line[: len(line) - len(line.lstrip())]
        v = rng.choice(VARS)
        pre[s + 1] = f"{indent}{v} = {old_call}({v});"  # the vulnerable call
        added = [
            f"{indent}{v} = {new_call}({v}, {const});",
            f"{indent}{old_call}({v});",
        ][: rng.randint(1, 2)]
        edits.append((s + 1, rng.randint(1, 2), added))
    pre_text = "\n".join(pre) + "\n"
    post = list(pre)
    for start, n_del, added in reversed(edits):
        post[start : start + n_del] = added
    hunks, expected, shift = [], [], 0
    for (start, n_del, added), (_, scope) in zip(edits, chosen):
        text, shift = _hunk_text(pre, start, n_del, added, shift)
        hunks.append(text)
        expected.append((scope.kind, scope.start, scope.end))
    path = f"src/main/java/bench/{name}.java"
    diff = f"--- a/{path}\n+++ b/{path}\n" + "\n".join(hunks) + "\n"
    post_text = "\n".join(post) + "\n"
    return Commit(cid, year, profile, labels_for(profile), path, pre_text, post_text, diff, expected)


def make_commits(seed: int, years: range, per_year: int) -> list[Commit]:
    rng = random.Random(seed)
    return [
        make_commit(rng, f"C-{year}-{i:03d}", year)
        for year in years
        for i in range(per_year)
    ]
