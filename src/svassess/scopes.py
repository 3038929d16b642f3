"""Scope parsing for Java-like source, closest-enclosing-scope lookup
for diff hunks, and line-context builders for function-level records
(surrounding window, whole function, and a light def-use slice).

The parser is a brace matcher over the tokens of one `textprep.scan_code`,
not a grammar: literals and comments shield braces because the scanner
already lexed them, a braced block whose header names a known construct
becomes a node, and any other braced block dissolves into its parent.
Function records are lexed by one scan of their joined lines, never
line by line, so a comment or literal spanning lines is seen whole.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import FunctionRecord
from .textprep import code_line_mask, scan_lines

SCOPE_KINDS = (
    "type_decl",
    "method",
    "if_else",
    "switch",
    "loop",
    "try_catch",
    "file_root",
)

CONTEXT_MODES = (
    "vuln_only",
    "nonvuln_random",
    "nonvuln_all",
    "vuln+slice",
    "vuln+surrounding",
    "vuln+function",
)

JAVA_KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while var record true false
    null""".split()
)


@dataclass
class ScopeNode:
    kind: str
    start_line: int  # 1-based inclusive
    end_line: int
    children: list["ScopeNode"] = field(default_factory=list)

    def encloses(self, start: int, end: int) -> bool:
        return self.start_line <= start and self.end_line >= end

    def walk(self, depth: int = 0):
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


@dataclass
class ScopeTree:
    root: ScopeNode
    lines: list[str]
    code_mask: list[bool]

    def size(self, node: ScopeNode) -> int:
        """Non-blank, non-comment line count of the node's span."""
        return sum(self.code_mask[node.start_line - 1 : node.end_line])

    def nodes(self):
        return [node for node, _ in self.root.walk()]


@dataclass(frozen=True)
class ContextConfig:
    surrounding_n: int = 6

    def __post_init__(self):
        if self.surrounding_n < 0:
            raise ValueError("surrounding_n must be non-negative")


_KEYWORD_KINDS = (
    (re.compile(r"\b(class|interface|enum)\b"), "type_decl"),
    (re.compile(r"\b(if|else)\b"), "if_else"),
    (re.compile(r"\bswitch\b"), "switch"),
    (re.compile(r"\b(for|while|do)\b"), "loop"),
    (re.compile(r"\b(try|catch|finally)\b"), "try_catch"),
)
_METHOD_RE = re.compile(
    r"[A-Za-z_$][\w$]*\s*\([^;{}]*\)\s*(throws\s+[\w$.,\s<>\[\]]+)?$"
)
_ASSIGN_EQ_RE = re.compile(r"(?<![=!<>+\-*/%&|^])=(?!=)")


def _classify_header(header: str) -> str | None:
    """Scope kind for the text between the previous boundary and a '{'."""
    text = header.strip()
    for pattern, kind in _KEYWORD_KINDS:
        if pattern.search(text):
            return kind
    if "->" in text or re.search(r"\bnew\b", text):
        return None  # lambda body or anonymous/array construction
    if _ASSIGN_EQ_RE.search(text):
        return None  # array initializer
    if "(" in text and _METHOD_RE.search(text):
        return "method"
    return None


def parse_scopes(source: str) -> ScopeTree:
    """Brace-matching scope parser over one `scan_code` of the source.

    Raises on unbalanced braces, naming the offending line.
    """
    lines = source.split("\n")
    return _scope_tree(lines, *scan_lines(lines))


def _scope_tree(lines: list[str], line_tokens: list[list[str]], mask: list[bool]) -> ScopeTree:
    """Scope tree of lexed lines.  A scope's header is its tokens since the
    last boundary ('{', '}', or ';' outside parentheses) joined by spaces,
    literals shown as '""'."""
    # each frame: [kind, start_line, brace_line, children]
    stack: list[list] = [["file_root", 1, 0, []]]
    header: list[str] = []
    header_line = 0
    paren_depth = 0
    for line_no, tokens in enumerate(line_tokens, 1):
        for token in tokens:
            if token == "{":
                kind = _classify_header(" ".join(header))
                stack.append([kind, header_line if header else line_no, line_no, []])
                header = []
                paren_depth = 0
            elif token == "}":
                if len(stack) == 1:
                    raise ValueError(f"unbalanced closing brace at line {line_no}")
                kind, start, _, children = stack.pop()
                if kind is None:
                    stack[-1][3].extend(children)  # dissolve into the parent
                else:
                    stack[-1][3].append(
                        ScopeNode(kind=kind, start_line=start, end_line=line_no,
                                  children=children)
                    )
                header = []
                paren_depth = 0
            elif token == ";" and paren_depth == 0:
                # statement boundary; semicolons inside for(...) stay in the header
                header = []
            else:
                if token == "(":
                    paren_depth += 1
                elif token == ")":
                    paren_depth = max(0, paren_depth - 1)
                elif token[0] in "\"'":
                    token = '""'  # shielded literal; braces inside are gone
                if not header:
                    header_line = line_no
                header.append(token)
    if len(stack) > 1:
        raise ValueError(
            f"unclosed brace opened at line {stack[-1][2]}"
        )
    root = ScopeNode(
        kind="file_root", start_line=1, end_line=len(lines), children=stack[0][3]
    )
    return ScopeTree(root=root, lines=lines, code_mask=mask)


def extract_ces(tree: ScopeTree, hunk_start: int, hunk_end: int) -> ScopeNode:
    """Smallest scope (by code-line count) enclosing [hunk_start, hunk_end].

    Size ties go to the deepest node; the file root always qualifies as
    the last resort.
    """
    best = tree.root
    best_size = tree.size(tree.root)
    best_depth = 0
    for node, depth in tree.root.walk():
        if node.encloses(hunk_start, hunk_end):
            size = tree.size(node)
            if size < best_size or (size == best_size and depth > best_depth):
                best, best_size, best_depth = node, size, depth
    return best


def extract_commit_ces(
    tree: ScopeTree, hunk_ranges: list[tuple[int, int]]
) -> list[ScopeNode]:
    """Per-hunk closest scopes, duplicates (same span) emitted once."""
    out = []
    seen = set()
    for start, end in hunk_ranges:
        node = extract_ces(tree, start, end)
        key = (node.start_line, node.end_line, node.kind)
        if key not in seen:
            seen.add(key)
            out.append(node)
    return out


# ---------------------------------------------------------------------------
# Function-record line contexts.
# ---------------------------------------------------------------------------

def _masks(record: FunctionRecord) -> tuple[list[bool], set[int]]:
    return code_line_mask(record.lines), set(record.vulnerable_line_indices)


def surrounding_context(record: FunctionRecord, config: ContextConfig) -> set[int]:
    """Up to n code lines on each side of every vulnerable line.

    Comment, blank, and other vulnerable lines do not consume the
    budget; the window walks past them to the function's bounds.
    """
    mask, vuln = _masks(record)
    picked: set[int] = set()
    for v in vuln:
        taken = 0
        for i in range(v - 1, -1, -1):
            if taken == config.surrounding_n:
                break
            if i in vuln or not mask[i]:
                continue
            picked.add(i)
            taken += 1
        taken = 0
        for i in range(v + 1, len(record.lines)):
            if taken == config.surrounding_n:
                break
            if i in vuln or not mask[i]:
                continue
            picked.add(i)
            taken += 1
    return picked


def function_context(record: FunctionRecord) -> set[int]:
    """All non-blank, non-comment lines minus the vulnerable ones."""
    mask, vuln = _masks(record)
    return {i for i, is_code in enumerate(mask) if is_code and i not in vuln}


_ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="]
)


def _is_identifier(token: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_$][\w$]*", token)) and token not in JAVA_KEYWORDS


def line_identifiers(tokens: list[str]) -> set[str]:
    """Data identifiers of a line's tokens: skips call names, type
    positions, and keywords."""
    out = set()
    for i, tok in enumerate(tokens):
        if not _is_identifier(tok):
            continue
        nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
        if nxt == "(":
            continue  # call or declaration name
        if _is_identifier(nxt):
            continue  # type position: `String dir`
        out.add(tok)
    return out


def line_assignments(tokens: list[str]) -> set[str]:
    """Identifiers written by a line's tokens: left-hand sides of
    assignment operators, declared names, and receivers of mutator calls
    (`sb.append(...)` counts as writing sb).
    """
    out = set()
    assign_positions = [i for i, t in enumerate(tokens) if t in _ASSIGN_OPS]
    if assign_positions:
        first = assign_positions[0]
        for tok in tokens[:first]:
            if _is_identifier(tok):
                out.add(tok)
    for i, tok in enumerate(tokens):
        if (
            _is_identifier(tok)
            and i + 3 < len(tokens)
            and tokens[i + 1] == "."
            and _is_identifier(tokens[i + 2])
            and tokens[i + 3] == "("
        ):
            out.add(tok)
    # declaration without initializer: `Type name ;` / `Type name ,`
    for i, tok in enumerate(tokens):
        if not _is_identifier(tok):
            continue
        prev = tokens[i - 1] if i > 0 else ""
        nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
        if (prev == ">" or _is_identifier(prev) or prev in ("int", "long", "short",
            "byte", "char", "float", "double", "boolean", "var", "]")) and nxt in (
            ";", ",", "=", ")"):
            out.add(tok)
    return out


def defuse_slice(record: FunctionRecord) -> tuple[set[int], set[int]]:
    """Backward and forward def-use line sets around the vulnerable lines.

    Backward: earlier lines assigning identifiers the vulnerable lines
    use, plus enclosing control-structure headers.  Forward: later lines
    using identifiers the vulnerable lines write.  Both are widened by a
    single transitive pass.  No identifiers → both sets empty.
    """
    line_tokens, mask = scan_lines(record.lines)
    vuln = set(record.vulnerable_line_indices)
    used = [line_identifiers(tokens) for tokens in line_tokens]
    written = [line_assignments(tokens) for tokens in line_tokens]
    seed_ids = set().union(*(used[v] for v in vuln))
    written_ids = set().union(*(written[v] for v in vuln))
    if not seed_ids and not written_ids:
        return set(), set()
    first_vuln = min(vuln)
    last_vuln = max(vuln)
    n_lines = len(line_tokens)

    def assigning(ids: set[str]) -> set[int]:
        return {i for i in range(first_vuln) if mask[i] and written[i] & ids}

    def using(ids: set[str]) -> set[int]:
        return {i for i in range(last_vuln + 1, n_lines) if mask[i] and used[i] & ids}

    backward = assigning(seed_ids)
    forward = using(written_ids)
    # one transitive widening pass
    backward |= assigning(set().union(*(used[i] for i in backward)))
    forward |= using(set().union(*(written[i] for i in forward)))
    # headers of control scopes enclosing any vulnerable line
    try:
        tree = _scope_tree(list(record.lines), line_tokens, mask)
    except ValueError:
        tree = None
    if tree is not None:
        for node, _ in tree.root.walk():
            if node.kind in ("if_else", "switch", "loop", "try_catch"):
                for v in vuln:
                    if node.start_line <= v + 1 <= node.end_line:
                        header_idx = node.start_line - 1
                        if header_idx not in vuln and mask[header_idx]:
                            backward.add(header_idx)
                        break
    backward -= vuln
    forward -= vuln
    return backward, forward


def context_indices(
    record: FunctionRecord,
    mode: str,
    config: ContextConfig,
    seed: int = 0,
) -> tuple[list[int], list[int]]:
    """(vulnerable indices, context indices) for a mode, both sorted."""
    if mode not in CONTEXT_MODES:
        raise ValueError(f"unknown context mode {mode!r}")
    vuln_sorted = sorted(record.vulnerable_line_indices)
    if mode == "vuln_only":
        return vuln_sorted, []
    if mode == "nonvuln_all":
        return vuln_sorted, sorted(function_context(record))
    if mode == "nonvuln_random":
        pool = sorted(function_context(record))
        want = len(vuln_sorted)
        if len(pool) < want:
            warnings.warn(
                f"record {record.id}: only {len(pool)} non-vulnerable lines "
                f"for a size-matched sample of {want}; taking all"
            )
            return vuln_sorted, pool
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(pool), size=want, replace=False)
        return vuln_sorted, sorted(pool[i] for i in picked)
    if mode == "vuln+slice":
        backward, forward = defuse_slice(record)
        return vuln_sorted, sorted(backward | forward)
    if mode == "vuln+surrounding":
        return vuln_sorted, sorted(surrounding_context(record, config))
    return vuln_sorted, sorted(function_context(record))  # vuln+function


def build_input(
    record: FunctionRecord,
    mode: str,
    config: ContextConfig,
    seed: int = 0,
    double_input: bool = False,
):
    """Token sequence(s) for a record under a context mode.

    Single-input modes merge vulnerable and context lines in code order;
    with double_input=True the '+' modes return (vulnerable tokens,
    context tokens) separately.  The plain modes ('vuln_only',
    'nonvuln_*') tokenize just their own line set.
    """
    vuln_idx, ctx_idx = context_indices(record, mode, config, seed=seed)
    return input_tokens(record, mode, vuln_idx, ctx_idx, double_input)


def input_tokens(
    record: FunctionRecord,
    mode: str,
    vuln_idx: list[int],
    ctx_idx: list[int],
    double_input: bool = False,
):
    """`build_input` from the indices `context_indices` returned, so a
    caller that needs both computes the context once."""
    line_tokens = scan_lines(record.lines)[0]

    def tokens_of(indices):
        return [token for i in indices for token in line_tokens[i]]

    if mode.startswith("nonvuln"):
        return tokens_of(ctx_idx)
    if mode == "vuln_only":
        return tokens_of(vuln_idx)
    if double_input:
        return tokens_of(vuln_idx), tokens_of(ctx_idx)
    return tokens_of(sorted(set(vuln_idx) | set(ctx_idx)))
