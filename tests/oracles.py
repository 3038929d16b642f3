"""Independent reference implementations used only by the test suite.

Everything in this module is deliberately written in the most naive way
possible (pure-Python loops, dense algebra, finite differences) so it
shares no code path — and ideally no failure mode — with the package
under test.
"""

from __future__ import annotations

import json
import math
import re
import string
import warnings

import numpy as np


# ---------------------------------------------------------------------------
# Classification metrics, brute force.
# ---------------------------------------------------------------------------

def confusion_counts(gold, pred, labels):
    """Integer confusion matrix as a nested dict: counts[g][p]."""
    counts = {g: {p: 0 for p in labels} for g in labels}
    for g, p in zip(gold, pred):
        counts[g][p] += 1
    return counts


def metrics_oracle(gold, pred, labels=None):
    """Accuracy / per-class P,R,F1 / macro / weighted / MCC from raw loops.

    All sums are over exact ints; divisions happen last.  Zero denominators
    yield 0.0.
    """
    if labels is None:
        labels = sorted(set(gold) | set(pred))
    labels = list(labels)
    n = len(gold)
    counts = confusion_counts(gold, pred, labels)

    correct = sum(counts[c][c] for c in labels)
    accuracy = correct / n if n else 0.0

    per_class = {}
    for c in labels:
        tp = counts[c][c]
        fp = sum(counts[g][c] for g in labels) - tp
        fn = sum(counts[c][p] for p in labels) - tp
        prec = tp / (tp + fp) if (tp + fp) else 0.0
        rec = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = 2 * prec * rec / (prec + rec) if (prec + rec) else 0.0
        per_class[c] = (prec, rec, f1)

    k = len(labels)
    macro_p = sum(per_class[c][0] for c in labels) / k if k else 0.0
    macro_r = sum(per_class[c][1] for c in labels) / k if k else 0.0
    macro_f1 = sum(per_class[c][2] for c in labels) / k if k else 0.0

    support = {c: sum(counts[c].values()) for c in labels}
    tot = sum(support.values())
    if tot:
        weighted_p = sum(per_class[c][0] * support[c] for c in labels) / tot
        weighted_r = sum(per_class[c][1] * support[c] for c in labels) / tot
        weighted_f1 = sum(per_class[c][2] * support[c] for c in labels) / tot
    else:
        weighted_p = weighted_r = weighted_f1 = 0.0

    # Multiclass MCC (Gorodkin), from integer marginals.
    s = n
    c_diag = correct
    t = {c: support[c] for c in labels}                       # gold marginals
    p = {c: sum(counts[g][c] for g in labels) for c in labels}  # pred marginals
    num = c_diag * s - sum(t[c] * p[c] for c in labels)
    d1 = s * s - sum(p[c] * p[c] for c in labels)
    d2 = s * s - sum(t[c] * t[c] for c in labels)
    mcc = num / math.sqrt(d1 * d2) if d1 > 0 and d2 > 0 else 0.0

    return {
        "accuracy": accuracy,
        "per_class": per_class,
        "macro_precision": macro_p,
        "macro_recall": macro_r,
        "macro_f1": macro_f1,
        "weighted_precision": weighted_p,
        "weighted_recall": weighted_r,
        "weighted_f1": weighted_f1,
        "mcc": mcc,
    }


# ---------------------------------------------------------------------------
# Dense SVD via one-sided Jacobi rotations.
# ---------------------------------------------------------------------------

def jacobi_svd(a, sweeps=60, tol=1e-14):
    """Full SVD of a small dense matrix by one-sided Jacobi rotation.

    Orthogonalizes the columns of U = A by plane rotations accumulated
    into V.  O(sweeps * n^2 * m) — fine for the tiny matrices in tests.
    Returns (U, s, Vt) with singular values sorted descending.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    transposed = False
    if m < n:                       # one-sided Jacobi wants tall matrices
        a = a.T
        m, n = a.shape
        transposed = True

    u = a.copy()
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                alpha = 0.0
                beta = 0.0
                gamma = 0.0
                for k in range(m):
                    alpha += u[k, i] * u[k, i]
                    beta += u[k, j] * u[k, j]
                    gamma += u[k, i] * u[k, j]
                off = max(off, abs(gamma) / math.sqrt(alpha * beta) if alpha * beta > 0 else 0.0)
                if abs(gamma) <= tol * math.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                for k in range(m):
                    tmp = u[k, i]
                    u[k, i] = c * tmp - s * u[k, j]
                    u[k, j] = s * tmp + c * u[k, j]
                for k in range(n):
                    tmp = v[k, i]
                    v[k, i] = c * tmp - s * v[k, j]
                    v[k, j] = s * tmp + c * v[k, j]
        if off < tol:
            break

    sing = np.array([math.sqrt(sum(u[k, i] ** 2 for k in range(m))) for i in range(n)])
    order = np.argsort(-sing)
    sing = sing[order]
    u = u[:, order]
    v = v[:, order]
    nonzero = sing > 1e-300
    u[:, nonzero] = u[:, nonzero] / sing[nonzero]
    if transposed:
        return v, sing, u.T
    return u, sing, v.T


def rank_k_reconstruction_error(a, k):
    """Frobenius error of the best rank-k approximation, via jacobi_svd."""
    a = np.asarray(a, dtype=float)
    u, s, vt = jacobi_svd(a)
    approx = (u[:, :k] * s[:k]) @ vt[:k]
    return float(np.sqrt(((a - approx) ** 2).sum()))


# ---------------------------------------------------------------------------
# Numerical gradients.
# ---------------------------------------------------------------------------

def numerical_gradient(f, param, h=1e-5):
    """Central-difference gradient of scalar f() w.r.t. array `param`.

    Mutates entries of `param` in place while probing, restoring each.
    """
    grad = np.zeros_like(param, dtype=float)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_errors(analytic, numeric, floor=1e-8):
    """Elementwise |ga - gn| / max(floor, |ga| + |gn|)."""
    a = np.asarray(analytic, dtype=float).reshape(-1)
    n = np.asarray(numeric, dtype=float).reshape(-1)
    denom = np.maximum(floor, np.abs(a) + np.abs(n))
    return np.abs(a - n) / denom


# ---------------------------------------------------------------------------
# Centroid maintenance.
# ---------------------------------------------------------------------------

def batch_centroid(all_vectors):
    """Mean of every vector seen so far, recomputed from scratch."""
    arr = np.asarray(all_vectors, dtype=float)
    return arr.mean(axis=0)


# ---------------------------------------------------------------------------
# Char+word features, one document at a time.
# ---------------------------------------------------------------------------

def _reference_word_grams(tokens, lo, hi):
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


def reference_transform_row(model, tokens):
    """One document's (indices, values): per-document dict counting,
    tf-idf weighting and L2 norm, then the sorted non-zero items."""
    config = model.config
    word_index = model.word_vocab.index
    char_index = model.char_vocab.index
    counts = {}
    for gram in _reference_word_grams(tokens, config.word_ngram_min, config.word_ngram_max):
        col = word_index.get(gram)
        if col is not None:
            counts[col] = counts.get(col, 0.0) + 1.0
    if len(char_index):
        offset = len(word_index)
        joined = " ".join(tokens)
        lengths = {len(t) for t in char_index}
        for length in lengths:
            for i in range(len(joined) - length + 1):
                col = char_index.get(joined[i : i + length])
                if col is not None:
                    counts[offset + col] = counts.get(offset + col, 0.0) + 1.0
    if config.weighting == "tfidf" and model.idf is not None:
        counts = {i: v * float(model.idf[i]) for i, v in counts.items()}
    normalize = (
        config.weighting == "tfidf" if config.l2_normalize is None else config.l2_normalize
    )
    if normalize and counts:
        norm = math.sqrt(sum(v * v for v in counts.values()))
        if norm > 0:
            counts = {i: v / norm for i, v in counts.items()}
    items = sorted((i, v) for i, v in counts.items() if v != 0.0)
    return tuple(i for i, _ in items), tuple(float(v) for _, v in items)


def reference_stack(rows, width):
    """(indices, values) rows stacked into a CSR the way they always were."""
    from scipy import sparse

    indptr = [0]
    indices = []
    data = []
    for idx, vals in rows:
        indices.extend(idx)
        data.extend(vals)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(rows), width),
    )


def reference_char_df(docs, terms):
    """Docs whose space-joined tokens contain each term, by substring scan."""
    df = {t: 0 for t in terms}
    for tokens in docs:
        joined = " ".join(tokens)
        for term in terms:
            if term in joined:
                df[term] += 1
    return df


def reference_aggregate_json(docs, word_vocab, char_vocab, char_min, char_max, config):
    """The serialized char+word model: trimmed char terms, word terms they
    do not shadow, and smoothed idf over substring-scan char frequencies."""
    kept = set()
    for gram in char_vocab.index:
        parts = gram.split()
        if len(parts) == 1 and len(parts[0]) > 1:
            term = gram.strip()
            if char_min <= len(term) <= char_max:
                kept.add(term)
    words = sorted(t for t in word_vocab.index if t not in kept)
    chars = sorted(kept)
    idf = None
    if config.weighting == "tfidf":
        n_docs = len(docs)
        char_df = reference_char_df(docs, chars)
        dfs = [word_vocab.df.get(t, 1) for t in words] + [char_df[t] for t in chars]
        idf = [math.log((1 + n_docs) / (1 + df)) + 1.0 for df in dfs]
    cfg = dict(config.to_dict(), char_min=char_min, char_max=char_max)
    return json.dumps(
        {"config": cfg, "word_vocab": words, "char_vocab": chars, "idf": idf},
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Java-like lexing: the three character-loop lexers the one scanner
# replaced, kept verbatim as the reference for its properties.
# ---------------------------------------------------------------------------

_OPERATORS = (
    ">>>=",
    "<<=", ">>=", ">>>", "...",
    "++", "--", "==", "!=", "<=", ">=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>", "->", "::",
)
_IDENT_START = frozenset(string.ascii_letters + "_$")
_IDENT_CONT = frozenset(string.ascii_letters + string.digits + "_$")
_NUM_CONT = frozenset(string.digits + string.ascii_letters + "_.")


def tokenize_code(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            i = n if end == -1 else end + 2
            continue
        if ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote and text[j] != "\n":
                if text[j] == "\\" and j + 1 < n:
                    j += 1
                j += 1
            if j < n and text[j] == quote:
                tokens.append(text[i : j + 1])
                i = j + 1
            else:
                warnings.warn(f"unterminated {quote}-literal tokenized to end of line")
                tokens.append(text[i:j])
                i = j
            continue
        if ch in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j] in _NUM_CONT:
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(op)
                i += len(op)
                break
        else:
            tokens.append(ch)
            i += 1
    return tokens


def code_line_mask(lines):
    mask = []
    in_block = False
    for line in lines:
        has_code = False
        i = 0
        n = len(line)
        in_string = None
        while i < n:
            ch = line[i]
            if in_block:
                if ch == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if in_string is not None:
                has_code = True
                if ch == "\\" and i + 1 < n:
                    i += 2
                    continue
                if ch == in_string:
                    in_string = None
                i += 1
                continue
            if ch == "/" and i + 1 < n and line[i + 1] == "/":
                break
            if ch == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                in_string = ch
                has_code = True
                i += 1
                continue
            if not ch.isspace():
                has_code = True
            i += 1
        mask.append(has_code)
    return mask


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


def _classify_header(header):
    text = header.strip()
    for pattern, kind in _KEYWORD_KINDS:
        if pattern.search(text):
            return kind
    if "->" in text or re.search(r"\bnew\b", text):
        return None
    if _ASSIGN_EQ_RE.search(text):
        return None
    if "(" in text and _METHOD_RE.search(text):
        return "method"
    return None


def parse_scopes(source):
    """(tree, code mask); the tree is nested (kind, start, end, children)
    tuples rooted at file_root.  Raises ValueError on unbalanced braces."""
    lines = source.split("\n")
    stack = [["file_root", 1, 0, []]]
    header = []
    header_line = 0
    paren_depth = 0
    line_no = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "\n":
            line_no += 1
            i += 1
            continue
        if ch == "/" and nxt == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "/" and nxt == "*":
            i += 2
            while i < n and not (source[i] == "*" and i + 1 < n and source[i + 1] == "/"):
                if source[i] == "\n":
                    line_no += 1
                i += 1
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            i += 1
            while i < n and source[i] not in (quote, "\n"):
                if source[i] == "\\" and i + 1 < n:
                    i += 1
                i += 1
            if i < n and source[i] == quote:
                i += 1
            header.append('""')
            continue
        if ch == "{":
            kind = _classify_header("".join(header))
            start = header_line if header_line else line_no
            stack.append([kind, start, line_no, []])
            header = []
            header_line = 0
            paren_depth = 0
            i += 1
            continue
        if ch == "}":
            if len(stack) == 1:
                raise ValueError(f"unbalanced closing brace at line {line_no}")
            kind, start, _, children = stack.pop()
            if kind is None:
                stack[-1][3].extend(children)
            else:
                stack[-1][3].append((kind, start, line_no, tuple(children)))
            header = []
            header_line = 0
            paren_depth = 0
            i += 1
            continue
        if ch == ";" and paren_depth == 0:
            header = []
            header_line = 0
            i += 1
            continue
        if not ch.isspace():
            if ch == "(":
                paren_depth += 1
            elif ch == ")":
                paren_depth = max(0, paren_depth - 1)
            if not header:
                header_line = line_no
            header.append(ch)
        elif header and header[-1] != " ":
            header.append(" ")
        i += 1
    if len(stack) > 1:
        raise ValueError(f"unclosed brace opened at line {stack[-1][2]}")
    tree = ("file_root", 1, len(lines), tuple(stack[0][3]))
    return tree, code_line_mask(lines)
