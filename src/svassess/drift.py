"""Vocabulary-drift diagnostics: first-appearance term counts per year,
records that map to all-zero feature vectors, and char-model coverage.

A "term" here is a preprocessed word unigram; documents arrive as
(record id, year, tokens) triples or as token lists with separate dates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .features import FeatureModel, NlpConfig, fit_configs, transform_many


@dataclass
class DriftReport:
    new_terms: dict[int, int]  # year -> count of terms first seen that year
    all_zero_ids: list[str]
    coverage_by_year: dict[int, float]

    def to_json(self) -> str:
        return json.dumps(
            {
                "new_terms": {str(y): c for y, c in sorted(self.new_terms.items())},
                "all_zero_ids": list(self.all_zero_ids),
                "coverage_by_year": {
                    str(y): c for y, c in sorted(self.coverage_by_year.items())
                },
            },
            sort_keys=True,
        )

    def new_terms_csv(self) -> str:
        lines = ["year,new_terms"]
        lines.extend(f"{y},{c}" for y, c in sorted(self.new_terms.items()))
        return "\n".join(lines) + "\n"


def new_terms_by_year(dated_docs: list[tuple[int, list[str]]]) -> dict[int, int]:
    """Count distinct terms whose earliest year is y, for each year after
    the corpus's first.  A term re-appearing later is never recounted.
    """
    first_seen: dict[str, int] = {}
    years = set()
    for year, tokens in dated_docs:
        years.add(year)
        for term in tokens:
            if term not in first_seen or year < first_seen[term]:
                first_seen[term] = year
    if not years:
        return {}
    start = min(years)
    counts = {y: 0 for y in sorted(years) if y > start}
    for year in first_seen.values():
        if year > start:
            counts[year] += 1
    return counts


def _support(matrix) -> np.ndarray:
    """Non-zero feature count of each row of a CSR matrix."""
    return np.diff(matrix.indptr)


def _row_support(model: FeatureModel, docs: list[list[str]]) -> np.ndarray:
    """Non-zero feature count of each doc's transformed row."""
    return _support(transform_many(model, docs))


def _coverage(support) -> float:
    if not len(support):
        raise ValueError("coverage of an empty doc list is undefined")
    return sum(1 for n in support if n) / len(support)


def find_all_zero_cases(
    model: FeatureModel, docs: list[tuple[str, list[str]]]
) -> list[str]:
    """Ids of docs whose transformed vector has empty support."""
    support = _row_support(model, [tokens for _, tokens in docs])
    return [rid for (rid, _), n in zip(docs, support) if n == 0]


def char_coverage(model: FeatureModel, docs: list[list[str]]) -> float:
    """Fraction of docs with at least one non-zero feature."""
    return _coverage(_row_support(model, docs))


def drift_report(
    dated_docs: list[tuple[str, int, list[str]]], support
) -> DriftReport:
    """Full diagnostic over (id, year, tokens) triples, given each doc's
    non-zero feature count under the model (`support`, in doc order)."""
    if len(support) != len(dated_docs):
        raise ValueError(
            f"support has {len(support)} entries for {len(dated_docs)} docs"
        )
    new_terms = new_terms_by_year([(year, tokens) for _, year, tokens in dated_docs])
    all_zero = [rid for (rid, _, _), n in zip(dated_docs, support) if n == 0]
    by_year: dict[int, list[int]] = {}
    for (_, year, _), n in zip(dated_docs, support):
        by_year.setdefault(year, []).append(n)
    coverage = {year: _coverage(ns) for year, ns in sorted(by_year.items())}
    return DriftReport(
        new_terms=new_terms, all_zero_ids=all_zero, coverage_by_year=coverage
    )


def drift_report_fitted(
    dated_docs: list[tuple[str, int, list[str]]], nlp_config: NlpConfig
) -> DriftReport:
    """`drift_report` under `nlp_config` fitted on every year but the last
    (on every year of a single-year corpus: no held-out year to contrast).
    The last year is the fit's validation docs, so each record's support
    is read off the two matrices of one `fit_configs` pass."""
    years = np.array([year for _, year, _ in dated_docs])
    held_out = years == years.max()
    if held_out.all():
        held_out[:] = False
    docs = [tokens for _, _, tokens in dated_docs]
    fitted = next(
        fit_configs(
            [d for d, h in zip(docs, held_out) if not h],
            [nlp_config],
            [d for d, h in zip(docs, held_out) if h],
        )
    )
    if isinstance(fitted, ValueError):
        raise fitted
    _, fit_matrix, held_out_matrix = fitted
    support = np.empty(len(docs), dtype=np.int64)
    support[~held_out] = _support(fit_matrix)
    support[held_out] = _support(held_out_matrix)
    return drift_report(dated_docs, support)
