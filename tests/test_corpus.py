import datetime
import difflib
import json
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svassess.corpus import (
    CVSS_TASKS,
    CommitRecord,
    DiffParseError,
    Hunk,
    QaPost,
    SchemaError,
    SvReport,
    apply_hunks,
    from_fields,
    load_dataset,
    parse_unified_diff,
    serialize_dataset,
)

SINGLE_HUNK_DIFF = """\
--- a/src/Shell.java
+++ b/src/Shell.java
@@ -4,7 +4,7 @@
 StringBuilder cmd = new StringBuilder();
 cmd.append("run");
 cmd.append(separator);
-cmd.append(escapeArg(target));
+cmd.append(quoteArg(target, false));
 cmd.append(separator);
 return cmd.toString();
 }
"""


def test_parse_single_hunk_diff():
    changes = parse_unified_diff(SINGLE_HUNK_DIFF)
    assert len(changes) == 1
    change = changes[0]
    assert change.path == "src/Shell.java"
    assert len(change.hunks) == 1
    hunk = change.hunks[0]
    assert hunk.deleted == ("cmd.append(escapeArg(target));",)
    assert hunk.added == ("cmd.append(quoteArg(target, false));",)
    assert (hunk.pre_start, hunk.pre_len) == (4, 7)


def test_parse_zero_hunk_file_header():
    changes = parse_unified_diff("--- a/x.java\n+++ b/x.java\n")
    assert len(changes) == 1
    assert changes[0].hunks == ()


def test_parse_two_files_in_header_order():
    text = (
        "--- a/first.java\n+++ b/first.java\n"
        "@@ -1 +1 @@\n-old;\n+new;\n"
        "--- a/second.java\n+++ b/second.java\n"
        "@@ -2 +2 @@\n-x;\n+y;\n"
    )
    changes = parse_unified_diff(text)
    assert [c.path for c in changes] == ["first.java", "second.java"]
    assert all(len(c.hunks) == 1 for c in changes)


def test_parse_malformed_hunk_header_names_line():
    text = "--- a/x\n+++ b/x\n@@ busted @@\n"
    with pytest.raises(DiffParseError, match="line 3"):
        parse_unified_diff(text)


def test_parse_length_mismatch_is_structural_error():
    text = "--- a/x\n+++ b/x\n@@ -1,3 +1,3 @@\n-only;\n+one;\n"
    with pytest.raises(DiffParseError, match="declared lengths"):
        parse_unified_diff(text)


def test_parse_context_only_hunk_rejected():
    text = "--- a/x\n+++ b/x\n@@ -1,2 +1,2 @@\n a;\n b;\n"
    with pytest.raises(DiffParseError, match="no deleted or added"):
        parse_unified_diff(text)


def test_parse_unknown_line_rejected():
    text = "--- a/x\n+++ b/x\nwat\n"
    with pytest.raises(DiffParseError, match="line 3"):
        parse_unified_diff(text)


def test_parse_tolerates_git_metadata_and_no_newline_marker():
    text = (
        "diff --git a/x b/x\n"
        "index 111..222 100644\n"
        "--- a/x\n+++ b/x\n"
        "@@ -1 +1 @@\n-a\n+b\n\\ No newline at end of file\n"
    )
    changes = parse_unified_diff(text)
    assert changes[0].hunks[0].added == ("b",)


def test_apply_hunks_reconstructs_post_file():
    pre = "keep\nold\nkeep2\n"
    text = "--- a/x\n+++ b/x\n@@ -1,3 +1,3 @@\n keep\n-old\n+new\n keep2\n"
    hunks = parse_unified_diff(text)[0].hunks
    assert apply_hunks(pre, hunks) == "keep\nnew\nkeep2\n"


_LINE_POOL = ["alpha;", "beta();", "gamma = 1;", "", "delta{", "}", "eps += 2;"]


@settings(max_examples=150)
@given(
    st.lists(st.sampled_from(_LINE_POOL), max_size=20),
    st.lists(st.sampled_from(_LINE_POOL), max_size=20),
)
def test_diff_round_trip_against_difflib(pre_lines, post_lines):
    # generated diffs (stdlib) must parse and re-apply to the post-file
    diff_lines = list(
        difflib.unified_diff(pre_lines, post_lines, "a/f", "b/f", lineterm="")
    )
    if not diff_lines:
        return
    changes = parse_unified_diff("\n".join(diff_lines) + "\n")
    assert len(changes) == 1
    pre_text = "".join(line + "\n" for line in pre_lines)
    post_text = "".join(line + "\n" for line in post_lines)
    assert apply_hunks(pre_text, changes[0].hunks) == post_text


def _report_line(rid="CVE-1", description="A buffer overflow.", date="2015-03-01"):
    labels = {task: "Partial" for task in CVSS_TASKS}
    return json.dumps(
        {"id": rid, "description": description, "date": date, "labels": labels}
    )


def test_load_report_dataset(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(_report_line() + "\n")
    ds = load_dataset(path, "report")
    assert len(ds) == 1
    rec = ds.records[0]
    assert isinstance(rec, SvReport)
    assert rec.date == datetime.date(2015, 3, 1)
    assert set(ds.tasks) == set(CVSS_TASKS)


def test_load_missing_field_names_record_and_field(tmp_path):
    path = tmp_path / "r.jsonl"
    obj = json.loads(_report_line())
    del obj["description"]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: record 0: .*description"):
        load_dataset(path, "report")


def test_load_duplicate_id_rejected(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(_report_line() + "\n" + _report_line() + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: record 1: duplicate id"):
        load_dataset(path, "report")


def test_load_inconsistent_tasks_rejected(tmp_path):
    path = tmp_path / "r.jsonl"
    second = json.loads(_report_line(rid="CVE-2"))
    second["labels"] = {"Severity": "High"}
    path.write_text(_report_line() + "\n" + json.dumps(second) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: record 1: "):
        load_dataset(path, "report")


def test_load_commit_parses_embedded_diff(tmp_path):
    path = tmp_path / "c.jsonl"
    obj = {
        "id": "c1",
        "project": "shellutil",
        "date": "2016-07-02",
        "diff": SINGLE_HUNK_DIFF,
        "labels": {task: "Low" for task in CVSS_TASKS},
    }
    path.write_text(json.dumps(obj) + "\n")
    ds = load_dataset(path, "commit")
    rec = ds.records[0]
    assert isinstance(rec, CommitRecord)
    assert rec.files[0].path == "src/Shell.java"
    assert rec.diff_text == SINGLE_HUNK_DIFF


def test_load_function_checks_vuln_indices(tmp_path):
    path = tmp_path / "f.jsonl"
    obj = {
        "id": "f1",
        "lines": ["int a;", "use(a);"],
        "vuln_idx": [5],
        "date": "2014-01-01",
        "labels": {"Severity": "High"},
    }
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: record 0: .*vuln_idx"):
        load_dataset(path, "function")


def test_load_function_requires_nonvuln_line(tmp_path):
    path = tmp_path / "f.jsonl"
    obj = {
        "id": "f1",
        "lines": ["bad();"],
        "vuln_idx": [0],
        "date": "2014-01-01",
        "labels": {"Severity": "High"},
    }
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: record 0: .*non-vulnerable"):
        load_dataset(path, "function")


def test_load_post_dataset(tmp_path):
    path = tmp_path / "p.jsonl"
    obj = {
        "id": "q1",
        "site": "SO",
        "title": "How to avoid SQL injection?",
        "body": "Using string concat for queries.",
        "answers": "Use prepared statements.",
        "tags": ["sql", "security"],
        "label": "positive",
    }
    path.write_text(json.dumps(obj) + "\n")
    ds = load_dataset(path, "post")
    post = ds.records[0]
    assert isinstance(post, QaPost)
    assert post.word_count == len(
        "How to avoid SQL injection? Using string concat for queries. "
        "Use prepared statements.".split()
    )
    assert post.site == "SO"


def test_load_post_rejects_bad_site(tmp_path):
    path = tmp_path / "p.jsonl"
    obj = {
        "id": "q1", "site": "reddit", "title": "t", "body": "b",
        "answers": "", "tags": [], "label": "positive",
    }
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: record 0: .*site"):
        load_dataset(path, "post")


def test_load_post_rejects_post_without_words(tmp_path):
    path = tmp_path / "p.jsonl"
    good = {
        "id": "q1", "site": "SO", "title": "t", "body": "b",
        "answers": "", "tags": [], "label": "positive",
    }
    empty = {**good, "id": "q2", "title": " ", "body": "\n", "answers": ""}
    path.write_text(json.dumps(good) + "\n" + json.dumps(empty) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: record 1: post has no words$"):
        load_dataset(path, "post")


@pytest.mark.parametrize("kind", ["report", "function", "commit", "post"])
def test_serialize_round_trip(tmp_path, kind):
    if kind == "report":
        line = _report_line()
    elif kind == "function":
        line = json.dumps(
            {
                "id": "f1",
                "lines": ["int a = read();", "sink(a);", "return;"],
                "vuln_idx": [1],
                "date": "2013-05-05",
                "labels": {"Severity": "Medium"},
            }
        )
    elif kind == "commit":
        line = json.dumps(
            {
                "id": "c1",
                "project": "p",
                "date": "2016-07-02",
                "diff": SINGLE_HUNK_DIFF,
                "labels": {"Severity": "Low"},
            }
        )
    else:
        line = json.dumps(
            {
                "id": "q1", "site": "SSE", "title": "t", "body": "b c",
                "answers": "d", "tags": ["x"], "label": "unlabeled",
            }
        )
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n")
    ds = load_dataset(path, kind)
    path2 = tmp_path / "d2.jsonl"
    path2.write_text(serialize_dataset(ds))
    assert load_dataset(path2, kind) == ds


def test_hunk_pre_range():
    hunk = Hunk(4, 7, 4, 7, ((" ", "x"),) * 6 + (("-", "y"), ("+", "z")))
    assert hunk.pre_range() == (4, 10)
    insertion = Hunk(0, 0, 1, 1, (("+", "new"),))
    assert insertion.pre_range() == (1, 1)


@dataclass(frozen=True)
class Sample:
    name: str
    weight: float = 1.0
    tags: tuple[str, ...] = ()
    rows: np.ndarray | None = None


def test_from_fields_converts_lists_and_keeps_ints():
    sample = from_fields(
        Sample, {"name": "a", "weight": 2, "tags": ["x"], "rows": [[1, 2.5]]}, "w"
    )
    assert sample.tags == ("x",) and type(sample.weight) is int
    assert sample.rows.dtype == float and sample.rows.tolist() == [[1.0, 2.5]]
    assert from_fields(Sample, {"name": "a"}, "w", partial=True) == Sample("a")


FULL_SAMPLE = {"name": "a", "weight": 1.0, "tags": [], "rows": None}


@pytest.mark.parametrize(
    "obj,message",
    [
        (["a"], "w: not a JSON object"),
        ({"name": "a"}, "w: missing key 'weight'"),
        ({**FULL_SAMPLE, "size": 1}, "w: unknown sample keys ['size']"),
        ({**FULL_SAMPLE, "name": 1}, "w, key 'name': expected str"),
        ({**FULL_SAMPLE, "weight": True}, "w, key 'weight': expected float"),
        ({**FULL_SAMPLE, "weight": "1"}, "w, key 'weight': expected float"),
        ({**FULL_SAMPLE, "tags": ["x", 1]}, "w, key 'tags': expected tuple"),
        ({**FULL_SAMPLE, "tags": "x"}, "w, key 'tags': expected tuple"),
        ({**FULL_SAMPLE, "rows": [[1.0, True]]}, "w, key 'rows': expected ndarray"),
        ({**FULL_SAMPLE, "rows": [[1.0], [1.0, 2.0]]}, "w, key 'rows': expected ndarray"),
        ({**FULL_SAMPLE, "rows": [[[1.0]]]}, "w, key 'rows': expected ndarray"),
        ({**FULL_SAMPLE, "rows": ["x"]}, "w, key 'rows': expected ndarray"),
    ],
)
def test_from_fields_rejects_naming_the_key(obj, message):
    with pytest.raises(SchemaError) as info:
        from_fields(Sample, obj, "w")
    assert str(info.value).startswith(message)
