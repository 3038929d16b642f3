import datetime
import warnings

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svassess.corpus import FunctionRecord
from svassess.scopes import (
    ContextConfig,
    ScopeNode,
    build_input,
    context_indices,
    defuse_slice,
    extract_ces,
    extract_commit_ces,
    function_context,
    line_assignments,
    line_identifiers,
    parse_scopes,
    surrounding_context,
)
from svassess.textprep import tokenize_code

WIDGET = """public class Widget {
    private int count = 0;
    public void bump(int amount) {
        // increase the counter
        if (amount > 0) {
            count += amount;
        }
    }
}"""


def make_function(lines, vuln, labels=None):
    return FunctionRecord(
        id="fn-1",
        lines=tuple(lines),
        vulnerable_line_indices=frozenset(vuln),
        date=datetime.date(2015, 6, 1),
        labels=labels or {},
    )


BUILDER_LINES = [
    "String buildCommand(String dir) {",
    "    StringBuilder sb = new StringBuilder();",
    '    sb.append("cd ");',
    "    sb.append(dir);",
    "    return sb.toString();",
    "}",
]


def kinds_chain(tree):
    out = []
    node = tree.root
    while True:
        out.append(node.kind)
        if not node.children:
            return out
        assert len(node.children) == 1
        node = node.children[0]


def test_parse_nested_chain():
    tree = parse_scopes(WIDGET)
    assert kinds_chain(tree) == ["file_root", "type_decl", "method", "if_else"]
    type_decl = tree.root.children[0]
    method = type_decl.children[0]
    branch = method.children[0]
    assert (type_decl.start_line, type_decl.end_line) == (1, 9)
    assert (method.start_line, method.end_line) == (3, 8)
    assert (branch.start_line, branch.end_line) == (5, 7)
    # sizes skip the comment on line 4
    assert tree.size(type_decl) == 8
    assert tree.size(method) == 5
    assert tree.size(branch) == 3


def test_parse_braces_inside_strings_ignored():
    source = 'class A {\n    String s = "{{{ not a scope }";\n}'
    tree = parse_scopes(source)
    assert [n.kind for n in tree.nodes()] == ["file_root", "type_decl"]


def test_parse_top_level_statements_root_only():
    tree = parse_scopes("int a = 1;\nint b = 2;\n")
    assert tree.nodes() == [tree.root]
    assert tree.root.kind == "file_root"


def test_parse_unbalanced_braces_name_the_line():
    # the lone '}' closes the method; the class brace from line 1 stays open
    with pytest.raises(ValueError, match="line 1"):
        parse_scopes("class A {\n    void f() {\n}")
    with pytest.raises(ValueError, match="line 3"):
        parse_scopes("class A {\n}\n}")


def test_parse_unknown_blocks_dissolve_but_keep_children():
    source = (
        "class Outer {\n"
        "    static int[] TABLE = {1, 2};\n"
        "    Runnable r = () -> {\n"
        "        if (ready) {\n"
        "            go();\n"
        "        }\n"
        "    };\n"
        "}"
    )
    tree = parse_scopes(source)
    outer = tree.root.children[0]
    assert outer.kind == "type_decl"
    assert [c.kind for c in outer.children] == ["if_else"]
    assert outer.children[0].start_line == 4


def test_parse_loop_switch_try_kinds():
    source = (
        "void spin() {\n"
        "    do {\n"
        "        tick();\n"
        "    } while (busy);\n"
        "    for (int i = 0; i < 3; i++) {\n"
        "        poke(i);\n"
        "    }\n"
        "    switch (kind) {\n"
        "        case 1: { mark(); }\n"
        "    }\n"
        "    try {\n"
        "        risky();\n"
        "    } catch (Exception e) {\n"
        "        log(e);\n"
        "    } finally {\n"
        "        close();\n"
        "    }\n"
        "}"
    )
    tree = parse_scopes(source)
    method = tree.root.children[0]
    assert method.kind == "method"
    assert [c.kind for c in method.children] == [
        "loop",
        "loop",
        "switch",
        "try_catch",
        "try_catch",
        "try_catch",
    ]


def test_parse_else_branch_is_if_else_node():
    source = "void f() {\n    if (a) {\n        x();\n    } else {\n        y();\n    }\n}"
    tree = parse_scopes(source)
    method = tree.root.children[0]
    assert [c.kind for c in method.children] == ["if_else", "if_else"]


def test_ces_innermost_scope_wins():
    tree = parse_scopes(WIDGET)
    node = extract_ces(tree, 6, 6)
    assert node.kind == "if_else"


def test_ces_field_change_resolves_to_type_decl():
    tree = parse_scopes(WIDGET)
    node = extract_ces(tree, 2, 2)
    assert node.kind == "type_decl"


def test_ces_whole_file_hunk_resolves_to_root():
    tree = parse_scopes(WIDGET)
    assert extract_ces(tree, 1, 9).kind in ("file_root", "type_decl")
    assert extract_ces(tree, 1, 9).start_line == 1
    # a range past the file only fits the root fallback
    assert extract_ces(tree, 1, 40).kind == "file_root"


def test_ces_size_tie_goes_deepest():
    tree = parse_scopes("void f() { if (x) { if (y) { z(); } } }")
    # every scope spans the single line; sizes tie at 1
    node = extract_ces(tree, 1, 1)
    depths = {id(n): d for n, d in tree.root.walk()}
    assert depths[id(node)] == max(depths.values())
    assert node.kind == "if_else"


def test_ces_no_smaller_enclosing_node_exists():
    tree = parse_scopes(WIDGET)
    for hunk in [(2, 2), (5, 6), (6, 7), (3, 8), (1, 9)]:
        node = extract_ces(tree, *hunk)
        assert node.encloses(*hunk)
        for other, _ in tree.root.walk():
            if other.encloses(*hunk):
                assert tree.size(other) >= tree.size(node)


def test_commit_ces_deduplicates_spans():
    tree = parse_scopes(WIDGET)
    # the first three hunks all resolve to the same if node
    nodes = extract_commit_ces(tree, [(6, 6), (5, 7), (6, 7), (2, 2)])
    assert [n.kind for n in nodes] == ["if_else", "type_decl"]
    spans = [(n.start_line, n.end_line) for n in nodes]
    assert len(spans) == len(set(spans))


def test_surrounding_saturates_small_function():
    record = make_function(
        ["void f() {", "    int a = 1;", "    hurt(a);", "    heal();", "}"], [2]
    )
    assert surrounding_context(record, ContextConfig()) == {0, 1, 3, 4}
    assert surrounding_context(record, ContextConfig(surrounding_n=0)) == set()


def test_surrounding_window_extends_past_comments_and_blanks():
    record = make_function(
        [
            "void f() {",          # 0
            "    // setup",        # 1 comment
            "    int a = 1;",      # 2
            "",                    # 3 blank
            "    hurt(a);",        # 4 vuln
            "    // done",         # 5 comment
            "    heal();",         # 6
            "}",                   # 7
        ],
        [4],
    )
    picked = surrounding_context(record, ContextConfig(surrounding_n=2))
    assert picked == {0, 2, 6, 7}


def test_surrounding_does_not_spend_budget_on_other_vuln_lines():
    record = make_function(
        ["a();", "b();", "v1();", "v2();", "c();", "d();"], [2, 3]
    )
    picked = surrounding_context(record, ContextConfig(surrounding_n=1))
    assert picked == {1, 4}


def test_function_context_complement_identity():
    record = make_function(
        ["void f() {", "    // note", "    a();", "    b();", "}"], [2]
    )
    ctx = function_context(record)
    assert ctx == {0, 3, 4}
    huge = surrounding_context(record, ContextConfig(surrounding_n=99))
    assert huge == ctx


def test_defuse_straight_line_chain():
    record = make_function(["int x = 1;", "y = x + 1;", "use(y);"], [1])
    assert defuse_slice(record) == ({0}, {2})


def test_defuse_literal_only_vuln_is_empty():
    record = make_function(['log("boom");', 'x = 1;'], [0])
    # the only identifier-ish token is the call name, which is skipped
    assert defuse_slice(record) == (set(), set())


def test_defuse_builder_example():
    record = make_function(BUILDER_LINES, [3])
    backward, forward = defuse_slice(record)
    assert backward == {0, 1, 2}
    assert forward == {4}


def test_defuse_includes_enclosing_control_headers():
    record = make_function(
        [
            "void f(int n) {",      # 0
            "    int total = 0;",   # 1
            "    if (n > 0) {",     # 2
            "        total += n;",  # 3 vuln
            "    }",                # 4
            "    report(total);",   # 5
            "}",                    # 6
        ],
        [3],
    )
    backward, forward = defuse_slice(record)
    assert 2 in backward  # the if header
    assert 1 in backward  # total's declaration
    assert 0 in backward  # n's declaration (parameter)
    assert forward == {5}


def test_line_identifier_rules():
    assert line_identifiers(tokenize_code("sb.append(dir);")) == {"sb", "dir"}
    assert line_identifiers(tokenize_code("String dir = input;")) == {"dir", "input"}
    assert line_identifiers(tokenize_code('log("x");')) == set()
    assert line_assignments(tokenize_code("sb.append(dir);")) == {"sb"}
    assert "x" in line_assignments(tokenize_code("int x = 5;"))
    assert line_assignments(tokenize_code("if (x == y) {")) == set()
    assert "count" in line_assignments(tokenize_code("count += amount;"))


def test_context_indices_modes():
    record = make_function(BUILDER_LINES, [3])
    config = ContextConfig()
    vuln, ctx = context_indices(record, "vuln_only", config)
    assert (vuln, ctx) == ([3], [])
    _, all_ctx = context_indices(record, "nonvuln_all", config)
    assert all_ctx == [0, 1, 2, 4, 5]
    _, slice_ctx = context_indices(record, "vuln+slice", config)
    assert slice_ctx == [0, 1, 2, 4]
    with pytest.raises(ValueError):
        context_indices(record, "everything", config)


def test_nonvuln_random_is_seeded_and_size_matched():
    record = make_function(BUILDER_LINES, [3])
    config = ContextConfig()
    _, one = context_indices(record, "nonvuln_random", config, seed=1)
    _, two = context_indices(record, "nonvuln_random", config, seed=1)
    _, other = context_indices(record, "nonvuln_random", config, seed=9)
    assert one == two and len(one) == 1
    assert len(other) == 1
    assert set(one) <= {0, 1, 2, 4, 5}


def test_nonvuln_random_shortage_takes_all_with_warning():
    record = make_function(["a();", "v1();", "v2();"], [1, 2])
    with pytest.warns(UserWarning, match="taking all"):
        _, ctx = context_indices(record, "nonvuln_random", ContextConfig(), seed=0)
    assert ctx == [0]


def test_build_input_single_merges_in_code_order():
    record = make_function(BUILDER_LINES, [3])
    merged = build_input(record, "vuln+function", ContextConfig())
    flat = []
    for line in BUILDER_LINES:
        flat.extend(tokenize_code(line))
    assert merged == flat


def test_build_input_double_returns_two_sequences():
    record = make_function(BUILDER_LINES, [3])
    vuln_tokens, ctx_tokens = build_input(
        record, "vuln+surrounding", ContextConfig(), double_input=True
    )
    assert vuln_tokens[:4] == ["sb", ".", "append", "("]
    assert len(ctx_tokens) > len(vuln_tokens)
    only = build_input(record, "vuln_only", ContextConfig())
    assert only == vuln_tokens


def test_context_config_validation():
    with pytest.raises(ValueError):
        ContextConfig(surrounding_n=-1)


@settings(max_examples=40, deadline=None)
@given(
    n_lines=st.integers(3, 12),
    vuln_pos=st.integers(1, 10),
    n=st.integers(0, 5),
)
def test_property_surrounding_subset_of_function(n_lines, vuln_pos, n):
    vuln_pos = min(vuln_pos, n_lines - 2)
    lines = [f"stmt{i}(v{i});" for i in range(n_lines)]
    record = make_function(lines, [vuln_pos])
    config = ContextConfig(surrounding_n=n)
    near = surrounding_context(record, config)
    full = function_context(record)
    assert near <= full
    assert vuln_pos not in near and vuln_pos not in full
    assert len(near) <= 2 * n


def _tuples(node):
    return (node.kind, node.start_line, node.end_line, tuple(_tuples(c) for c in node.children))


def test_header_over_a_line_break_keeps_its_words_apart():
    # the header reads "public class Foo", not "public classFoo"
    tree = parse_scopes("public class\nFoo {\n  void f() {\n  }\n}")
    assert _tuples(tree.root) == (
        "file_root", 1, 5, (("type_decl", 1, 5, (("method", 3, 4, ()),)),),
    )


def test_comment_separates_header_tokens():
    assert _tuples(parse_scopes("class/**/Foo {\n}").root) == (
        "file_root", 1, 2, (("type_decl", 1, 2, ()),),
    )


def test_escaped_newline_in_literal_counts_its_line():
    tree = parse_scopes('String s = "a\\\nb";\nclass X {\n}')
    assert [(n.kind, n.start_line, n.end_line) for n in tree.nodes()] == [
        ("file_root", 1, 4), ("type_decl", 3, 4),
    ]
    assert tree.code_mask == [True, True, True, True]


def test_build_input_drops_comment_spanning_lines():
    lines = (
        "int f(int a) {",
        "  int x = a; /* note: old",
        "  value was b */ int y = x;",
        "  return y;",
        "}",
    )
    record = make_function(lines, [2])
    tokens = build_input(record, "vuln+function", ContextConfig())
    assert tokens == tokenize_code("\n".join(lines))
    assert "value" not in tokens and "was" not in tokens
    vuln, _ = build_input(record, "vuln+function", ContextConfig(), double_input=True)
    assert vuln == ["int", "y", "=", "x", ";"]


def test_defuse_slice_ignores_comment_spanning_lines():
    # "b = a;" sits inside a comment, so it assigns nothing
    record = make_function(
        ["int f(int a) {", "  /* b = a;", "  */ int c = b;", "  return c;", "}"], [2]
    )
    backward, forward = defuse_slice(record)
    assert 1 not in backward
    assert forward == {3}


# header pieces: single tokens or balanced groups, so every line's
# parentheses close and its last boundary ends every header on that line
HEADER_LEADS = [
    "class", "if", "for", "try", "public", "void", "f", "x", "@", "=",
    '"a{b;"', "'}'", '"x\\"y"', "/* { ; */",
]
HEADER_PIECES = HEADER_LEADS + [
    "interface", "else", "while", "catch", "switch", "new", "int", "throws",
    "( )", "( int a , b )", "( x == y )", "( i = 0 ; i < n ; i ++ )",
    '( "a;b" , c )', ")", "==", "<=", "->", ",", ".", "<", ">", "[ ]",
]
COMMENT_BLOCKS = [[""], ["// { ;"], ["/* a {", "  } ;", "*/"], ["x ; /* {", "*/ y ;"]]


@st.composite
def java_like_source(draw):
    lines: list[str] = []
    depth = 0
    for _ in range(draw(st.integers(0, 12))):
        step = draw(st.sampled_from(["open", "open", "statement", "close", "comment"]))
        if step == "comment":
            lines += draw(st.sampled_from(COMMENT_BLOCKS))
            continue
        if step == "close" and (depth or draw(st.integers(0, 9)) == 0):
            depth -= 1
            lines.append(draw(st.sampled_from(["}", "} /* ; */", "*/ }"])))
            continue
        pieces = [draw(st.sampled_from(HEADER_LEADS))]
        pieces += draw(st.lists(st.sampled_from(HEADER_PIECES), max_size=4))
        if step == "open":
            depth += 1
            pieces.append(draw(st.sampled_from(["{", "{ // }"])))
        else:
            pieces.append(draw(st.sampled_from([";", "; // {"])))
        lines.append(draw(st.sampled_from(["", "  ", "\t"])) + " ".join(pieces))
    lines += ["}"] * max(depth, 0)
    return "\n".join(lines)


def _scopes_or_error(parse, source):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return parse(source)
        except ValueError as exc:
            return str(exc)


@settings(max_examples=300, deadline=None)
@given(java_like_source())
def test_property_parse_scopes_matches_reference(source):
    # headers sit on one line and no literal holds an escaped newline;
    # mostly balanced, sometimes a stray closing brace
    ours = _scopes_or_error(parse_scopes, source)
    expected = _scopes_or_error(oracles.parse_scopes, source)
    if isinstance(ours, str):
        assert ours == expected
    else:
        assert (_tuples(ours.root), ours.code_mask) == expected
