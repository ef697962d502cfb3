"""One renderer, one body assembler, no reaching into the service.

A result-cache hit is answered from bytes the miss rendered, so a second
place that renders answers, or a second place that assembles the
``/search`` body, is a second chance for hit and miss to drift apart.
Pinned on the source, in the style of
``tests/unit/test_word_views.py::TestOneOfEach``.
"""

import ast
from pathlib import Path

import repro.serve

SERVE = Path(repro.serve.__file__).parent


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions_calling(matches):
    """``file:qualname`` of every module-level function or method under
    ``serve/`` whose body holds a call ``matches`` accepts."""
    found = []
    for path in sorted(SERVE.glob("*.py")):
        scopes = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS):
                scopes.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                scopes.extend(
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, FUNCTIONS)
                )
        found.extend(
            f"{path.name}:{name}"
            for name, scope in scopes
            if any(
                isinstance(call, ast.Call) and matches(call)
                for call in ast.walk(scope)
            )
        )
    return found


def calls(name):
    def matches(call):
        func = call.func
        return name == (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
    return matches


def test_tables_are_composed_by_the_renderer_only():
    assert functions_calling(calls("to_table")) == [
        "http.py:HttpSearchServer._render_result"
    ]
    assert functions_calling(calls("tables")) == []


def test_the_renderer_has_one_caller():
    assert functions_calling(calls("_render_result")) == [
        "http.py:HttpSearchServer._execute_request"
    ]


def test_the_search_body_is_assembled_in_one_function():
    # The loop exit and the executor path, and nobody else.
    assert functions_calling(calls("_search_body")) == [
        "http.py:HttpSearchServer._handle_search",
        "http.py:HttpSearchServer._execute_request",
    ]
    # ... and the keys that make a /search body appear in no other.
    tree = ast.parse((SERVE / "http.py").read_text())
    holders = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(inner, ast.Constant)
            and inner.value in ("store_version", "from_result_cache")
            for inner in ast.walk(node)
        )
    ]
    assert holders == ["_search_body"]


def test_the_http_tier_asks_the_service_it_does_not_reach_in():
    private = {"_results", "_lock", "_snapshot"}
    named = {
        node.attr
        for node in ast.walk(ast.parse((SERVE / "http.py").read_text()))
        if isinstance(node, ast.Attribute)
    }
    assert not named & private
