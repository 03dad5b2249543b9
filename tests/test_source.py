"""Invariants of the package source itself, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tima"
MODULES = sorted(SRC.rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_is_found():
    # an empty parametrization below would pass without checking anything
    assert SRC / "files.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_runtime_contract_relies_on_assert(path):
    # `python -O` strips assert statements: a check must raise a TimaError
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "files.py"],
                         ids=lambda p: p.name)
def test_files_are_opened_and_directories_made_in_tima_files_only(path):
    def opens_or_makes(call):
        f = call.func
        return ((isinstance(f, ast.Name) and f.id == "open")
                or (isinstance(f, ast.Attribute) and f.attr in ("open", "mkdir")))

    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and opens_or_makes(node)]
    assert lines == [], f"{path.name} opens a file or makes a directory on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "attacks.py"],
                         ids=lambda p: p.name)
def test_score_batch_is_named_in_tima_attacks_only(path):
    # scored_passes alone cuts a dataset into seeded SCORE_BATCH-row jobs
    lines = [node.lineno for node in ast.walk(_tree(path))
             if (isinstance(node, ast.Name) and node.id == "SCORE_BATCH")
             or (isinstance(node, ast.Attribute) and node.attr == "SCORE_BATCH")
             or (isinstance(node, ast.alias) and node.name == "SCORE_BATCH")]
    assert lines == [], f"{path.name} names SCORE_BATCH on lines {lines}"


def _calls_by_function(name):
    """(module, innermost enclosing function) of every call of ``name``, by
    bare name or as an attribute, in the package source."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == name) or \
                    (isinstance(f, ast.Attribute) and f.attr == name):
                found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in MODULES:
        visit(_tree(path), path.name, None)
    return found


def _function(path, name):
    [node] = [node for node in ast.walk(_tree(path))
              if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_one_pgd_step_loop():
    # attacks._advance alone takes the attack's input gradient: pgd_steps and
    # pgd_grid hand their runs to it, and pgd_steps steps nothing itself
    assert _calls_by_function("_ce_input_grad") == [("attacks.py", "_advance")]
    grid = _function(SRC / "attacks.py", "pgd_grid")
    assert [node.lineno for node in ast.walk(grid)
            if (isinstance(node, ast.Name) and node.id == "pgd_steps")
            or (isinstance(node, ast.Attribute) and node.attr == "pgd_steps")] == []
    steps = _function(SRC / "attacks.py", "pgd_steps")
    assert [node.lineno for node in ast.walk(steps)
            if isinstance(node, (ast.For, ast.While, ast.comprehension))] == []


def test_one_cell_loop():
    # harness._run_claimed alone claims cells: run_cells's caller and each of
    # its forked children run that one loop
    assert set(_calls_by_function("_claim")) == {("harness.py", "_run_claimed")}
    assert {function for _, function in _calls_by_function("_run_claimed")} == {"run_cells"}


def test_no_module_calls_backward():
    # both training losses return their gradients in closed form: the tape's
    # backward is for the tests' reference compositions and the benchmark
    assert _calls_by_function("backward") == []


def test_no_command_builds_an_encoder_node():
    # scoring, the attack and training read image_forward and text_forward;
    # the two tape wrappers serve the tests and the benchmark. The teacher's
    # encode_images is TeacherSnapshot's plain-array forward.
    assert _calls_by_function("encode_classes") == []
    assert _calls_by_function("encode_images") == [("losses.py", "teacher_targets")]


def _is_255(node):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 255


def _is_literal_fraction(node):
    # 1 / 255: a constant, such as an ε default, not a conversion
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Constant) and _is_255(node.right))


def _turns_codes_into_pixels(node):
    """A division of a value by 255, in any spelling, or a product with 1/255."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return _is_255(node.right) and not isinstance(node.left, ast.Constant)
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
        return _is_255(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _is_literal_fraction(node.left) or _is_literal_fraction(node.right)
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        return name in ("divide", "true_divide") and any(_is_255(a) for a in node.args)
    return False


def test_pixels_are_widened_by_tima_data_pixels_only():
    # a dataset holds 8-bit codes; data.pixels alone divides them by 255, so
    # every step reads the generator's exact values and none holds a float64
    # copy of a whole dataset
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _turns_codes_into_pixels(node):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in MODULES:
        visit(_tree(path), path.name, None)
    assert found == [("data.py", "pixels")]


def test_eps_texts_are_parsed_in_tima_config_only():
    # parse_config turns each ε text into its (text, value) pair once;
    # commands read the pairs and never parse a fraction themselves
    assert {module for module, _ in _calls_by_function("parse_fraction")} == {"config.py"}


# the numeric kernels every training and PGD step runs reduce through the
# ufunc's ``reduce`` or the array method: np.sum and the like add a Python
# wrapper frame per call that costs more than the reduction on a batch
KERNEL_MODULES = ("tensor.py", "model.py", "losses.py", "attacks.py")
WRAPPED_REDUCTIONS = {"sum", "max", "min", "any", "all", "mean"}


@pytest.mark.parametrize("name", KERNEL_MODULES)
def test_kernels_call_no_wrapped_numpy_reduction(name):
    lines = [node.lineno for node in ast.walk(_tree(SRC / name))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in WRAPPED_REDUCTIONS
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]
    assert lines == [], f"{name} calls a wrapped numpy reduction on lines {lines}"
