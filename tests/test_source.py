"""Rules for the library's source text."""

import ast
from pathlib import Path

import retroking

SOURCES = sorted(Path(retroking.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10: no except*, no PEP 695
    # generics, nothing newer in the library, its tests or the bench harness
    paths = [
        *SOURCES,
        *sorted((ROOT / "tests").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    assert len(paths) > len(SOURCES)
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_library_holds_no_assert():
    # python -O strips assert statements, and a check written as one with them
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def _compares_with_tol(node):
    return any(
        isinstance(c, ast.Compare)
        and any(isinstance(x, ast.Name) and x.id == "TOL" for x in [c.left, *c.comparators])
        for c in ast.walk(node)
    )


def test_tolerance_verdicts_come_from_within():
    # one pass rule for every tolerance check: reporting.within, not a
    # `deviation < TOL` spelled out at each Check
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "reporting.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Check"
        and any(_compares_with_tol(arg) for arg in [*node.args, *node.keywords])
    ]
    assert SOURCES
    assert found == []


def _below_tol(node):
    """``node`` is a comparison ``x < TOL`` with bare TOL on the right."""
    return isinstance(node, ast.Compare) and any(
        isinstance(op, ast.Lt) and isinstance(right, ast.Name) and right.id == "TOL"
        for op, right in zip(node.ops, node.comparators)
    )


def test_verdicts_come_only_from_reporting():
    # outside reporting, `x < TOL` is a pass rule unless it guards a raise
    found = []
    for path in SOURCES:
        if path.name == "reporting.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        guards = {
            id(node.test)
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _below_tol(node) and id(node) not in guards
        ]
    assert SOURCES
    assert found == []


def _top_level_names(tree):
    """The functions, classes and constants a module (or a class body) defines
    at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_one_verdict_type():
    # a verdict is a reporting.Check: no other class carries a pass flag of
    # its own, as a field or as a property
    found = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and (path.name, node.name) != ("reporting.py", "Check")
        and "passed" in set(_top_level_names(node))
    ]
    assert SOURCES
    assert found == []


def test_every_definition_is_used_or_exported():
    # a top-level name that no library module loads, and that the package
    # does not hand to the bench scripts, is code that nothing needs: a name
    # in the package's export list, or read only by tests, is no use
    users = [
        *(path for path in SOURCES if path.name != "__init__.py"),
        *(path for path in sorted((ROOT / "perfbench").glob("*.py"))
          if not path.name.startswith("test_")),
    ]
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in users
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    orphans = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _top_level_names(ast.parse(path.read_text(), filename=str(path)))
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert len(users) > len(SOURCES)
    assert orphans == []


def _names_read(module, function):
    """Every name and attribute that a top-level function of ``module`` spells."""
    path = Path(retroking.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_measured_stack_reads_none_of_the_engine():
    # verify's replay checks the round engine against rounds measured and
    # collapsed at once: that stack and its sampler must not reach the
    # engine's word constants, its tables or the trio matrix they come from
    engine = {"ONE_THIRD", "TWO_THIRDS", "_round_engine", "_round_rows", "round_outcomes",
              "_map_words", "round_chunks", "_thirds", "_collapse_born", "trio_matrix"}
    found = {
        f"{module}.{function}": sorted(_names_read(module, function) & engine)
        for module, function in (("protocol", "_measured_rounds"), ("linalg", "_sample_rows"))
    }
    assert found == {"protocol._measured_rounds": [], "linalg._sample_rows": []}


def _spelled(node):
    """The names a node spells: a name, an attribute, or an imported module or name."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {*node.name.split("."), node.asname}
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def test_the_sampling_rule_is_stated_once():
    # linalg._cdf_rows is the one cdf of a probability vector: no other
    # source may build a running sum or bisect one, so no second copy of the
    # rule, or a second draw on it beside linalg._sample_rows, can drift from it
    rule = {"cumsum", "accumulate", "bisect", "bisect_right", "searchsorted"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {
            id(n)
            for f in tree.body
            if path.name == "linalg.py" and isinstance(f, ast.FunctionDef) and f.name == "_cdf_rows"
            for n in ast.walk(f)
        }
        found += [
            f"{path.name}:{node.lineno}:{name}"
            for node in ast.walk(tree)
            if id(node) not in inside
            for name in sorted(_spelled(node) & rule)
        ]
    assert any(path.name == "linalg.py" for path in SOURCES)
    assert found == []


# numpy calls that multiply arrays through BLAS (or, for integers, a loop
# that is a second spelling of the product)
BLAS_PRODUCTS = {"dot", "vdot", "matmul", "inner", "tensordot", "vecdot", "matvec", "vecmat"}
# the functions that may call numpy.linalg: each is the fallback for a stack
# or a map that fails its cheap test
LINALG_FALLBACKS = {("mub.py", "_check_densities"), ("mub.py", "probability_map_rank")}


def _loads_numpy_linalg(node):
    """``node`` spells numpy's linalg: ``np.linalg``, or an import of it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "linalg"
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.linalg") for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").startswith("numpy")
            and ("linalg" in node.module or any(a.name == "linalg" for a in node.names)))


def test_every_product_is_linalg_product():
    # linalg._product, numpy's own einsum loop, is the one product: BLAS's
    # first call of each kernel faults in its code in every process, to save
    # microseconds at these sizes.  No source spells @, a BLAS-backed numpy
    # product or einsum's optimize (which hands contractions to BLAS), and
    # numpy.linalg runs only in the two fallbacks
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        fallbacks = {
            id(n)
            for f in tree.body
            if isinstance(f, ast.FunctionDef) and (path.name, f.name) in LINALG_FALLBACKS
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where}:@")
            elif isinstance(node, ast.keyword) and node.arg == "optimize":
                found.append(f"{where}:optimize")
            elif _loads_numpy_linalg(node) and id(node) not in fallbacks:
                found.append(f"{where}:linalg")
            else:
                found += [f"{where}:{name}" for name in sorted(_spelled(node) & BLAS_PRODUCTS)]
    assert any(path.name == "linalg.py" for path in SOURCES)
    assert found == []


def test_the_cli_reads_no_round_bins():
    # round bins stay behind protocol: the cli counts, replays and reads a
    # run only through protocol.tally_rounds, so no bin crosses the module line
    engine = {"round_chunks", "round_stream", "run_round", "_round_rows", "_round_engine",
              "_map_words"}
    path = Path(retroking.__file__).parent / "cli.py"
    found = sorted(
        f"{node.lineno}:{name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _spelled(node) & engine
    )
    assert found == []


def test_the_cli_reads_no_private_name_of_protocol_or_mub():
    # protocol, brackets and mub hand the cli what it reports through public
    # calls (search-bases through brackets.search_report): their internals
    # stay theirs
    path = Path(retroking.__file__).parent / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, names = node.value.id, [node.attr]
        elif isinstance(node, ast.ImportFrom):
            module, names = node.module, [alias.name for alias in node.names]
        else:
            continue
        if module in ("protocol", "brackets", "mub"):
            found += [f"{node.lineno}:{module}.{name}" for name in names if name.startswith("_")]
    assert found == []


def test_only_the_record_base_stores_fields():
    # linalg._Record.__init__ is the one place a record stores its fields and
    # freezes its arrays: no other source spells object.__setattr__
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {
            id(n)
            for c in tree.body
            if path.name == "linalg.py" and isinstance(c, ast.ClassDef) and c.name == "_Record"
            for n in ast.walk(c)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
            and id(node) not in inside
        ]
    assert any(path.name == "linalg.py" for path in SOURCES)
    assert found == []


def test_no_library_module_imports_dataclasses():
    # records are linalg._Record subclasses: a dataclass generates and execs
    # its methods when its module is imported, ~0.7 ms a class
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.alias, ast.ImportFrom)) and "dataclasses" in _spelled(node)
    ]
    assert SOURCES
    assert found == []


# numpy's sorts, spelled as functions or as array methods
NUMPY_SORTS = {"sort", "lexsort", "argsort", "unique", "partition", "argpartition"}


def test_no_source_sorts_with_numpy():
    # the first numpy sort in a process faults in ~0.3 MB of numpy's sort
    # code (measured as certify's peak RSS), which no command needs: the
    # search orders its 648 rows as Python tuples.  No source spells a numpy
    # sort or an array's sort method; Python's sorted() is the one sort
    found = [
        f"{path.name}:{node.lineno}:{name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in sorted(_spelled(node) & NUMPY_SORTS)
    ]
    assert any(path.name == "protocol.py" for path in SOURCES)
    assert found == []


def _catches_value_error(handler):
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == "ValueError" for t in caught)


def test_only_the_array_gate_catches_value_error():
    # linalg._numbers is the one code that turns a caller's value into an
    # array, and so the one place numpy's ValueError for a ragged nest
    # becomes a ContractViolation: no other source handles a ValueError
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # handler -> its innermost function: ast.walk visits outer ones first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(h), func.name) for h in ast.walk(func)
                             if isinstance(h, ast.ExceptHandler))
        found += [
            f"{path.name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and _catches_value_error(node)
        ]
    assert found == ["linalg.py:_numbers"]


# bytes of source a library module may hold
COMPILE_BUDGET = 20_000


def test_no_module_outgrows_the_compile_budget():
    """Every fresh-checkout process compiles src (the benchmark runs with
    PYTHONDONTWRITEBYTECODE=1), and CPython frees one module's tokens, AST
    and symbol tables before it compiles the next: so the compile transient
    of the largest module sets every such process's peak, not the line
    count.  Compiled alone after numpy, the 30,372-byte protocol.py raised
    VmHWM by 1,196 kB against 384 kB for the 12,791-byte cli.py; split into
    two modules below this budget, a 3x10^4-round simulate worker peaked
    ~0.37 MB lower (BENCH_44.json: Python 3.11.7, numpy 2.4.6, 2-vCPU Xeon)."""
    found = {path.name: path.stat().st_size for path in SOURCES
             if path.stat().st_size > COMPILE_BUDGET}
    assert any(path.name == "protocol.py" for path in SOURCES)
    assert found == {}
