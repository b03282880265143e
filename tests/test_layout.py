"""The package holds what its commands run: every top-level function and
class and every method of `src/elldens` is referenced from `src/` or
`bench/`, or named in the README as public API.  Point blocks are built in
`base` and walked in `density` alone, and a form's term rows are read in
`sections` alone.  The exhaustive fiber scan reads nothing of the closed
form it checks.  Jets have one format, index arrays with no per-form
class, and the singular scan alone builds witnesses."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions(package: Path):
    """(module.qualified name, bare name, node) for each top-level function
    and class, and each method that is not a dunder."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name, sub


def _names_in(tree: ast.AST):
    """Each Name and Attribute node under `tree`, with the name it reads;
    docstrings and comments hold none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _names_read(path: Path):
    """Each Name and Attribute node of one file, with the name it reads."""
    return _names_in(ast.parse(path.read_text()))


def _references(dirs) -> list[tuple[str, ast.AST]]:
    """Each Name and Attribute node under the directories, with the name it
    reads."""
    return [ref for d in dirs for path in sorted(d.rglob("*.py")) for ref in _names_read(path)]


def _readme_names(readme: Path) -> set[str]:
    """Every identifier inside an inline backtick span of the README (its
    fenced blocks hold commands, and their fences would pair the spans
    wrongly)."""
    text = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def unreferenced(root: Path) -> list[str]:
    """The definitions of `root/src/elldens` that no node in `root/src` or
    `root/bench` references outside the definition itself and that the
    README does not name."""
    refs = _references([root / "src", root / "bench"])
    public = _readme_names(root / "README.md")
    out = []
    for qual, name, node in _definitions(root / "src" / "elldens"):
        inside = {id(n) for n in ast.walk(node)}
        if name in public or any(r == name and id(n) not in inside for r, n in refs):
            continue
        out.append(qual)
    return out


def test_every_definition_is_run_or_public():
    assert unreferenced(ROOT) == []


def readers(root: Path, owners: tuple[str, ...], names: tuple[str, ...]) -> list[str]:
    """module.name for each read of one of `names` in a module of
    `src/elldens` other than the `owners`."""
    return [f"{path.stem}.{name}"
            for path in sorted((root / "src" / "elldens").glob("*.py"))
            if path.stem not in owners
            for name, _ in _names_read(path)
            if name in names]


def test_only_density_takes_passes_over_point_blocks():
    # point blocks are built in `base` and walked in `density`; every other
    # module answers for a batch of jets or for a datum
    assert readers(ROOT, ("base", "density"), ("scan_blocks", "jet_at", "jet_space_map")) == []


def test_only_sections_reads_term_rows():
    # every other module reads forms through Section's methods, so the
    # term format can change in one module
    assert readers(ROOT, ("sections",), ("exponents", "coefficients")) == []


def test_the_fiber_scan_reads_nothing_of_the_closed_form():
    # the exhaustive oracle stays independent of the detector it checks: no
    # candidate, value stage, value table or discriminant; density alone calls it
    weier = ast.parse((ROOT / "src" / "elldens" / "weier.py").read_text())
    [oracle] = [node for node in weier.body
                if isinstance(node, ast.FunctionDef) and node.name == "singular_jets_oracle"]
    closed_form = {"_candidate", "_value_stage", "value_keys", "value_table", "_value_tables",
                   "ValueTable", "singular_jets_closed_form", "delta_vanishes",
                   "discriminant_value"}
    assert sorted(closed_form.intersection(name for name, _ in _names_in(oracle))) == []
    assert readers(ROOT, ("density",), ("singular_jets_oracle",)) == []


def builders(root: Path, cls: str) -> list[str]:
    """module.name for each top-level statement of `src/elldens` that calls
    `cls` (a definition's name, or the statement's type)."""
    return [f"{path.stem}.{getattr(node, 'name', type(node).__name__)}"
            for path in sorted((root / "src" / "elldens").glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if any(isinstance(call, ast.Call) and cls in (getattr(call.func, "id", None),
                                                          getattr(call.func, "attr", None))
                   for call in ast.walk(node))]


def test_one_jet_format_and_only_the_singular_scan_builds_witnesses():
    # jets are the index arrays of `WeierstrassJets` from `jet_at` to the
    # witness, with no per-form class; both detectors take batches, and a
    # scan witness alone holds one lane's jets
    assert [qual for qual, name, _ in _definitions(ROOT / "src" / "elldens")
            if name == "Jet"] == []
    assert builders(ROOT, "SingularityWitness") == ["density.singular_scan"]
