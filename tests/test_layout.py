"""The package holds what its commands run: every top-level function and
class and every method of `src/elldens` is referenced from `src/` or
`bench/`, or named in the README as public API.  Point blocks are built in
`base` and walked in `density` alone, and a form's term rows are read in
`sections` alone."""
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


def _names_read(path: Path):
    """Each Name and Attribute node of one file, with the name it reads;
    docstrings and comments hold none."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


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
