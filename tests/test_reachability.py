"""Every function and method in the package runs under a small set of CLI jobs, or is named here.

The jobs cover every subcommand in both formats, and --config and --tol
once, through cli.main under sys.setprofile. A definition counts as
entered when a frame of its code object starts; code objects are matched
to the defs in the source by file and first line (a decorated def's code
starts at its first decorator). A definition that no job enters is dead
code, unless it is on NOT_ENTERED with its reason.
"""

import ast
import sys
from pathlib import Path

import wigner_nonstd
from wigner_nonstd import cli

NOT_ENTERED = {
    # per-entry oracles, called only by the tests that check the tensor routes
    "nonstandard.overlap",
    "nonstandard._direct_sum",
    "nonstandard.cg_nonstandard",
    "nonstandard.fbar",
    "nonstandard.f_small",
    "nonstandard.AlphaLabel.turns",
    "su2gen.diagonal_multiplet_indices",
    # printing dunders, for a reader at the prompt
    "halfint.HalfInt.__repr__",
    "nonstandard.AlphaLabel.__str__",
    "su2gen.ResidualReport.__str__",
    # runs once per suite at import, as its decorator
    "verify._suite",
    # runs once per alpha tensor at import, as its decorator
    "nonstandard._cache_on_reuse",
    # called before the jobs start, to empty the caches
    "nonstandard._cache_on_reuse.cache_clear",
    # read by the benchmark's sweep
    "su2gen.ResidualReport.worst",
}


def _jobs(tmp_path: Path) -> list[list[str]]:
    config = tmp_path / "job.conf"
    config.write_text("j1 = 1/2\nj2 = 1\nr = 0,1/3\n", encoding="utf-8")
    jobs = [
        ["tabulate-cg", "--config", str(config)],
        ["tabulate-fbar", "--j1", "1", "--j2", "1/2", "--j3", "1/2", "--r=-5/3"],
        ["tabulate-standard", "--symbol", "cg", "--j1", "1", "--j2", "1/2", "--j", "3/2"],
        ["tabulate-standard", "--symbol", "threejm", "--j1", "1", "--j2", "1", "--j3", "1"],
        ["tabulate-standard", "--symbol", "sixj", "--labels", "1,1,1,1/2,1/2,1/2"],
        ["export-ops", "--j", "3/2", "--r=0.37"],
        ["verify", "--j-max", "1/2", "--k", "2", "--r", "0", "--tol", "1e-9"],
    ]
    # JSON to stdout, CSV to a file
    return [*jobs, *([*job, "--format", "csv", "--output", str(tmp_path / f"{n}.csv")]
                     for n, job in enumerate(jobs))]


def _definitions() -> dict[tuple[str, int], str]:
    """module.qualname of every def in the package, by (file, first line of its code object)."""
    found = {}

    def visit(node: ast.AST, filename: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[filename, first] = prefix + child.name
                visit(child, filename, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, filename, prefix + child.name + ".")
            else:
                visit(child, filename, prefix)

    for path in Path(wigner_nonstd.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem + ".")
    return found


def _entered(argvs: list[list[str]]) -> tuple[list[int], set[tuple[str, int]]]:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # a memoized function's cache hit enters no frame of it
    for name in [name for name in sys.modules if name.startswith("wigner_nonstd.")]:
        for value in vars(sys.modules[name]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    return codes, entered


def test_every_definition_is_entered_by_the_jobs_or_named(tmp_path, capsys):
    definitions = _definitions()
    assert NOT_ENTERED <= set(definitions.values())
    codes, entered = _entered(_jobs(tmp_path))
    assert codes == [0] * len(codes), capsys.readouterr().err
    not_entered = {name for key, name in definitions.items() if key not in entered}
    assert sorted(not_entered - NOT_ENTERED) == []
    # a named definition that the jobs now enter comes off the list
    assert sorted(NOT_ENTERED - not_entered) == []
