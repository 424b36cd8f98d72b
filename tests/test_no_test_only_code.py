"""Code under src/ is code that the program runs.

A fresh interpreter runs a small command of every subcommand, format and
option, one usage error, the help, and the library sequence of
perfbench/sweep.py, under the standard library's line tracer.  Every
function and method defined in the package must be entered, or be on
ALLOWED with its reason: a helper that only tests call belongs in tests/.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# qualified name -> why it may stay unentered by the runs below
ALLOWED = {
    **dict.fromkeys(
        (
            "polyring.SPoly.__add__",
            "polyring.SPoly.__neg__",
            "polyring.SPoly.__sub__",
            "polyring.SPoly.__mul__",
            "polyring.SPoly.__eq__",
            "polyring.SPoly.__repr__",
        ),
        "value-type API of the public series type, used by the tests and the "
        "literal localization oracle in tests/oracles.py",
    ),
    "polyring.SPoly.__str__": "used only in check messages",
    "symfun.ChernTable.__eq__": "value-type API",
    "symfun.ChernTable.__repr__": "value-type API",
}

COMMANDS = [
    ["compute", "--n-max", "3"],
    ["compute", "--n-max", "2", "--format", "json"],
    ["verify", "--n-max", "1"],
    ["verify", "--n-max", "2", "--surface", "p1xp1", "--weights=3,-7"],
    ["verify", "--n-max", "2", "--weights", "1,5"],
    ["hilbert", "--k", "2", "--format", "json"],
    ["hilbert", "--k", "1", "--surface", "p1xp1"],
    ["genus", "--name", "todd", "--n-max", "2"],
    ["genus", "--name", "euler", "--n-max", "2", "--format", "json"],
]

# a usage error and the help, which exit through SystemExit with these codes
EXITS = [[["compute", "--n-max", "0"], 2], [["--help"], 0]]

SWEEP = {"seed": 1, "n_max": 3, "surfaces": ["p2", "p1xp1"], "pairs_per_surface": 1,
         "weight_range": 40}

# runs COMMANDS and the sweep under trace.Trace(count=1) and prints the
# executed lines of the package's files as JSON: {path: [line, ...]}
PROBE = """
import contextlib, io, json, sys, trace
commands, exits, sweep_spec = json.loads(sys.argv[1])

def run():
    import sweep
    from kummer_chern import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            assert cli.main(argv) == 0, argv
        for argv, code in exits:
            try:
                cli.main(argv)
            except SystemExit as exc:
                assert exc.code == code, argv
            else:
                raise AssertionError(argv)
        sweep.run_sweep(sweep_spec)

tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.base_prefix, sys.base_exec_prefix])
tracer.runfunc(run)
import kummer_chern
package = kummer_chern.__path__[0]
lines = {}
for path, line in tracer.results().counts:
    if path.startswith(package):
        lines.setdefault(path, []).append(line)
print(json.dumps([package, lines]))
"""


def _functions(tree: ast.Module):
    """(qualified name, lines of its body) for every def, nested ones included.

    A nested def's lines run only after its enclosing function has run, so
    they may count for both.
    """
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + child.name
                out.append((name, set(range(child.body[0].lineno, child.end_lineno + 1))))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + child.name + ".")
            else:
                visit(child, scope)

    visit(tree, "")
    return out


def test_every_function_in_src_runs_in_the_cli_and_the_sweep():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {paths!r}\n" + PROBE,
         json.dumps([COMMANDS, EXITS, SWEEP])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    package, executed = json.loads(proc.stdout)
    assert Path(package).resolve() == ROOT / "src" / "kummer_chern"
    names, unentered = set(), []
    for path in sorted(Path(package).glob("*.py")):
        lines = set(executed.get(str(path), ()))
        for name, body in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            name = f"{path.stem}.{name}"
            names.add(name)
            if not lines & body:
                unentered.append(name)
    assert set(ALLOWED) <= names, set(ALLOWED) - names  # no stale entry
    assert [name for name in unentered if name not in ALLOWED] == []
