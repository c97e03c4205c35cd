import importlib
import importlib.util
import inspect
import json
import os
import re
import shlex

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")


def layout_rows():
    """(module names, backticked identifiers) of each README "Library layout" row."""
    with open(README) as f:
        text = f.read()
    table = text.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = []
    for line in table.splitlines()[2:]:
        modules, contents = line.strip("|").split("|", 1)
        rows.append((re.findall(r"`(\w+)`", modules), re.findall(r"`(\w+)`", contents)))
    return rows


def test_readme_layout_names_exist():
    rows = layout_rows()
    assert len(rows) == 9
    missing = []
    for modules, names in rows:
        mods = [importlib.import_module(f"poolregions.{m}") for m in modules]
        missing += [f"{'/'.join(modules)}.{n}" for n in names if not any(hasattr(m, n) for m in mods)]
    assert missing == []


def test_benchmark_layer_names_exist():
    # perfbench/run.py --trace 1 indexes its metrics by these names, so a
    # renamed or deleted function, check or module ends the trace in a
    # KeyError.  The tracer only tallies plain public functions defined in
    # the module (inspect.isfunction: an lru_cache wrapper is skipped).
    from poolregions import verify

    def defined(name):
        parts = name.split(".")
        if parts[0] == "trace":
            return True
        if name.startswith("verify.check."):
            return name.endswith("_s") and name[len("verify.check."):-2] in verify.CHECKS
        if importlib.util.find_spec(f"poolregions.{parts[0]}") is None:
            return False
        if parts[1:] == ["self_s"]:
            return True
        mod = importlib.import_module(f"poolregions.{parts[0]}")
        fn = getattr(mod, parts[1], None)
        return (
            len(parts) == 3
            and not parts[1].startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__
        )

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    assert [name for name in names if not defined(name)] == []


def command_block():
    """The shell block of README's Command line section."""
    with open(README) as f:
        text = f.read()
    return text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_match_the_command_table():
    from poolregions import cli

    named = set(re.findall(r"^poolregions (?:--\S+ \S+ )*([a-z][\w-]*)", command_block(), re.M))
    assert named == set(cli.COMMANDS)


def readme_command_lines():
    """(argv, comment) of each `poolregions ...` line in README's Command line block."""
    lines = []
    for line in command_block().splitlines():
        if line.startswith("poolregions "):
            command, _, comment = line.partition("#")
            lines.append((shlex.split(command)[1:], comment.strip()))
    return lines


# the value a README comment states, and the JSON result that states it
README_VALUES = {
    "total-faces --grid3xn 2": ("130", "130"),
    "grid3xn --n 4 --method b6": ("1536", "1536"),
    "grid2xn --n 5": ("164", "164"),
    "vertices --k 3 --s 5 --n 2": ("k^n = 9", "9"),
    "fvector --k 3 --s 1 --n 2": (
        "{0:7, 1:11, 2:6, 3:1}",
        {"counts": {"0": "7", "1": "11", "2": "6", "3": "1"}, "polytope_dim": 3, "total_nonempty": "25"},
    ),
}


def test_readme_command_lines_run(capsys):
    from poolregions import cli

    checked = set()
    for argv, comment in readme_command_lines():
        if argv[-2:] == ["--level", "full"]:
            continue  # the acceptance suite runs every check at the full level
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        line = " ".join(argv)
        if line in README_VALUES:
            stated, result = README_VALUES[line]
            assert stated in comment, line
            assert json.loads(out)["result"] == result, line
            checked.add(line)
    assert checked == set(README_VALUES)


def test_pyproject_reads_the_version_from_the_package():
    # the package's __version__ is the one home of the version; the CLI
    # prints it and the distribution's metadata reads it
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        text = f.read()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "poolregions.__version__"}' in text
    assert not re.search(r"^version\s*=\s*\"", text, re.M)
