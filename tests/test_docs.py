import importlib
import importlib.util
import inspect
import json
import os
import re

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


def test_readme_command_lines_match_the_command_table():
    from poolregions import cli

    with open(README) as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = set(re.findall(r"^poolregions (?:--\S+ \S+ )*([a-z][\w-]*)", block, re.M))
    assert named == set(cli.COMMANDS)
