import importlib
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
    # the per-layer tracer only tallies plain functions (inspect.isfunction:
    # a decorated kernel such as an lru_cache wrapper is skipped), and the
    # benchmark fails on a metric it names but did not measure
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"].split(".") for m in json.load(f)["per_layer"]]
    missing = []
    for parts in names:
        if len(parts) == 3 and parts[1] != "check":
            mod = importlib.import_module(f"poolregions.{parts[0]}")
            if not inspect.isfunction(getattr(mod, parts[1], None)):
                missing.append(".".join(parts[:2]))
    assert missing == []


def test_readme_command_lines_match_the_command_table():
    from poolregions import cli

    with open(README) as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = set(re.findall(r"^poolregions (?:--\S+ \S+ )*([a-z][\w-]*)", block, re.M))
    assert named == set(cli.COMMANDS)
