"""The package root: the README examples, the star import, and the names
the benchmark's output checks import."""

import importlib.util
import re
import sys
from pathlib import Path

import rakepower
from rakepower.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_config_example_runs(tmp_path, capsys):
    # a utility-gain config, which po-frames refuses for its rho-db
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block)
    out = tmp_path / "out.csv"
    assert main(["utility-gain", "--config", str(cfg), "--trials", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["po-frames", "--config", str(cfg)]) == 1
    assert "po-frames does not read rho_db" in capsys.readouterr().err


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from rakepower import *", namespace)
    assert len(set(rakepower.__all__)) == len(rakepower.__all__)
    assert set(rakepower.__all__) <= set(namespace)


def test_benchmark_output_checks_pass(tmp_path, monkeypatch):
    # loaded by path and read-only: no bytecode is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    for study in ("utility-gain", "po-frames"):
        out = tmp_path / f"{study}.csv"
        assert main([study, "--trials", "2", "--seed", "5", "--out", str(out)]) == 0
        assert checks.check_output(study, 5, 2, out) == []
    # the benchmark's own arguments at its reference seed, where the rows
    # are also compared with its reference CSVs
    for args in (["utility-gain", "--trials", "200"],
                 ["po-frames", "--beta", "0.1", "--trials", "30"]):
        out = tmp_path / f"{args[0]}.csv"
        assert main([*args, "--seed", "12345", "--out", str(out)]) == 0
        assert checks.check_output(args[0], 12345, int(args[-1]), out) == []
    # the audit against the benchmark's reference rows, values to 1e-9
    out = tmp_path / "validate.csv"
    assert main(["validate", "--paths", "8000", "--seed", "12345", "--out", str(out)]) == 0
    assert checks.check_output("validate", 12345, 0, out) == []
