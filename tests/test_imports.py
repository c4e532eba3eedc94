"""Every top-level import in the package is used (a stdlib stand-in for a
linter's unused-import rule), and so is every top-level function and class:
the package holds only what the program or the benchmark calls.  No
``np.einsum`` call plans its contraction again on every call.  Every
config key is read somewhere, too: a knob nothing reads is a knob that does
nothing.  And the program's entry points start without ``scipy.signal``,
which only a band-pass needs.  Model parts list their parameters only
through ``Module``'s walk, in a pinned order."""

import ast
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rvqtok
from rvqtok.checkpoint import ZeroDraws
from rvqtok.config import load_config
from rvqtok.pretrain import BackboneModel
from rvqtok.tokenizer import TokenizerModel

MODULES = sorted(Path(rvqtok.__file__).parent.glob("*.py"))
#: The benchmark's sources, beside ``tests/``; its own tests are not callers.
BENCHMARK = sorted(p for p in (Path(__file__).parents[1] / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))
#: The console script ``pyproject.toml`` names.
ENTRY_POINTS = {("cli.py", "main")}
#: The config module's literals that declare keys rather than read them.
KEY_DECLARATIONS = {"CONFIG_SCHEMA", "DESK_PROFILE", "PAPER_PROFILE", "MINIMUMS"}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing else in
    the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nprint(system)\n") == [
        "line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def planned_einsums(source: str) -> list[str]:
    """``einsum`` calls that pass ``optimize=``: each searches for a
    contraction path on every call, which costs more than the small
    contractions it plans."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "einsum"
                 or getattr(node.func, "id", None) == "einsum")
            and any(kw.arg == "optimize" for kw in node.keywords)]


def test_finds_a_planned_einsum():
    source = ("import numpy as np\nfrom numpy import einsum\n"
              "a = np.einsum('ij,ij->i', x, x)\n"
              "b = np.einsum('ij,jk->ik', x, y, optimize=True)\n"
              "c = einsum('ij,jk->ik', x, y,\n           optimize='greedy')\n")
    assert planned_einsums(source) == ["line 4", "line 5"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_planned_einsum(path):
    assert planned_einsums(path.read_text()) == []


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read under ``tree``: as a variable, as an
    attribute, or as a string naming one (the benchmark wraps functions by
    their attribute names)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def unused_definitions(package: dict[str, str], callers: list[str]) -> list[str]:
    """Top-level functions and classes of the ``package`` sources (by file
    name) that nothing in the package or ``callers`` reads outside their
    own definition."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    total = sum((_reads(t) for t in trees.values()), Counter())
    total += sum((_reads(ast.parse(src)) for src in callers), Counter())
    return [f"{name}: {node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and (name, node.name) not in ENTRY_POINTS
            and total[node.name] <= _reads(node)[node.name]]


def test_finds_an_unused_definition():
    package = {"a.py": "def used():\n    return 1\n\n"
                       "def recursive(n):\n    return recursive(n - 1)\n\n"
                       "class Wrapped:\n    pass\n",
               "b.py": "from .a import used\n\nprint(used())\n"}
    callers = ["wrap(a, 'Wrapped')\n"]
    assert unused_definitions(package, callers) == ["a.py: recursive"]


def test_every_definition_is_used():
    assert BENCHMARK, "perfbench/ not found beside tests/"
    package = {p.name: p.read_text() for p in MODULES}
    assert unused_definitions(package, [p.read_text() for p in BENCHMARK]) == []


def _strings(tree: ast.AST) -> set[str]:
    """Every string constant under ``tree``."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unread_config_keys(config_source: str, readers: list[str]) -> list[str]:
    """``section.key`` of each ``CONFIG_SCHEMA`` key in ``config_source``
    that no string constant names, in ``readers`` or in ``config_source``
    outside the ``KEY_DECLARATIONS`` literals.  Keys are read by their
    names (``t["mask_ratio"]``, ``cfg.get("train", "mask_ratio")``), so a
    key whose name appears nowhere else is read nowhere."""
    schema, named = None, set()
    for node in ast.parse(config_source).body:
        target = (node.target if isinstance(node, ast.AnnAssign)
                  else node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id in KEY_DECLARATIONS:
            if target.id == "CONFIG_SCHEMA":
                schema = node.value
            continue
        named |= _strings(node)
    for src in readers:
        named |= _strings(ast.parse(src))
    return [f"{section.value}.{key.value}"
            for section, keys in zip(schema.keys, schema.values)
            for key in keys.keys if key.value not in named]


def test_finds_an_unread_config_key():
    config = ('CONFIG_SCHEMA = {"train": {"lr": (float, "rate"), "spare": (int, "n")},\n'
              '                 "run": {"seed": (int, "seed")}}\n'
              'DESK_PROFILE = {"train": {"lr": 0.1, "spare": 2}, "run": {"seed": 0}}\n'
              'MINIMUMS = {("train", "spare"): 1}\n'
              'def lr(t):\n    return t["lr"]\n')
    assert unread_config_keys(config, ['seed = cfg.get("run", "seed")\n']) == [
        "train.spare"]


def test_every_config_key_is_read():
    config = next(p for p in MODULES if p.name == "config.py")
    readers = [p.read_text() for p in MODULES + BENCHMARK if p != config]
    assert unread_config_keys(config.read_text(), readers) == []


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal holds about half a desk process's memory; it loads on
    # the first band-pass (eval-bands, criterion 6), not at start-up.  The
    # inference thread pool starts on its first map, not at import.
    env = dict(os.environ, PYTHONPATH=str(Path(rvqtok.__file__).parents[1]))
    probe = ("import sys, threading\n"
             "import rvqtok.cli, rvqtok.tokenizer, rvqtok.pretrain\n"
             "print('scipy.signal' in sys.modules, threading.active_count())\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False 1"


def params_methods(source: str) -> list[str]:
    """Classes other than ``Module`` that define ``params``: a hand-written
    list restates its class's attribute order, which ``Module``'s walk reads
    from the attributes themselves."""
    return [f"line {fn.lineno}: {node.name}.params"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name != "Module"
            for fn in node.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "params"]


def test_finds_a_params_method():
    source = ("class Module:\n    def params(self):\n        return []\n\n"
              "class Linear(Module):\n    def params(self):\n        yield self.w\n")
    assert params_methods(source) == ["line 6: Linear.params"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_params_method_outside_module(path):
    assert params_methods(path.read_text()) == []


#: SHA-256 of each model's newline-joined parameter names in ``params()``
#: order, the order checkpoints store and the optimizer updates them in.
PARAM_NAMES_SHA256 = {
    ("desk", "tokenizer"): "e1d7a60d98b97c6dda424a6d89e30dbe43eaf0a953fc79dc018f5509180c6025",
    ("desk", "backbone"): "a38af6965b0a232fa1f699271eaed3d81f31782c1eb902cf08ad18f74e3684c5",
    ("paper", "tokenizer"): "e3839568212dbe9561aa65db1fbd7576ff10f5dbbea53f961edb8e9153bc732d",
    ("paper", "backbone"): "de39548dd0b02af7154c33539488a3c5653d62770f6c6743f2982caecfff9088",
}


@pytest.mark.parametrize("profile, kind", sorted(PARAM_NAMES_SHA256))
def test_param_order_pinned(profile, kind):
    cfg = load_config(profile=profile)
    model = (TokenizerModel(cfg.tokenizer_config(), rng=ZeroDraws()) if kind == "tokenizer"
             else BackboneModel(cfg.pretrain_config(), rng=ZeroDraws()))
    names = "\n".join(p.name for p in model.params())
    assert hashlib.sha256(names.encode()).hexdigest() == PARAM_NAMES_SHA256[(profile, kind)]
