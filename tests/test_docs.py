"""The README and the CLI docstring against the code they describe."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import ramm
from ramm import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TESTS = Path(__file__).resolve().parent

# a word each exit-code list uses for the code of each constant
_EXIT_WORDS = {
    "EXIT_OK": ("ok", "success"),
    "EXIT_ERROR": ("error", "failure"),
    "EXIT_MISSING": ("missing",),
    "EXIT_FINGERPRINT": ("fingerprint",),
    "EXIT_BAD_R": ("invalid r",),
    "EXIT_FORMAT": ("malformed",),
    "EXIT_CONFIG": ("config",),
}

_FILE_SUFFIXES = {"py", "txt", "json", "jsonl", "ten", "idx", "tsv", "md", "cfg"}


def _exit_codes(text: str) -> dict[int, str]:
    """code -> description from the paragraph that starts "Exit codes:"."""
    para = text[text.index("Exit codes:") + len("Exit codes:"):].split("\n\n")[0]
    para = " ".join(para.split()).rstrip(".")
    entries = re.split(r",\s*(?=\d+ )", para)
    return {int(code): desc for code, desc in (e.strip().split(" ", 1) for e in entries)}


def test_exit_code_lists_match_the_constants():
    constants = {name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    assert set(constants) == set(_EXIT_WORDS)
    for where, text in (("README.md", README.read_text(encoding="utf-8")),
                        ("cli docstring", cli.__doc__)):
        listed = _exit_codes(text)
        assert sorted(listed) == sorted(constants.values()), where
        for name, code in constants.items():
            assert any(w in listed[code] for w in _EXIT_WORDS[name]), (where, name, listed[code])


def _ramm_namespaces():
    modules = {m.name: importlib.import_module(f"ramm.{m.name}")
               for m in pkgutil.iter_modules(ramm.__path__)}
    defined = {}
    for module in modules.values():
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", "").startswith("ramm."):
                defined.setdefault(attr, []).append(obj)
    return modules, defined


def test_readme_dotted_ramm_names_resolve():
    """Every backticked `module.name` or `Class.attr` whose head is a ramm
    module or a name defined in one resolves by attribute lookup."""
    modules, defined = _ramm_namespaces()
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`",
                           README.read_text(encoding="utf-8")))
    checked, unresolved = 0, []
    for name in sorted(names):
        head, *rest = name.split(".")
        if rest[-1] in _FILE_SUFFIXES:
            continue
        roots = [modules[head]] if head in modules else defined.get(head, [])
        if not roots:
            continue
        checked += 1

        def resolves(obj):
            for attr in rest:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
        if not any(resolves(root) for root in roots):
            unresolved.append(name)
    assert unresolved == []
    assert checked >= 15


def test_readme_cited_tests_exist():
    defined = set()
    for path in TESTS.glob("test_*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    cited = set(re.findall(r"`(test_\w+)`", README.read_text(encoding="utf-8")))
    assert cited and cited <= defined, sorted(cited - defined)
