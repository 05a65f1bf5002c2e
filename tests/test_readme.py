import ast
import re
import types
from pathlib import Path

import fewcast

README = Path(__file__).resolve().parents[1] / "README.md"


def library_api_statement() -> str:
    block = README.read_text(encoding="utf-8").split("## Library API", 1)[1]
    return re.search(r"^from fewcast import \(.*?^\)", block, re.DOTALL | re.MULTILINE).group(0)


def test_library_api_import_line_runs():
    # every name the README's "Library API" block imports is still exported
    statement = library_api_statement()
    exec(compile(statement, str(README), "exec"), {})


def test_root_exports_exactly_the_library_api_block():
    # anything else is imported from its own module, so the root holds no second list of names
    listed = {alias.name for alias in ast.parse(library_api_statement()).body[0].names}
    public = {name for name, value in vars(fewcast).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == listed
    assert len(listed) == 17
