import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_api_import_line_runs():
    # every name the README's "Library API" block imports is still exported
    block = README.read_text(encoding="utf-8").split("## Library API", 1)[1]
    statement = re.search(r"^from fewcast import \(.*?^\)", block, re.DOTALL | re.MULTILINE).group(0)
    exec(compile(statement, str(README), "exec"), {})
