import ast
import json
import re
import shlex
import types
from pathlib import Path

import fewcast
from fewcast import cli

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
    assert len(listed) == 16


def readme_command(prefix: str) -> list[str]:
    """The arguments of the README's one command line that starts with ``prefix``, without ``fewcast``."""
    (line,) = [line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith(prefix)]
    return shlex.split(line)[1:]


def parse_with_config(argv: list[str]) -> dict:
    """The options ``main`` would run ``argv`` with, after its --config is merged."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    return vars(parser.parse_args(cli._config_argv(args, argv)))


def test_config_example_parses(tmp_path):
    block = README.read_text(encoding="utf-8").split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.json").write_text(block)
    options = parse_with_config(["search", "--config", str(tmp_path / "run.json")])
    assert {key: options[key] for key in json.loads(block)} == json.loads(block)


def test_replay_line_parses_to_the_recorded_options(tmp_path, monkeypatch):
    # the walkthrough's search writes its manifest as main does, without searching
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "cmd_search", lambda args: {})
    assert cli.main(readme_command("fewcast search --data")) == 0
    replay = readme_command("fewcast search --config")
    manifest = json.loads(Path(replay[replay.index("--config") + 1]).read_text())
    options = parse_with_config(replay)
    assert options.pop("func") is cli.cmd_search
    recorded = {key: value for key, value in manifest.items() if key not in ("artifact_version", "argv")}
    assert options == {**recorded, "out": "runs/search-again", "config": "runs/search/manifest.json"}
