import re
from pathlib import Path

from finreportqa.rundir import RunDir

SRC = Path(__file__).resolve().parents[1] / "src" / "finreportqa"

_LAYOUT_NAMES = re.compile(
    r"predictions\.jsonl|scores\.jsonl|eval_report\.json|manifest\.json|[\"']transcripts[\"']"
    r"|llm_log\.jsonl|ask_transcript\.json")


def test_only_the_rundir_module_spells_the_run_directory_layout():
    spelled = {path.name for path in SRC.glob("*.py")
               if _LAYOUT_NAMES.search(path.read_text(encoding="utf-8"))}
    assert spelled == {"rundir.py"}


def test_only_the_rundir_module_renders_json_documents():
    """Every JSON document a command writes or prints is ``rundir.to_json``'s text."""
    rendering = {path.name for path in SRC.glob("*.py")
                 if "indent=2" in path.read_text(encoding="utf-8")}
    assert rendering == {"rundir.py"}


def test_create_adds_a_suffix_while_the_name_is_taken(tmp_path):
    names = [RunDir.create(tmp_path / "runs", "run").path.name for _ in range(3)]
    assert names == ["run", "run-1", "run-2"]
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == names
