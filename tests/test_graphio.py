"""Tests for the task-graph JSON document format."""

import pytest

from plural import ControlKind, GraphFormatError, GraphStructureError, Task, TaskGraph, TaskKind
from plural.graphio import dump, dumps, load, loads

DOC = """
{
  "tasks": [
    {"id": "load", "kind": "singular", "entry": "load_stage",
     "instructions": 500, "reads": ["cfg"], "writes": ["raw"]},
    {"id": "work", "kind": "duplicable", "d": 8,
     "instructions": 1000, "reads": ["raw"], "writes": ["out[#]"]},
    {"id": "join", "kind": "control", "control_kind": "merge"}
  ],
  "edges": [["load", "work"], ["work", "join"]]
}
"""


def test_loads_full_document():
    g = loads(DOC)
    assert set(g.tasks) == {"load", "work", "join"}
    assert g.tasks["load"].entry_point == "load_stage"
    assert g.tasks["work"].kind is TaskKind.DUPLICABLE
    assert g.tasks["work"].instances == 8
    assert g.tasks["join"].control_kind is ControlKind.MERGE
    assert g.edges == frozenset({("load", "work"), ("work", "join")})


def test_defaults_applied():
    g = loads('{"tasks": [{"id": "a", "kind": "singular"}], "edges": []}')
    task = g.tasks["a"]
    assert task.instruction_count == 0
    assert task.read_set == frozenset()
    assert task.entry_point == "a"


def test_round_trip():
    g = loads(DOC)
    assert loads(dumps(g)) == g


def test_file_round_trip(tmp_path):
    g = loads(DOC)
    path = tmp_path / "graph.json"
    dump(g, path)
    assert load(path) == g


def test_dumps_is_stable():
    g = loads(DOC)
    assert dumps(g) == dumps(loads(dumps(g)))


def test_rejects_unknown_top_level_key():
    with pytest.raises(GraphFormatError, match="color"):
        loads('{"tasks": [], "edges": [], "color": "red"}')


def test_rejects_unknown_task_key():
    with pytest.raises(GraphFormatError, match="priority"):
        loads('{"tasks": [{"id": "a", "kind": "singular", "priority": 3}], "edges": []}')


def test_rejects_missing_required_keys():
    with pytest.raises(GraphFormatError, match="id"):
        loads('{"tasks": [{"kind": "singular"}], "edges": []}')


def test_rejects_bad_kind():
    with pytest.raises(GraphFormatError, match="kind"):
        loads('{"tasks": [{"id": "a", "kind": "parallel"}], "edges": []}')


def test_rejects_d_on_non_duplicable():
    with pytest.raises(GraphFormatError, match="'d'"):
        loads('{"tasks": [{"id": "a", "kind": "singular", "d": 4}], "edges": []}')


def test_rejects_bad_control_kind():
    with pytest.raises(GraphFormatError, match="control_kind"):
        loads(
            '{"tasks": [{"id": "c", "kind": "control", "control_kind": "loop"}],'
            ' "edges": []}'
        )


def test_rejects_bad_edge_shape():
    with pytest.raises(GraphFormatError, match="edges"):
        loads('{"tasks": [{"id": "a", "kind": "singular"}], "edges": [["a"]]}')


def test_rejects_nonstring_reads():
    with pytest.raises(GraphFormatError, match="reads"):
        loads('{"tasks": [{"id": "a", "kind": "singular", "reads": [1]}], "edges": []}')


def test_task_level_validation_is_wrapped():
    with pytest.raises(GraphFormatError, match="control"):
        loads(
            '{"tasks": [{"id": "c", "kind": "control", "control_kind": "merge",'
            ' "instructions": 5}], "edges": []}'
        )


@pytest.mark.parametrize(
    "task, message",
    [
        ('"kind": "singular", "instructions": true', "instruction_count"),
        ('"kind": "duplicable", "d": true, "instructions": 4', "duplicable instance count"),
        ('"kind": "duplicable", "d": 2, "instructions": false', "instruction_count"),
    ],
    ids=["instructions-true", "d-true", "instructions-false"],
)
def test_rejects_bool_counts(task, message):
    # JSON true and false are Python bools, which are ints.
    with pytest.raises(GraphFormatError, match=rf"\('a'\): task 'a': {message}"):
        loads(f'{{"tasks": [{{"id": "a", {task}, "writes": ["o[#]"]}}], "edges": []}}')


def test_dangling_edge_is_structural_error():
    with pytest.raises(GraphStructureError, match="ghost"):
        loads('{"tasks": [{"id": "a", "kind": "singular"}], "edges": [["a", "ghost"]]}')


def test_parse_error_is_line_anchored():
    bad = '{\n  "tasks": [\n    {"id": "a" "kind": "singular"}\n  ]\n}'
    with pytest.raises(GraphFormatError, match=r"line 3"):
        loads(bad)


def test_dump_control_task_shape():
    g = TaskGraph(
        [Task(id="c", kind=TaskKind.CONTROL, control_kind=ControlKind.BRANCH)]
    )
    text = dumps(g)
    assert '"control_kind": "branch"' in text
    assert '"entry"' not in text
