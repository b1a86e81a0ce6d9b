"""Tests for the task-graph JSON document format."""

import contextlib
import io
import json
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graph import meeting_graphs
from test_sim import cohort_cases, contention_cases, mixed_footprint_cases, sim_cases

from plural import (ControlKind, GraphFormatError, GraphStructureError, PluralError, Task, TaskGraph, TaskKind,
                    ValidationError, cli)
from plural import graphio
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


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    st.tuples(meeting_graphs()), sim_cases(), contention_cases(), cohort_cases(), mixed_footprint_cases()
))
def test_generated_graphs_round_trip(case):
    # The loader checks each field once and builds each task once; whatever
    # the shared strategies generate comes back equal, and dumps the same.
    g = case[0]
    assert loads(dumps(g)) == g
    assert dumps(loads(dumps(g))) == dumps(g)


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


A = {"id": "a", "kind": "singular"}
KINDS = "['singular', 'duplicable', 'control']"
CONTROL_KINDS = "['branch', 'merge', 'conditional']"
PAIR = "must be a [predecessor, successor] id pair, got"


def validate_file(tmp_path, doc):
    """Exit code and stderr of ``plural validate`` on ``doc``."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"tasks": [{**A, "kind": "parallel"}]},
         f"tasks[0] ('a'): kind must be one of {KINDS}, got 'parallel'"),
        ({"tasks": [{**A, "kind": 3}]}, f"tasks[0] ('a'): kind must be one of {KINDS}, got 3"),
        ({"tasks": [{**A, "kind": ["singular"]}]},
         f"tasks[0] ('a'): kind must be one of {KINDS}, got ['singular']"),
        ({"tasks": [{**A, "kind": {"singular": 1}}]},
         f"tasks[0] ('a'): kind must be one of {KINDS}, got {{'singular': 1}}"),
        ({"tasks": [{**A, "kind": "control", "control_kind": "loop"}]},
         f"tasks[0] ('a'): control_kind must be one of {CONTROL_KINDS}, got 'loop'"),
        ({"tasks": [{**A, "kind": "control", "control_kind": ["merge"]}]},
         f"tasks[0] ('a'): control_kind must be one of {CONTROL_KINDS}, got ['merge']"),
        ({"tasks": [{**A, "d": 4}]}, "tasks[0] ('a'): 'd' is only valid on duplicable tasks"),
        ({"tasks": [{**A, "reads": "x"}]}, "tasks[0] ('a'): reads must be a list of strings, got 'x'"),
        ({"tasks": [{**A, "writes": ["o", 1]}]},
         "tasks[0] ('a'): writes must be a list of strings, got ['o', 1]"),
        ({"tasks": [{**A, "kind": "control", "control_kind": "merge", "instructions": 5}]},
         "tasks[0] ('a'): task 'a': control tasks execute no instructions"),
        ({"tasks": [A], "edges": ["ab"]}, f"edges[0] {PAIR} 'ab'"),
        ({"tasks": [A], "edges": [["a"]]}, f"edges[0] {PAIR} ['a']"),
        ({"tasks": [A], "edges": [["a", "a"], ["a", 1]]}, f"edges[1] {PAIR} ['a', 1]"),
        ({"tasks": [{**A, "entry": 5}]}, "tasks[0] ('a'): task 'a': entry_point must be None or a string, got 5"),
        ({"tasks": [{**A, "entry": ["x"]}]},
         "tasks[0] ('a'): task 'a': entry_point must be None or a string, got ['x']"),
        ({"tasks": [{**A, "entry": ""}]},
         "tasks[0] ('a'): task 'a': entry_point must be None or a non-empty string, got ''"),
        ({"tasks": [A, 5]}, "tasks[1] must be an object, got 5"),
        ({"tasks": {"a": A}}, "'tasks' must be a list"),
        ({"tasks": [A], "edges": {"a": "a"}}, "'edges' must be a list"),
    ],
    ids=[
        "kind-string", "kind-number", "kind-list", "kind-dict", "control-kind",
        "control-kind-list", "d-on-singular", "reads-not-list", "writes-non-string",
        "task-validation", "edge-string", "edge-short", "edge-non-string",
        "entry-number", "entry-list", "entry-empty", "task-not-object", "tasks-not-list", "edges-not-list",
    ],
)
def test_malformed_document_messages(tmp_path, doc, message):
    assert validate_file(tmp_path, doc) == (2, f"error: task graph document: {message}\n")


def test_first_unknown_edge_endpoint_in_sorted_order(tmp_path):
    doc = {
        "tasks": [A, {"id": "b", "kind": "singular"}],
        "edges": [["b", "zz"], ["a", "b"], ["ghost", "a"], ["a", "yy"]],
    }
    assert validate_file(tmp_path, doc) == (
        2, "error: edge ('a', 'yy') references unknown task id 'yy'\n"
    )


# Field values the loader refuses on every task kind or on some: "d" and
# "control_kind" where they are misplaced, names and counts on a control task.
# A few are valid on some kinds, so valid lists are drawn too.
BAD_FIELDS = [
    ("id", 5), ("id", None), ("id", ["a"]), ("id", ""), ("kind", "parallel"), ("kind", ["singular"]),
    ("instructions", True), ("instructions", -1), ("instructions", 2.0), ("d", True), ("d", 0), ("d", -3),
    ("d", 4), ("d", None), ("control_kind", "merge"), ("control_kind", None), ("control_kind", "loop"),
    ("entry", ""), ("entry", 5), ("reads", [1]), ("reads", "x"), ("reads", None), ("writes", ["o", None]),
    ("writes", [["o"]]), ("writes", {"o": 1}), ("reads", ["x"]), ("instructions", 3), ("color", 1),
]
KIND_OF = {"singular": {"kind": "singular", "instructions": 7, "reads": ["r"], "writes": ["w"]},
           "duplicable": {"kind": "duplicable", "d": 3, "instructions": 5, "writes": ["o[#]"]},
           "control": {"kind": "control", "control_kind": "merge"}}


# Task-list sizes on both sides of 16, the size from which the loader once
# checked a list by column and below which it checked task by task.
SIZES = [1, 4, 15, 16, 24]


@st.composite
def malformed_task_lists(draw):
    """A list of task objects with one or two of them malformed, or none."""
    n = draw(st.sampled_from(SIZES))
    objs = [{"id": f"t{k}", **KIND_OF[draw(st.sampled_from(sorted(KIND_OF)))]} for k in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        change = draw(st.sampled_from(["set", "set", "set", "drop", "replace"]))
        if change == "replace" or not isinstance(objs[i], dict):
            objs[i] = draw(st.sampled_from([5, "task", None, [objs[i]]]))
        elif change == "set":
            key, value = draw(st.sampled_from(BAD_FIELDS))
            objs[i][key] = value
        else:
            objs[i].pop(draw(st.sampled_from(["id", "kind"])), None)
    return objs


TEXTS = st.text("ab#0", max_size=3) | st.text(max_size=3)
JSON_SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | TEXTS
JSON_VALUES = (JSON_SCALARS | st.dictionaries(TEXTS, JSON_SCALARS, max_size=3)
               | st.lists(JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2), max_size=3))
# Valid values of the fields each kind of task may hold, and for one field
# of one task, values of that field's shape, valid or not.
VALID = {"d": st.integers(1, 3), "entry": st.none() | TEXTS.filter(bool), "instructions": st.integers(0, 3),
         "reads": st.lists(TEXTS, max_size=3), "writes": st.lists(TEXTS, max_size=3)}
FIELDS_OF = {"singular": ["entry", "instructions", "reads", "writes"],
             "duplicable": ["d", "entry", "instructions", "reads", "writes"], "control": []}
SHAPED = {"id": TEXTS, "d": st.integers(-1, 3), "instructions": st.integers(-1, 3), "entry": st.none() | TEXTS,
          "control_kind": st.sampled_from(sorted(graphio._CONTROL_KINDS)),
          "reads": st.lists(TEXTS | JSON_SCALARS, max_size=2), "writes": st.lists(TEXTS | JSON_SCALARS, max_size=2)}


@st.composite
def drawn_tasks(draw):
    """A valid task object, each field drawn from valid values."""
    kind = draw(st.sampled_from(sorted(FIELDS_OF)))
    return {"kind": kind, **draw(st.fixed_dictionaries(
        {"control_kind": SHAPED["control_kind"]} if kind == "control" else {},
        optional={key: VALID[key] for key in FIELDS_OF[kind]}))}


@st.composite
def drawn_task_lists(draw):
    """A few valid task objects, and maybe one field of one task drawn from
    values of its shape or from any JSON value: a rule of ``Task`` that
    ``BAD_FIELDS`` never breaks is met here with the rest of the list valid.
    Valid tasks follow, up to a size drawn from ``SIZES``."""
    objs = [{"id": f"t{k}", **draw(drawn_tasks())} for k in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(SHAPED)))
        draw(st.sampled_from(objs))[key] = draw(SHAPED[key] | JSON_VALUES)
    return objs + [{"id": f"f{k}", **KIND_OF["singular"]} for k in range(draw(st.sampled_from(SIZES)) - len(objs))]


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # any type: the two checks must raise the same one
        return type(exc), str(exc)


def row_parse_task(obj, index):
    """The reference check of one task object: the document's own rules in
    order, then ``Task(...)``, each error named with the task's place."""
    def error(message):
        return GraphFormatError(f"task graph document: {message}")

    def member(members, key):
        try:
            return members[obj[key]]
        except (KeyError, TypeError):  # TypeError: the value is a list or a dict
            raise error(f"{where}: {key} must be one of {list(members)!r}, got {obj[key]!r}") from None

    if not isinstance(obj, dict):
        raise error(f"tasks[{index}] must be an object, got {obj!r}")
    keys = {"id", "kind", "d", "control_kind", "entry", "instructions", "reads", "writes"}
    if not keys.issuperset(obj):
        raise error(f"tasks[{index}] has unknown key(s) {sorted(obj.keys() - keys)!r}")
    if "id" not in obj or "kind" not in obj:
        raise error(f"tasks[{index}] needs both 'id' and 'kind'")
    where = f"tasks[{index}] ({obj['id']!r})"
    kind = member(graphio._KINDS, "kind")
    if "d" in obj and kind is not TaskKind.DUPLICABLE:
        raise error(f"{where}: 'd' is only valid on duplicable tasks")
    control_kind = member(graphio._CONTROL_KINDS, "control_kind") if "control_kind" in obj else None
    for key in ("reads", "writes"):
        names = obj.get(key, [])
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise error(f"{where}: {key} must be a list of strings, got {names!r}")
    try:
        return Task(obj["id"], kind, obj.get("d", 1), control_kind, obj.get("entry"), obj.get("instructions", 0),
                    obj.get("reads", []), obj.get("writes", []))
    except PluralError as exc:
        raise error(f"{where}: {exc}") from None


def assert_column_check_agrees(objs):
    """The loader gives the tasks of a task list, or the error of its first
    bad task, as the reference check of each task in turn does, and the
    whole document gives the graph of those tasks, at any list size."""
    rows = outcome(lambda: list(map(row_parse_task, objs, count())))
    assert outcome(lambda: list(map(graphio._parse_task, objs, count()))) == rows
    graph = outcome(lambda: list(TaskGraph(rows))) if isinstance(rows, list) else rows
    assert outcome(lambda: list(loads(json.dumps({"tasks": objs})))) == graph


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(malformed_task_lists())
def test_column_check_agrees_with_row_check(objs):
    assert_column_check_agrees(objs)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(drawn_task_lists())
def test_column_check_agrees_on_drawn_fields(objs):
    assert_column_check_agrees(objs)


def test_column_check_agrees_on_each_bad_field():
    # Each entry of BAD_FIELDS on each kind of task, alone in a long list.
    for kind, (key, value) in product(sorted(KIND_OF), BAD_FIELDS):
        objs = [{"id": f"t{k}", **KIND_OF[kind]} for k in range(20)]
        objs[3][key] = value
        assert_column_check_agrees(objs)


@pytest.mark.parametrize("kind", sorted(KIND_OF))
@pytest.mark.parametrize("key, value", BAD_FIELDS, ids=lambda field: repr(field))
def test_first_task_is_judged_alike_at_every_size(kind, key, value):
    # One changed task first, then valid ones: the list's size never changes
    # the error, nor the first task when there is none.
    first = {"id": "t0", **KIND_OF[kind], key: value}
    alone = outcome(lambda: list(loads(json.dumps({"tasks": [first]}))))
    for n in (15, 16, 40):
        objs = [first, *({"id": f"t{k}", **KIND_OF["singular"]} for k in range(1, n))]
        loaded = outcome(lambda: list(loads(json.dumps({"tasks": objs}))))
        assert (loaded if isinstance(alone, tuple) else loaded[:1]) == alone


# Values of Task's arguments that keep a task object valid as a document
# holds it: any JSON value where Task alone judges the field, member names
# for control_kind and lists of strings for the footprints.
ARGUMENTS = {"id": JSON_VALUES, "d": JSON_VALUES, "entry": JSON_VALUES, "instructions": JSON_VALUES,
             "control_kind": SHAPED["control_kind"], "reads": VALID["reads"], "writes": VALID["writes"]}


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(drawn_tasks(), st.data())
def test_task_and_one_task_document_refuse_alike(obj, data):
    # Task(...) and loads of a one-task document refuse the same task
    # objects with the same inner message, or both give the same task and
    # then the same graph of it.
    keys = [key for key in sorted(ARGUMENTS) if key != "d" or obj["kind"] == "duplicable"]
    obj = {"id": "t0", **obj, **data.draw(st.just({}) | st.sampled_from(keys).flatmap(
        lambda key: st.fixed_dictionaries({key: ARGUMENTS[key]})))}
    control = obj.get("control_kind")
    built = outcome(lambda: Task(obj["id"], graphio._KINDS[obj["kind"]], obj.get("d", 1),
                                 None if control is None else graphio._CONTROL_KINDS[control], obj.get("entry"),
                                 obj.get("instructions", 0), obj.get("reads", []), obj.get("writes", [])))
    loaded = outcome(lambda: list(loads(json.dumps({"tasks": [obj]}))))
    if isinstance(built, Task):
        assert loaded == outcome(lambda: list(TaskGraph([built])))
    else:
        assert built[0] is ValidationError
        assert loaded == (GraphFormatError, f"task graph document: tasks[0] ({obj['id']!r}): {built[1]}")


def test_column_check_names_the_first_of_two_bad_tasks():
    objs = [{"id": f"t{k}", **KIND_OF["singular"]} for k in range(20)]
    objs[3]["instructions"] = -1
    objs[9]["color"] = "red"
    with pytest.raises(GraphFormatError) as caught:
        loads(json.dumps({"tasks": objs}))
    assert str(caught.value) == (
        "task graph document: tasks[3] ('t3'): task 't3': instruction_count must be a nonnegative integer, got -1")
