"""Tests for task graphs, DAG validation, concurrency, and CREW checking."""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plural.graph as graph_module
from plural import (
    ControlKind,
    CrewViolation,
    CycleError,
    GraphStructureError,
    Task,
    TaskGraph,
    TaskKind,
    ValidationError,
    check_crew,
    concurrent_pairs,
    expand_duplicables,
    validate_dag,
)
from plural.graph import READ_WRITE, WRITE_WRITE


def singular(tid, reads=(), writes=(), n=10):
    return Task(id=tid, instruction_count=n, read_set=frozenset(reads), write_set=frozenset(writes))


def duplicable(tid, d, reads=(), writes=(), n=10):
    return Task(
        id=tid,
        kind=TaskKind.DUPLICABLE,
        instances=d,
        instruction_count=n,
        read_set=frozenset(reads),
        write_set=frozenset(writes),
    )


def control(tid, kind=ControlKind.MERGE):
    return Task(id=tid, kind=TaskKind.CONTROL, control_kind=kind)


def pairwise_check_crew(g):
    """Reference CREW check: footprint intersections over every concurrent pair
    of the expanded graph, each pair and the list ordered by the authored
    (task, number) of its instances.  A cycle is named by ``validate_dag``'s
    witness on the authored graph."""
    expanded = expand_duplicables(g)
    cycle = validate_dag(g)
    if cycle is not None:
        raise CycleError(cycle)
    spelled = {(tid, k): f"{tid}#{k}" if task.kind is TaskKind.DUPLICABLE else tid
               for tid, task in g.tasks.items() for k in range(task.instances)}
    order = {iid: key for key, iid in spelled.items()}  # expanded id -> authored (task, number)
    violations = []
    for pair in sorted(sorted(map(order.__getitem__, pair)) for pair in concurrent_pairs(expanded)):
        a, b = map(spelled.__getitem__, pair)
        task_a = expanded.tasks[a]
        task_b = expanded.tasks[b]
        both_write = task_a.write_set & task_b.write_set
        read_write = (
            (task_a.write_set & task_b.read_set) | (task_a.read_set & task_b.write_set)
        ) - both_write
        for var in sorted(both_write):
            violations.append(CrewViolation(a, b, var, WRITE_WRITE))
        for var in sorted(read_write):
            violations.append(CrewViolation(a, b, var, READ_WRITE))
    return violations


def reachable_pairs(g):
    """(a, b) for every precedence path a -> ... -> b, by a search from each task."""
    pairs = set()
    succ = g._successors
    for start in g.tasks:
        stack = list(succ[start])
        while stack:
            tid = stack.pop()
            if (start, tid) not in pairs:
                pairs.add((start, tid))
                stack.extend(succ[tid])
    return pairs


def crew_outcome(check, g):
    try:
        return check(g)
    except (CycleError, GraphStructureError) as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)


# Ids with "#" collide with instance ids; "v[#]" and "w#" collide with the
# literal names "v[0]", "v[1]" and "w0" after substitution.
CREW_IDS = ["a", "b", "c", "a#0", "a#1", "b#0", "b#2", "a#0#0"]
CREW_VARS = ["x", "y", "v[#]", "v[0]", "v[1]", "w#", "w0"]


@st.composite
def crew_graphs(draw):
    ids = draw(st.lists(st.sampled_from(CREW_IDS), unique=True, max_size=7))
    footprint = st.frozensets(st.sampled_from(CREW_VARS), max_size=3)
    tasks = []
    for tid in ids:
        kind = draw(st.sampled_from(TaskKind))
        if kind is TaskKind.CONTROL:
            tasks.append(control(tid))
        elif kind is TaskKind.DUPLICABLE:
            tasks.append(duplicable(tid, draw(st.integers(1, 4)), draw(footprint), draw(footprint)))
        else:
            tasks.append(singular(tid, draw(footprint), draw(footprint)))
    acyclic = draw(st.booleans())
    index = st.integers(0, max(len(ids) - 1, 0))
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * len(ids))) if ids else []
    g = TaskGraph(tasks, {(ids[i], ids[j]) for i, j in pairs if i < j or not acyclic})
    if draw(st.booleans()):
        try:
            return expand_duplicables(g)
        except GraphStructureError:
            pass
    return g


class TestTask:
    def test_entry_point_defaults_to_id(self):
        assert singular("a").entry_point == "a"

    def test_explicit_entry_point(self):
        t = Task(id="a", entry_point="stage_one", instruction_count=5)
        assert t.entry_point == "stage_one"

    def test_control_task_constraints(self):
        t = control("c", ControlKind.CONDITIONAL)
        assert t.instruction_count == 0
        assert t.entry_point is None
        with pytest.raises(ValidationError):
            Task(id="c", kind=TaskKind.CONTROL, control_kind=ControlKind.BRANCH, instruction_count=3)
        with pytest.raises(ValidationError):
            Task(id="c", kind=TaskKind.CONTROL, control_kind=ControlKind.BRANCH, read_set={"x"})
        with pytest.raises(ValidationError):
            Task(id="c", kind=TaskKind.CONTROL)  # control_kind required

    def test_duplicable_count(self):
        assert duplicable("d", 3).instances == 3
        with pytest.raises(ValidationError):
            duplicable("d", 0)
        with pytest.raises(ValidationError):
            Task(id="s", instances=2)  # only duplicables have instances

    def test_negative_instructions_rejected(self):
        with pytest.raises(ValidationError):
            Task(id="a", instruction_count=-1)

    def test_control_task_footprint_is_checked_as_stored(self):
        # An empty iterator is truthy, but the footprint it gives is empty.
        t = Task(id="c", kind=TaskKind.CONTROL, control_kind=ControlKind.MERGE, read_set=iter(()), write_set=iter(()))
        assert t.read_set == t.write_set == frozenset()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"id": ""}, "task id must be a non-empty string, got ''"),
            ({"kind": TaskKind.CONTROL, "control_kind": ControlKind.MERGE, "entry_point": "x"},
             "task 'c': control tasks carry no entry point"),
            ({"kind": TaskKind.CONTROL, "control_kind": ControlKind.MERGE, "instances": 2},
             "task 'c': a control task has one instance, got instances=2"),
            ({"control_kind": ControlKind.MERGE}, "task 'c': control_kind is only valid on control tasks"),
            ({"instances": 2}, "task 'c': a singular task has one instance, got instances=2"),
            # An empty entry point is refused as an empty id is; it was stored as ''.
            ({"entry_point": ""}, "task 'c': entry_point must be None or a non-empty string, got ''"),
        ],
        ids=["empty-id", "control-entry-point", "control-duplicable", "control-kind-on-singular", "singular-d",
             "empty-entry-point"],
    )
    def test_refusal_messages(self, fields, message):
        with pytest.raises(ValidationError) as info:
            Task(**{"id": "c", **fields})
        assert str(info.value) == message


class TestTaskGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphStructureError, match="duplicate"):
            TaskGraph([singular("a"), singular("a")])

    def test_dangling_edge_names_missing_id(self):
        with pytest.raises(GraphStructureError, match="ghost"):
            TaskGraph([singular("a")], [("a", "ghost")])

    @pytest.mark.parametrize(
        "edge",
        [(None, None), (1, 2), ("a",), ("a", "b", "c"), "ab", 5, (["a"], "b"), ("a", None), ({"b": 1}, "b")],
        ids=["none-pair", "int-pair", "short", "long", "string", "number", "list-endpoint", "none-endpoint", "dict"],
    )
    def test_bad_edge_is_refused_not_coerced(self, edge):
        # Endpoints were coerced with str(): (None, None) became a self-loop
        # of a task named 'None' and (1, 2) named tasks '1' and '2'.
        tasks = [singular(tid) for tid in ("a", "b", "None", "1", "2", "['a']")]
        with pytest.raises(GraphStructureError) as info:
            TaskGraph(tasks, [("a", "b"), edge, ("b", "a")])
        assert str(info.value) == f"edge {edge!r} must be a (predecessor, successor) pair of task ids"

    def test_conditional_needs_a_successor(self):
        # A run that reaches a conditional forwards to one of its successors,
        # so one with none could never be simulated; the least such id is named.
        tasks = [control("c", ControlKind.CONDITIONAL), control("b", ControlKind.CONDITIONAL),
                 control("m"), singular("a")]
        for edges, stuck in (([], "b"), ([("b", "a")], "c"), ([("a", "b")], "b")):
            with pytest.raises(GraphStructureError) as info:
                TaskGraph(tasks, edges)
            assert str(info.value) == f"conditional control task {stuck!r} has no successor"
        # A branch or merge with no successor ends its path, as a task does.
        g = TaskGraph(tasks, [("b", "a"), ("c", "a")])
        assert g.edges == {("b", "a"), ("c", "a")}

    def test_edges_may_be_lists_or_tuples_from_any_iterable(self):
        g = TaskGraph([singular("a"), singular("b"), singular("c")], iter([["a", "b"], ("b", "c"), ("a", "b")]))
        assert g.edges == frozenset({("a", "b"), ("b", "c")})

    def test_edge_endpoints_may_be_str_subclasses_as_task_ids_may(self):
        # Task takes any str as its id, so an edge between two such tasks is
        # accepted too; a non-str beside them is still refused by name.
        class Label(str):
            pass

        a, b = Label("a"), Label("b")
        g = TaskGraph([singular(a), singular(b), singular("c")], [(a, b), (b, "c")])
        assert g.edges == frozenset({("a", "b"), ("b", "c")})
        assert validate_dag(g) is None and concurrent_pairs(g) == set()
        with pytest.raises(GraphStructureError) as info:
            TaskGraph([singular(a), singular(b)], [(a, b), (b, 1)])
        assert str(info.value) == "edge ('b', 1) must be a (predecessor, successor) pair of task ids"

    def test_adjacency_helpers(self):
        g = TaskGraph([singular(t) for t in "abc"], [("a", "b"), ("a", "c")])
        assert g._successors == {"a": ["b", "c"], "b": [], "c": []}

    def test_equality(self):
        make = lambda: TaskGraph([singular("a"), singular("b")], [("a", "b")])
        assert make() == make()
        assert make() != TaskGraph([singular("a"), singular("b")])

    def test_edges_in_any_order_or_repeated_make_one_graph(self):
        # The successor lists are the graph's one record of precedence:
        # each task's distinct successors, ascending, whatever the order or
        # repetition of the edges given; ``edges`` is built from them.
        tasks = [singular(t) for t in "abc"]
        g = TaskGraph(tasks, [("a", "c"), ("a", "b"), ("b", "c")])
        for order, edges in ((tasks, [("b", "c"), ("a", "b"), ("a", "c")]),
                             (tasks[::-1], [["a", "c"], ("a", "b"), ("a", "c"), ("b", "c"), ["a", "b"]])):
            h = TaskGraph(order, edges)
            assert h == g
            assert h.edges == g.edges == frozenset({("a", "b"), ("a", "c"), ("b", "c")})
            assert h._successors == g._successors == {"a": ["b", "c"], "b": ["c"], "c": []}
            assert repr(h) == repr(g) == "TaskGraph(3 tasks, 3 edges)"
        with pytest.raises(AttributeError):
            g.edges = frozenset()
        assert not any(isinstance(value, frozenset) for value in vars(g).values())  # no edge set held

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"))), st.randoms(use_true_random=False))
    def test_shuffled_and_repeated_edges_make_an_equal_graph(self, edges, rng):
        tasks = [singular(t) for t in "abcd"]
        g = TaskGraph(tasks, edges)
        again = edges + rng.sample(edges, len(edges) // 2)
        rng.shuffle(again)
        h = TaskGraph(tasks, again)
        assert h == g and h.edges == g.edges == frozenset(edges) and repr(h) == repr(g)
        assert h._successors == g._successors == {t: sorted({s for p, s in edges if p == t}) for t in "abcd"}


class TestValidateDag:
    def test_empty_graph_ok(self):
        assert validate_dag(TaskGraph([])) is None

    def test_two_cycle_witness(self):
        g = TaskGraph([singular("A"), singular("B")], [("A", "B"), ("B", "A")])
        assert validate_dag(g) == ["A", "B", "A"]

    def test_diamond_ok(self):
        g = TaskGraph(
            [singular(t) for t in "ABCD"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        assert validate_dag(g) is None

    def test_self_loop(self):
        g = TaskGraph([singular("A")], [("A", "A")])
        assert validate_dag(g) == ["A", "A"]

    def test_deep_cycle_witness_walks_edges(self):
        g = TaskGraph(
            [singular(t) for t in "ABCDE"],
            [("A", "B"), ("B", "C"), ("C", "D"), ("D", "B"), ("A", "E")],
        )
        cycle = validate_dag(g)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        edges = g.edges
        for pred, succ in zip(cycle, cycle[1:]):
            assert (pred, succ) in edges

    def test_long_chain_no_recursion_limit(self):
        names = [f"t{i:05d}" for i in range(5000)]
        g = TaskGraph([singular(n) for n in names], list(zip(names, names[1:])))
        assert validate_dag(g) is None


class TestConcurrentPairs:
    def test_chain_has_none(self):
        g = TaskGraph([singular(t) for t in "ABC"], [("A", "B"), ("B", "C")])
        assert concurrent_pairs(g) == set()

    def test_diamond_middle_pair(self):
        g = TaskGraph(
            [singular(t) for t in "ABCD"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        assert concurrent_pairs(g) == {("B", "C")}

    def test_duplicable_instances_mutually_concurrent(self):
        g = expand_duplicables(TaskGraph([duplicable("T", 3)]))
        assert concurrent_pairs(g) == {("T#0", "T#1"), ("T#0", "T#2"), ("T#1", "T#2")}

    def test_antichain_pair_count(self):
        for n in (2, 5, 9):
            g = TaskGraph([singular(f"t{i}") for i in range(n)])
            assert len(concurrent_pairs(g)) == n * (n - 1) // 2

    def test_cyclic_input_rejected(self):
        g = TaskGraph([singular("A"), singular("B")], [("A", "B"), ("B", "A")])
        with pytest.raises(CycleError):
            concurrent_pairs(g)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(crew_graphs())
    def test_pairs_are_the_tasks_with_no_path_between_them(self, g):
        if validate_dag(g) is not None:
            return
        reach = reachable_pairs(g)
        ids = sorted(g.tasks)
        assert concurrent_pairs(g) == {
            (a, b)
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
            if (a, b) not in reach and (b, a) not in reach
        }


class TestCheckCrew:
    def test_concurrent_write_read(self):
        g = TaskGraph([singular("T1", writes={"x"}), singular("T2", reads={"x"})])
        assert check_crew(g) == [CrewViolation("T1", "T2", "x", READ_WRITE)]

    def test_concurrent_read_read_ok(self):
        g = TaskGraph([singular("T1", reads={"x"}), singular("T2", reads={"x"})])
        assert check_crew(g) == []

    def test_precedence_separates(self):
        g = TaskGraph(
            [singular("T1", writes={"x"}), singular("T2", reads={"x"})],
            [("T1", "T2")],
        )
        assert check_crew(g) == []

    def test_concurrent_write_write(self):
        g = TaskGraph([singular("T1", writes={"x"}), singular("T2", writes={"x"})])
        assert check_crew(g) == [CrewViolation("T1", "T2", "x", WRITE_WRITE)]

    def test_write_write_takes_precedence_over_read(self):
        g = TaskGraph(
            [singular("T1", reads={"x"}, writes={"x"}), singular("T2", writes={"x"})]
        )
        assert check_crew(g) == [CrewViolation("T1", "T2", "x", WRITE_WRITE)]

    def test_duplicable_plain_write_self_conflicts(self):
        g = TaskGraph([duplicable("T", 2, writes={"acc"})])
        assert check_crew(g) == [CrewViolation("T#0", "T#1", "acc", WRITE_WRITE)]

    def test_duplicable_indexed_writes_disjoint(self):
        g = TaskGraph([duplicable("T", 4, reads={"src"}, writes={"dst[#]"})])
        assert check_crew(g) == []

    def test_violations_sorted_and_complete(self):
        g = TaskGraph(
            [
                singular("a", reads={"v"}, writes={"w"}),
                singular("b", writes={"v", "w"}),
            ]
        )
        assert check_crew(g) == [
            CrewViolation("a", "b", "w", WRITE_WRITE),
            CrewViolation("a", "b", "v", READ_WRITE),
        ]


class TestCheckCrewMatchesPairwiseCheck:
    """``check_crew`` works on the authored graph; the pairwise check on the
    expanded graph is the reference it must reproduce, errors included."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(crew_graphs())
    # "v[#]" of instance 0 collides with a literal "v[0]".
    @example(TaskGraph([duplicable("a", 2, writes={"v[#]"}), singular("b", reads={"v[0]"})]))
    # Tasks that read and write the same variable.
    @example(TaskGraph([singular("a", {"x"}, {"x"}), duplicable("b", 2, {"x"}, {"x"})]))
    # Already-expanded input.
    @example(expand_duplicables(TaskGraph([duplicable("a", 3, {"y"}, {"w#", "y"})])))
    # Control tasks order their neighbours but touch no variables.
    @example(
        TaskGraph(
            [singular("a", writes={"x"}), control("b"), singular("c", reads={"x"}), singular("d", {"x"})],
            [("a", "b"), ("b", "c")],
        )
    )
    # A cycle through a duplicable: the witness names authored ids.
    @example(
        TaskGraph([duplicable("a", 2, writes={"x"}), singular("b")], [("a", "b"), ("b", "a")])
    )
    # The witness follows authored ids, not instance ids: "a" < "a!" < "a#0".
    @example(
        TaskGraph(
            [singular("r"), duplicable("a", 2), singular("a!")],
            [("r", "a"), ("r", "a!"), ("a", "r"), ("a!", "r")],
        )
    )
    # An instance id collides with an authored id.
    @example(TaskGraph([duplicable("a", 2), singular("a#1", writes={"x"})]))
    def test_same_result_as_pairwise_check(self, g):
        assert crew_outcome(check_crew, g) == crew_outcome(pairwise_check_crew, g)

    def test_stays_on_the_authored_graph(self, monkeypatch):
        def forbidden(g):
            raise AssertionError("check_crew built the expanded graph")

        monkeypatch.setattr(graph_module, "concurrent_pairs", forbidden)
        monkeypatch.setattr(graph_module, "expand_duplicables", forbidden)

        def fork_join(d, writes, *back_edges):
            return TaskGraph(
                [
                    singular("load", writes={"in"}),
                    duplicable("work", d, reads={"in"}, writes=writes),
                    singular("join", writes={"done"}),
                ],
                [("load", "work"), ("work", "join"), *back_edges],
            )

        assert check_crew(fork_join(4000, {"out[#]"})) == []
        violations = check_crew(fork_join(8, {"acc"}))
        assert len(violations) == 8 * 7 // 2
        assert {(v.variable, v.kind) for v in violations} == {("acc", WRITE_WRITE)}
        # The authored graph's witness, as validate_dag names it.
        g = fork_join(100_000, {"out[#]"}, ("join", "load"))
        with pytest.raises(CycleError) as caught:
            check_crew(g)
        assert caught.value.cycle == validate_dag(g) == ["join", "load", "work", "join"]


def contended(g):
    return g._contended


def crew_variables(check):
    """The variables that the violations ``check`` finds name."""
    return lambda g: frozenset(violation.variable for violation in check(g))


class TestPrivateVariables:
    """A variable is private to the simulator's arbitration, and granted by
    arithmetic, unless some CREW violation names it: ``g._contended`` holds
    the others."""

    def test_singular_chain_shares_private_variable(self):
        g = TaskGraph(
            [singular("a", writes={"v"}), singular("b", {"v"}, {"v"}), singular("c", reads={"v"})],
            [("a", "b"), ("b", "c")],
        )
        assert contended(g) == set()

    def test_duplicable_instances_writing_one_name_are_not_private(self):
        g = TaskGraph([duplicable("T", 2, reads={"in[#]"}, writes={"acc"})])
        assert contended(g) == {"acc"}

    def test_instance_variable_meets_literal_name(self):
        # Instance 0's "v[#]" is "v[0]", which the singular task names literally.
        tasks = [duplicable("w", 2, writes={"v[#]"}), singular("r", reads={"v[0]"})]
        assert contended(TaskGraph(tasks, [("w", "r")])) == set()
        assert contended(TaskGraph(tasks)) == {"v[0]"}

    def test_not_taken_branch_still_counts(self):
        # Only one branch ever runs, but the static test keeps both touchers.
        g = TaskGraph(
            [
                singular("start", writes={"cfg"}),
                control("pick", ControlKind.CONDITIONAL),
                singular("left", reads={"cfg"}, writes={"z"}),
                singular("right", writes={"z"}),
            ],
            [("start", "pick"), ("pick", "left"), ("pick", "right")],
        )
        assert contended(g) == {"z"}

    def test_diamond_concurrent_readers_share_x(self):
        # "B" and "C" read "x" at once, which CREW allows: no violation, so
        # nothing contends.  A concurrent write would make "x" contended.
        tasks = [
            singular("A", writes={"x", "a"}),
            singular("B", reads={"x"}),
            singular("C", reads={"x"}),
            singular("D", reads={"x", "a"}),
        ]
        edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
        assert contended(TaskGraph(tasks, edges)) == set()
        tasks[2] = singular("C", writes={"x"})
        assert contended(TaskGraph(tasks, edges)) == {"x"}

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(crew_graphs())
    @example(TaskGraph([duplicable("a", 2, writes={"v[#]"}), singular("b", reads={"v[0]"})]))
    @example(TaskGraph([duplicable("a", 1, {"x"}, {"x"}), singular("b", {"x"})], [("a", "b")]))
    @example(
        TaskGraph([duplicable("a", 2, writes={"x"}), singular("b")], [("a", "b"), ("b", "a")])
    )
    @example(TaskGraph([duplicable("a", 2), singular("a#1", writes={"x"})]))
    def test_same_result_as_pairwise_reference(self, g):
        # The contended set is the set of variables that the violations name,
        # errors included, whether check_crew or the pairwise check finds them.
        outcome = crew_outcome(contended, g)
        assert outcome == crew_outcome(crew_variables(check_crew), g)
        assert outcome == crew_outcome(crew_variables(pairwise_check_crew), g)


# Names whose runs of digits and "#" line up in many ways: "s#[1]" and
# "s1[#]" meet at "s1[1]", "x#1" and "x1#" at "x11" (instances 1 and 1, or
# 11 and 1), "v[#]" meets "v[0]" and "v[10]", and a literal with "#" meets
# only itself.  "s0[#]" to "s3[#]" share a shape but not its fixed run.
MEET_VARS = ["v[#]", "v[0]", "v[10]", "s#[1]", "s1[#]", "s0[#]", "s1[1]", "x#1", "x1#", "x11", "#", "1#", "11",
             "s2[#]", "s3[#]"]
# Names a task may both read and write: an accumulator, and an in-place update.
UPDATED_VARS = ["acc", "x[#]", "s2[#]"]


@st.composite
def meeting_graphs(draw):
    ids = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=1, max_size=8))
    footprint = st.frozensets(st.sampled_from(MEET_VARS), max_size=3)
    tasks = []
    for tid in ids:
        updated = draw(st.frozensets(st.sampled_from(UPDATED_VARS), max_size=2))
        reads, writes = draw(footprint) | updated, draw(footprint) | updated
        if draw(st.booleans()):
            tasks.append(duplicable(tid, draw(st.integers(1, 12)), reads, writes))
        else:
            tasks.append(singular(tid, reads, writes))
    index = st.integers(0, len(ids) - 1)
    edges = {(ids[i], ids[j]) for i, j in draw(st.lists(st.tuples(index, index), max_size=6)) if i < j}
    if draw(st.booleans()):
        edges |= set(zip(ids, ids[1:]))  # a chain through every task
    return TaskGraph(tasks, edges)


# Ids that spell instance numbers of "w" or "v", or nearly: "w#05" and "w#+1"
# are not how str() spells a number, nor is an Arabic-Indic digit.
CLASH_IDS = ["w", "w#0", "w#05", "w#11", "w#12", "w#1", "w#1#0", "w#\u0663", "w#+1", "v", "v#0"]


def expanded_id_clash(g):
    """The first id that the expanded graph would hold twice, tasks ascending."""
    seen = set()
    for tid, task in sorted(g.tasks.items()):
        ids = [f"{tid}#{k}" for k in range(task.instances)] if task.kind is TaskKind.DUPLICABLE else [tid]
        clash = next((iid for iid in ids if iid in seen), None)
        if clash is not None:
            return clash
        seen.update(ids)
    return None


def writer_chain(n):
    """A chain of ``n`` singular tasks that each read and write "x", and one
    reader of "x" concurrent with all of them: ``n`` read-write violations."""
    ids = [f"t{k:05d}" for k in range(n)]
    return TaskGraph([*(singular(tid, {"x"}, {"x"}) for tid in ids), singular("r", {"x"})], zip(ids, ids[1:]))


class TestPerTaskFootprint:
    """The footprint index reads authored names and expands only those that
    may meet; the pairwise check on the expanded graph must still agree."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(meeting_graphs())
    @example(writer_chain(2000))
    def test_same_result_as_pairwise_check(self, g):
        assert crew_outcome(check_crew, g) == crew_outcome(pairwise_check_crew, g)
        assert crew_outcome(contended, g) == crew_outcome(crew_variables(pairwise_check_crew), g)

    def test_clean_graph_expands_no_instance(self, monkeypatch):
        # Stage k reads "s{k}[#]" and writes "s{k+1}[#]": the names share a
        # shape, but their fixed digits differ or their tasks are ordered.
        def forbidden(*args):
            raise AssertionError("an instance footprint was expanded")

        monkeypatch.setattr(graph_module, "_instance_footprint", forbidden)
        stages = [duplicable(f"st{k}", 10**400, {f"s{k}[#]"}, {f"s{k + 1}[#]"}) for k in range(4)]
        chain = [("load", "st0"), ("st0", "st1"), ("st1", "st2"), ("st2", "st3")]
        g = TaskGraph([singular("load", writes={"s0[#]"}), *stages], chain)
        assert check_crew(g) == [] and g._contended == frozenset()

    def test_clean_pipelines_cost_no_square(self, monkeypatch):
        # Each task's names are tested against its ordered-with bitset once,
        # so N chained tasks that share a name cost no N * N pair tests.
        def forbidden(*args):
            raise AssertionError("an instance footprint was expanded")

        monkeypatch.setattr(graph_module, "_instance_footprint", forbidden)
        ids = [f"t{k:04d}" for k in range(5000)]
        pipelines = {
            "accumulator": [singular(tid, {"acc"}, {"acc"}) for tid in ids],
            "stages": [duplicable(tid, 64, {f"s{k}[#]"}, {f"s{k + 1}[#]"}) for k, tid in enumerate(ids)],
            "in-place": [duplicable(tid, 64, {"x[#]"}, {"x[#]"}) for tid in ids],
        }
        for name, tasks in pipelines.items():
            g = TaskGraph(tasks, zip(ids, ids[1:]))
            start = time.perf_counter()
            assert check_crew(g) == [] and g._contended == frozenset(), name
            assert time.perf_counter() - start < 2, name

    def test_writer_chain_costs_no_square(self):
        # Each writer meets only the touchers of the tasks concurrent with it,
        # so N chained writers and one concurrent reader cost O(N), not the
        # N * N writer-toucher tests that took 2.2 s at N = 4000.
        g = writer_chain(5000)
        start = time.perf_counter()
        violations = check_crew(g)
        assert time.perf_counter() - start < 1
        assert len(violations) == 5000 and g._contended == {"x"}
        assert {(v.task_a, v.variable, v.kind) for v in violations} == {("r", "x", READ_WRITE)}

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.sampled_from(CLASH_IDS), unique=True), st.data())
    def test_id_clash_is_the_expanded_graphs(self, ids, data):
        # "w#1" is an instance id of "w" unless "w#1" is itself duplicable.
        draw = data.draw
        tasks = [duplicable(tid, draw(st.integers(1, 12))) if draw(st.booleans()) else singular(tid) for tid in ids]
        g = TaskGraph(tasks)
        clash = expanded_id_clash(g)
        if clash is None:
            check_crew(g)
        else:
            with pytest.raises(GraphStructureError) as caught:
                check_crew(g)
            assert str(caught.value) == f"duplicate task id {clash!r}"


class TestCountedCandidates:
    """Every graph has its names counted first: only the names that may meet
    are grouped, and only their owners and those owners' descendants get
    ordered-with bits.  The pairwise check on the expanded graph must agree."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.one_of(crew_graphs(), meeting_graphs()))
    @example(TaskGraph([duplicable("a", 2, writes={"v[#]"}), singular("b", reads={"v[0]"})]))
    @example(TaskGraph([duplicable("a", 2, writes={"acc"}), singular("b", reads={"s1[1]"}), duplicable("c", 2, {"s#[1]"})]))
    def test_same_result_as_pairwise_check(self, g):
        assert crew_outcome(check_crew, g) == crew_outcome(pairwise_check_crew, g)
        assert crew_outcome(contended, g) == crew_outcome(crew_variables(pairwise_check_crew), g)


class TestExpandDuplicables:
    def test_fanout_inherits_edges(self):
        g = TaskGraph(
            [singular("A"), duplicable("T", 2, n=7), singular("B")],
            [("A", "T"), ("T", "B")],
        )
        out = expand_duplicables(g)
        assert set(out.tasks) == {"A", "T#0", "T#1", "B"}
        assert out.edges == frozenset(
            {("A", "T#0"), ("A", "T#1"), ("T#0", "B"), ("T#1", "B")}
        )
        for k in (0, 1):
            inst = out.tasks[f"T#{k}"]
            assert inst.kind is TaskKind.SINGULAR
            assert inst.entry_point == "T"
            assert inst.instruction_count == 7

    def test_single_instance_expansion(self):
        out = expand_duplicables(TaskGraph([duplicable("T", 1)]))
        assert set(out.tasks) == {"T#0"}

    def test_no_duplicables_is_identity(self):
        g = TaskGraph([singular("A"), singular("B")], [("A", "B")])
        assert expand_duplicables(g) == g

    def test_idempotent(self):
        g = TaskGraph(
            [singular("A"), duplicable("T", 3, writes={"out[#]"}), control("J")],
            [("A", "T"), ("T", "J")],
        )
        once = expand_duplicables(g)
        assert expand_duplicables(once) == once

    def test_preserves_acyclicity(self):
        g = TaskGraph(
            [singular("A"), duplicable("T", 4), singular("B")],
            [("A", "T"), ("T", "B")],
        )
        assert validate_dag(expand_duplicables(g)) is None

    def test_placeholder_substitution(self):
        out = expand_duplicables(
            TaskGraph([duplicable("T", 2, reads={"in[#]", "shared"}, writes={"out[#]"})])
        )
        assert out.tasks["T#1"].read_set == frozenset({"in[1]", "shared"})
        assert out.tasks["T#1"].write_set == frozenset({"out[1]"})
