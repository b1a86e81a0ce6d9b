"""Tests for task graphs, DAG validation, concurrency, and CREW checking."""

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
    private_variables,
    validate_dag,
)
from plural.graph import READ_WRITE, WRITE_WRITE, _successor_map


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
    of the expanded graph."""
    expanded = expand_duplicables(g)
    violations = []
    for a, b in sorted(concurrent_pairs(expanded)):
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


def pairwise_private_variables(g):
    """Reference privacy test: a concrete variable is private when no pair of
    the expanded graph's tasks that touch it is concurrent."""
    expanded = expand_duplicables(g)
    concurrent = concurrent_pairs(expanded)
    touchers = {}
    for tid in sorted(expanded.tasks):
        task = expanded.tasks[tid]
        for var in task.read_set | task.write_set:
            touchers.setdefault(var, []).append(tid)
    return frozenset(
        var
        for var, tids in touchers.items()
        if not any((a, b) in concurrent for i, a in enumerate(tids) for b in tids[i + 1 :])
    )


def reachable_pairs(g):
    """(a, b) for every precedence path a -> ... -> b, by a search from each task."""
    pairs = set()
    succ = _successor_map(g)
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


class TestTaskGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphStructureError, match="duplicate"):
            TaskGraph([singular("a"), singular("a")])

    def test_dangling_edge_names_missing_id(self):
        with pytest.raises(GraphStructureError, match="ghost"):
            TaskGraph([singular("a")], [("a", "ghost")])

    def test_adjacency_helpers(self):
        g = TaskGraph([singular(t) for t in "abc"], [("a", "b"), ("a", "c")])
        assert _successor_map(g) == {"a": ["b", "c"], "b": [], "c": []}

    def test_equality(self):
        make = lambda: TaskGraph([singular("a"), singular("b")], [("a", "b")])
        assert make() == make()
        assert make() != TaskGraph([singular("a"), singular("b")])


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
    # A cycle through a duplicable: the witness names instance ids.
    @example(
        TaskGraph([duplicable("a", 2, writes={"x"}), singular("b")], [("a", "b"), ("b", "a")])
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

        def fork_join(d, writes):
            return TaskGraph(
                [
                    singular("load", writes={"in"}),
                    duplicable("work", d, reads={"in"}, writes=writes),
                    singular("join", writes={"done"}),
                ],
                [("load", "work"), ("work", "join")],
            )

        assert check_crew(fork_join(4000, {"out[#]"})) == []
        violations = check_crew(fork_join(8, {"acc"}))
        assert len(violations) == 8 * 7 // 2
        assert {(v.variable, v.kind) for v in violations} == {("acc", WRITE_WRITE)}


class TestPrivateVariables:
    def test_singular_chain_shares_private_variable(self):
        g = TaskGraph(
            [singular("a", writes={"v"}), singular("b", {"v"}, {"v"}), singular("c", reads={"v"})],
            [("a", "b"), ("b", "c")],
        )
        assert private_variables(g) == {"v"}

    def test_duplicable_instances_writing_one_name_are_not_private(self):
        g = TaskGraph([duplicable("T", 2, reads={"in[#]"}, writes={"acc"})])
        assert private_variables(g) == {"in[0]", "in[1]"}

    def test_instance_variable_meets_literal_name(self):
        # Instance 0's "v[#]" is "v[0]", which the singular task names literally.
        tasks = [duplicable("w", 2, writes={"v[#]"}), singular("r", reads={"v[0]"})]
        assert private_variables(TaskGraph(tasks, [("w", "r")])) == {"v[0]", "v[1]"}
        assert private_variables(TaskGraph(tasks)) == {"v[1]"}

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
        assert private_variables(g) == {"cfg"}

    def test_diamond_concurrent_readers_share_x(self):
        g = TaskGraph(
            [
                singular("A", writes={"x", "a"}),
                singular("B", reads={"x"}),
                singular("C", reads={"x"}),
                singular("D", reads={"x", "a"}),
            ],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        assert private_variables(g) == {"a"}

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(crew_graphs())
    @example(TaskGraph([duplicable("a", 2, writes={"v[#]"}), singular("b", reads={"v[0]"})]))
    @example(TaskGraph([duplicable("a", 1, {"x"}, {"x"}), singular("b", {"x"})], [("a", "b")]))
    @example(
        TaskGraph([duplicable("a", 2, writes={"x"}), singular("b")], [("a", "b"), ("b", "a")])
    )
    @example(TaskGraph([duplicable("a", 2), singular("a#1", writes={"x"})]))
    def test_same_result_as_pairwise_reference(self, g):
        assert crew_outcome(private_variables, g) == crew_outcome(pairwise_private_variables, g)


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
            assert inst.instance_number == k

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
