"""The record contract: every record type of the library is built from its
fields by position or by keyword, compares and hashes by class and fields,
refuses assignment and deletion, and keeps the repr its frozen dataclass
had, byte for byte."""

import pickle

import pytest

import local_antimagic as la
from local_antimagic import cycle_merge, circulants, oracle, reproduce, unions

G3 = la.build_cycle(3)
F3 = la.EdgeLabeling((1, 2, 3))
PLAN = la.MergePlan(4, ((0, 2), (1, 3)), ("A", "B"))
ARRAYS = cycle_merge.EvenOddArrays(((0,), (2,)), ((1, 3),))
BOUNDS = oracle.Bounds(3, "chromatic number", 3, "cycle labeling C_3")
G3_REPR = "Graph(n=3, edges=((0, 1), (1, 2), (2, 0)))"
F3_REPR = "EdgeLabeling(labels=(1, 2, 3))"
PLAN_REPR = "MergePlan(n=4, blocks=((0, 2), (1, 3)), kinds=('A', 'B'))"
C3 = la.InducedColoring((3, 4, 5), frozenset({3, 4, 5}), ())
C3_REPR = "InducedColoring(sums=(3, 4, 5), colors=frozenset({3, 4, 5}), conflicts=())"

# Each record type with its fields, by keyword, and the repr its frozen
# dataclass gave.
RECORDS = [
    (la.Graph, dict(n=3, edges=((0, 1), (1, 2))), "Graph(n=3, edges=((0, 1), (1, 2)))"),
    (la.CirculantSpec, dict(m=8, steps=(1, 3)), "CirculantSpec(m=8, steps=(1, 3))"),
    (la.MergePlan, dict(n=4, blocks=((0, 2), (1, 3)), kinds=("A", "B")), PLAN_REPR),
    (la.EdgeLabeling, dict(labels=(1, 2, 3)), F3_REPR),
    (la.InducedColoring, dict(sums=(3, 4, 5), colors=frozenset({3, 4, 5}), conflicts=()),
     C3_REPR),
    (la.Labeled, dict(graph=G3, labeling=F3, coloring=C3),
     f"Labeled(graph={G3_REPR}, labeling={F3_REPR}, coloring={C3_REPR})"),
    (la.TwoColorVerdict,
     dict(bipartite=True, part_sizes=(2, 2), pendant_count=0, two_colors_possible=False),
     "TwoColorVerdict(bipartite=True, part_sizes=(2, 2), pendant_count=0, "
     "two_colors_possible=False)"),
    (circulants.LabelingMatrixView, dict(entries=((None, 1), (1, None)), row_sums=(1, 1)),
     "LabelingMatrixView(entries=((None, 1), (1, None)), row_sums=(1, 1))"),
    (cycle_merge.EvenOddArrays, dict(evens=((0,), (2,)), odds=((1, 3),)),
     "EvenOddArrays(evens=((0,), (2,)), odds=((1, 3),))"),
    (la.ConstructionMatrix,
     dict(s=2, t=0, n=4, arrays=ARRAYS, labels=((1, 2), (None, 3)),
          spec=la.CirculantSpec(8, (1, 3)), graph=G3, labeling=F3, coloring=C3),
     "ConstructionMatrix(s=2, t=0, n=4, arrays=EvenOddArrays(evens=((0,), (2,)), "
     "odds=((1, 3),)), labels=((1, 2), (None, 3)), spec=CirculantSpec(m=8, steps=(1, 3)), "
     f"graph={G3_REPR}, labeling={F3_REPR}, coloring={C3_REPR})"),
    (la.UnionSpec, dict(orders=(3, 4)), "UnionSpec(orders=(3, 4))"),
    (unions.UnionLabelingResult,
     dict(spec=la.UnionSpec((3, 4)), graph=G3, labeling=F3, coloring=C3),
     f"UnionLabelingResult(spec=UnionSpec(orders=(3, 4)), graph={G3_REPR}, "
     f"labeling={F3_REPR}, coloring={C3_REPR})"),
    (la.KeepCycle, dict(cycle=1), "KeepCycle(cycle=1)"),
    (la.FuseCycles, dict(first=0, second=1, step=3), "FuseCycles(first=0, second=1, step=3)"),
    (la.MergeCycle, dict(cycle=2, plan=PLAN), f"MergeCycle(cycle=2, plan={PLAN_REPR})"),
    (oracle.Bounds,
     dict(lower=2, lower_source="pendants", upper=3, upper_source="search witness"),
     "Bounds(lower=2, lower_source='pendants', upper=3, upper_source='search witness')"),
    (la.OracleResult,
     dict(value=3, witness=F3, nodes=0, seconds=0.5, bounds=BOUNDS,
          searches=(oracle.SearchRun(3, 7, 0.25),)),
     f"OracleResult(value=3, witness={F3_REPR}, nodes=0, seconds=0.5, "
     "bounds=Bounds(lower=3, lower_source='chromatic number', upper=3, "
     "upper_source='cycle labeling C_3'), searches=(SearchRun(k=3, nodes=7, seconds=0.25),))"),
    (reproduce.Claim, dict(name="a claim", run=len),
     "Claim(name='a claim', run=<built-in function len>)"),
]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=lambda x: getattr(x, "__name__", ""))
def test_record_contract(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    same = cls(*fields.values())
    assert record == same and not record != same and hash(record) == hash(same)
    assert record.__eq__(object()) is NotImplemented and record != object()
    assert pickle.loads(pickle.dumps(record)) == record
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == same


@pytest.mark.parametrize("cls,fields,text", [r for r in RECORDS if r[0] is not la.Graph],
                         ids=lambda x: getattr(x, "__name__", ""))
def test_records_hash_and_compare_their_fields_as_a_tuple(cls, fields, text):
    record = cls(**fields)
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert hash(record) == hash(tuple(fields.values()))


def test_graphs_hash_and_compare_their_columns_and_names():
    g = la.Graph(n=3, edges=((0, 1), (1, 2)), provenance=[["a"], ["b"], ["c"]])
    assert hash(g) == hash((3, (0, 1), (1, 2), (("a",), ("b",), ("c",))))
    assert g != la.Graph(3, ((0, 1), (1, 2)))
    assert la.Graph(n=3, edges=((0, 1), (1, 2))) == la.Graph(3, [[0, 1], [1, 2]])


def test_record_init_refuses_missing_and_unknown_fields():
    for build in (lambda: la.KeepCycle(), lambda: la.KeepCycle(1, 2),
                  lambda: la.KeepCycle(1, cycle=1), lambda: la.KeepCycle(circle=1),
                  lambda: la.FuseCycles(0, second=1), lambda: la.EdgeLabeling(),
                  lambda: la.OracleResult(3, F3, 0, 0.5)):
        with pytest.raises(TypeError):
            build()
    assert la.FuseCycles(0, step=3, second=1) == la.FuseCycles(0, 1, 3)
    assert la.OracleResult(3, F3, 0, 0.5, BOUNDS).searches == ()


def test_derived_attributes_stay_out_of_equality_and_repr():
    # MergePlan.rank and EvenOddArrays.index are derived at init.
    assert PLAN.rank == (0, 1, 0, 1) and "rank" not in repr(PLAN)
    assert ARRAYS.index == [0, 0, 1, 1] and "index" not in repr(ARRAYS)
    assert hash(ARRAYS) == hash((ARRAYS.evens, ARRAYS.odds))  # the index list is unhashable
    with pytest.raises(AttributeError):
        PLAN.rank = ()


def test_search_budget_is_immutable_hashable(monkeypatch):
    budget = la.SearchBudget(max_edges=12, node_limit=5)
    assert la.SearchBudget._fields == ("max_edges", "node_limit")
    assert repr(budget) == "SearchBudget(max_edges=12, node_limit=5)"
    assert budget == la.SearchBudget(12, 5) and budget != la.SearchBudget(12)
    assert hash(budget) == hash((12, 5)) and len({budget, la.SearchBudget(12, 5)}) == 1
    with pytest.raises(AttributeError):
        budget.node_limit = 6
    with pytest.raises(TypeError):
        la.SearchBudget(12, 5, 1.5)
    # The default comes from no environment variable.
    monkeypatch.setenv(oracle.BUDGET_ENV, "4")
    assert la.SearchBudget() == la.SearchBudget(None) == la.SearchBudget(10, None)
    assert oracle.DEFAULT_MAX_EDGES == 10


def test_search_runs_are_named_tuples():
    run = oracle.SearchRun(3, 7, 0.25)
    assert run == (3, 7, 0.25) and run._asdict() == {"k": 3, "nodes": 7, "seconds": 0.25}
    assert repr(run) == "SearchRun(k=3, nodes=7, seconds=0.25)"


def test_directives_are_the_three_directive_records():
    for directive in (la.KeepCycle(0), la.FuseCycles(0, 1, 3), la.MergeCycle(2, PLAN)):
        assert isinstance(directive, unions.Directive)
    assert not isinstance(la.UnionSpec((3, 4)), unions.Directive)
