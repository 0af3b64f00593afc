"""The limit path on masks: the refinement limit builds no cover, a witness
run names the opens once, and monotonicity is decided on Hasse masks."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratcalc import (
    Cover,
    FiniteSpace,
    alexandroff_from_poset,
    discrete_space,
    generate_topology,
    maximal_cover,
    refined_poset,
)
from stratcalc.cli import main
from stratcalc.spaces import Poset

NAMES = "abcdefgh"


def pair_lists(order):
    """Lists of pairs that follow the linear ``order``, so that every union
    of them generates a poset; ``order`` need not be the sorted one."""
    n = len(order)
    index_pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] < p[1]
    )
    return st.lists(index_pairs, max_size=12).map(
        lambda ps: [(order[i], order[j]) for i, j in ps]
    ) if n > 1 else st.just([])


def first_failing_pair(source, mapping, target):
    for a, b in sorted(source.leq):
        if (mapping[a], mapping[b]) not in target.leq:
            return (a, b)
    return None


def hasse_pairs(poset):
    strict = poset.strict_pairs()
    return sorted(
        (a, b) for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in poset.elements)
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_monotone_counterexample_is_the_first_failing_pair_of_leq(data):
    elements = NAMES[:data.draw(st.integers(0, 8))]
    order = data.draw(st.permutations(elements))
    pairs = data.draw(pair_lists(order))
    source = Poset.generate(elements, pairs)
    kind = data.draw(st.sampled_from(["any", "outside", "constant", "finer", "coarser"]))
    if kind in ("finer", "coarser"):
        # the identity into a finer order is monotone, out of it usually not
        finer = Poset.generate(elements, pairs + data.draw(pair_lists(order)))
        source, target = (source, finer) if kind == "finer" else (finer, source)
        mapping = {e: e for e in elements}
    else:
        size = data.draw(st.integers(1, 8))
        target_order = data.draw(st.permutations(NAMES[:size]))
        target = Poset.generate(NAMES[:size], data.draw(pair_lists(target_order)))
        images = list(target.elements)
        if kind == "outside":
            images.append("zz")
        elif kind == "constant":
            images = images[:1]
        mapping = {e: data.draw(st.sampled_from(images)) for e in elements}
    expected = first_failing_pair(source, mapping, target)
    assert source.monotone_counterexample(mapping, target) == expected
    assert source.is_monotone(mapping, target) == (expected is None)
    assert source.covers() == hasse_pairs(source)
    if kind in ("finer", "constant"):
        assert expected is None


def count_covers_built(monkeypatch):
    built = []
    real = Cover.__post_init__

    def counted(self):
        built.append(self.members)
        real(self)

    monkeypatch.setattr(Cover, "__post_init__", counted)
    return built


def test_refined_poset_builds_no_cover(monkeypatch):
    built = count_covers_built(monkeypatch)
    chain = alexandroff_from_poset(Poset.generate("abcde", [("a", "b"), ("b", "c"), ("c", "d")]))
    spaces = [discrete_space("abcd"), chain, generate_topology("pqrs", ["pq", "qr", "s"])]
    quotients = [refined_poset(space) for space in spaces]
    assert built == []
    assert [len(q.classes) for q in quotients] == [4, 5, 4]
    # the counter does see a cover being built
    maximal_cover(spaces[0])
    assert len(built) == 1


def test_witness_run_never_lists_the_sorted_opens(tmp_path, monkeypatch):
    calls = []
    real = FiniteSpace.opens_sorted

    def counted(self):
        calls.append(self.points)
        return real(self)

    monkeypatch.setattr(FiniteSpace, "opens_sorted", counted)
    space = tmp_path / "chain.json"
    points = [f"x{i}" for i in range(6)]
    space.write_text(json.dumps({"points": points, "poset": list(zip(points, points[1:]))}))
    out = tmp_path / "limit.json"
    assert main(["limit", "--space", str(space), "--out", str(out), "--witness"]) == 0
    # the whole-space cover and one (u, full) cover for each of the five other opens
    assert len(json.loads(out.read_text())["witnesses"]) == 6
    assert calls == []


@pytest.mark.parametrize("base_map, message", [
    (5, "field 'base_map' has the wrong type"),
    ([["a"]], "entries of base_map must be [from, to] pairs"),
    ([[["a"], "a"]], "entries of base_map must pair two point names"),
    ([["a", "a"], ["a", "b"]], "conflicting images for point 'a'"),
])
def test_malformed_base_map_exits_2(tmp_path, capsys, base_map, message):
    space = {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}
    spec = {"kind": "obvious", "arity": 1, "space_x": space, "base_map": base_map}
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"spec": spec, "point": {"x": [0.5], "v": [1.0]}}))
    assert main(["derive", "--query", str(query)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
