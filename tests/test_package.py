"""The package namespace, its imports and the frozen record classes."""

import ast
import sys
from pathlib import Path

import pytest

import hyperkirch as hk
from hyperkirch import kirchhoff
from hyperkirch.lattice import ComponentGroup, IntMatrix, TropTorus
from hyperkirch.poly import MultilinearPoly
from hyperkirch.stability import CharRange, EdgeOrbit, StabilityParam, StrataComplex
from hyperkirch.volumes import LocalFieldParams


def test_every_public_name_resolves():
    assert set(hk.__all__) == {*hk._MODULE, "__version__"}
    for name in hk.__all__:
        assert getattr(hk, name) is not None, name
    assert hk.psi_det is kirchhoff.psi_det
    namespace = {}
    exec("from hyperkirch import *", namespace)
    assert set(hk.__all__) <= set(namespace)
    assert set(hk.__all__) <= set(dir(hk))
    with pytest.raises(AttributeError):
        hk.no_such_name
    assert not hasattr(hk, "no_such_name")


def test_names_are_looked_up_in_their_module_each_time(monkeypatch):
    """A patch of a submodule reaches the package name and ends with it: the
    package keeps no copy of what a name resolved to."""
    original = kirchhoff.psi_det

    def patched(graph, weights):
        return original(graph, weights)

    monkeypatch.setattr(kirchhoff, "psi_det", patched)
    assert hk.psi_det is patched
    monkeypatch.undo()
    assert hk.psi_det is original
    assert "psi_det" not in vars(hk)


def test_package_imports_only_the_standard_library():
    """Every import in the package's modules, at any depth of the file,
    names a standard-library module or the package itself."""
    files = sorted(Path(hk.__file__).parent.glob("*.py"))
    assert len(files) >= 9
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "hyperkirch", (path.name, name)


GRAM = IntMatrix(((3,),))
POLY = MultilinearPoly(frozenset({"a"}), {frozenset({"a"}): 1})
STRATA = StrataComplex(("e1",), ((0,),), (), ((((-1,), 0),),), True)

# (record, its field values, its repr)
RECORDS = [
    (IntMatrix(((1, 2), (3, 4))), (((1, 2), (3, 4)),), "IntMatrix(entries=((1, 2), (3, 4)))"),
    (ComponentGroup((1, 3)), ((1, 3),), "ComponentGroup(invariant_factors=(1, 3))"),
    (TropTorus(1, GRAM, 3), (1, GRAM, 3), "TropTorus(rank=1, gram=IntMatrix(entries=((3,),)), covolume=3)"),
    (POLY, (frozenset({"a"}), {frozenset({"a"}): 1}),
     "MultilinearPoly(variables=frozenset({'a'}), terms={frozenset({'a'}): 1})"),
    (StabilityParam({"u": -1, "v": 1}, 2), ({"u": -1, "v": 1}, 2),
     "StabilityParam(eta={'u': -1, 'v': 1}, N=2)"),
    (EdgeOrbit("segment", 0), ("segment", 0), "EdgeOrbit(kind='segment', level=0)"),
    (CharRange(None, 3), (None, 3), "CharRange(lo=None, hi=3)"),
    (STRATA, (("e1",), ((0,),), (), ((((-1,), 0),),), True),
     "StrataComplex(edge_order=('e1',), nodes=((0,),), adjacency=(), "
     "faces=((((-1,), 0),),), connected=True)"),
    (LocalFieldParams(4, 2, 3), (4, 2, 3), "LocalFieldParams(q=4, p=2, k=3)"),
]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_repr_equality_hash_and_freezing(record, fields, text):
    cls = type(record)
    assert repr(record) == text
    assert record == cls(*fields)
    assert record != fields and not record == fields
    try:
        expected = hash(fields)
    except TypeError:  # a dict field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    name = text[len(cls.__name__) + 1:].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == fields[0]


def test_record_arguments_defaults_and_post_init():
    assert EdgeOrbit("generic") == EdgeOrbit(kind="generic", level=None)
    assert EdgeOrbit(level=2, kind="point").level == 2
    assert CharRange(1, 2) != CharRange(1, 3)
    assert EdgeOrbit("generic") != CharRange("generic", None)
    with pytest.raises(TypeError):
        CharRange(1)
    with pytest.raises(TypeError):
        CharRange(1, 2, 3)
    with pytest.raises(TypeError):
        CharRange(1, hi=2, width=3)
    with pytest.raises(TypeError):
        CharRange(1, lo=2)
    # __post_init__ still checks the fields
    with pytest.raises(hk.DomainError):
        EdgeOrbit("bogus")
    with pytest.raises(hk.DomainError):
        EdgeOrbit("segment")
    with pytest.raises(hk.DomainError):
        LocalFieldParams(q=6, p=2, k=1)
