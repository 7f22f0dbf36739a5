"""Each result record against the frozen dataclass it replaced.

``conftest`` keeps the 13 former dataclass definitions under their own
names.  Every record and its oracle are built from the same values, with
the defaults omitted and with them given, and must agree on repr, str,
equality, hashing, field order, immutability, ``_replace`` (against
``dataclasses.replace``) and the errors their constructors raise.
"""

import copy
import dataclasses
import importlib
import pickle

import pytest

from conftest import FORMER_RECORDS
from conjtop.complexes import SimplicialComplex, identity_map
from conjtop.errors import InputError, Record
from conjtop.gf2 import Gf2Matrix
from conjtop.intmat import IntMatrix

K = SimplicialComplex.from_simplices(4, [(0, 1, 2), (1, 2, 3)])
K2 = SimplicialComplex.from_simplices(3, [(0, 1), (1, 2)])
TAU, TAU2 = identity_map(K), identity_map(K2)
M, M2 = IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])
PULL, PUSH = IntMatrix([[1], [1]]), IntMatrix([[1, 1]])
G = Gf2Matrix.identity(2)


def loops(record_module):
    """LoopData values built by the module under test, so a LoopTable holds
    entries of its own kind."""
    LoopData = record_module.LoopData
    return LoopData(1, (1,)), LoopData(2, (1, 0), 3)


# name -> (module, values(m)): the required values, the trailing default values
# and other values for every field, built from the record module m under test
CASES = {
    "FixedComponent": ("involutions", lambda m: ((1, 0b101), (), (2, None))),
    "FixedSetData": ("involutions", lambda m: (
        (K, (m.FixedComponent(1, 3),), 1, 0b11, 0b1), (), (K2, (), None, 0, None))),
    "TypeVerdict": ("involutions", lambda m: (("I_rel", 0b10, 0b10), (), ("II", 0b01, None))),
    "HarnackReport": ("involutions", lambda m: ((3, 4, False), (), (4, 4, True))),
    "SmithReport": ("involutions", lambda m: (
        (1, True, True, {4: 0, 3: 1, 2: 2}), (), (0, False, False, {4: 1}))),
    "ObstructionVerdict": ("involutions", lambda m: (
        (True, "odd order", (1, 0)), (), (False, "no obstruction from parity", None))),
    "CoverComplex": ("coverings", lambda m: (
        (K, TAU, TAU, ((0, 0), (1, 1))), (K2,), (K2, TAU2, TAU2, ((0, 1),), None))),
    "DividingVerdict": ("coverings", lambda m: (
        (True, (frozenset({0}), frozenset({1})), 2), (), (False, None, 1))),
    "KharlamovTrace": ("coverings", lambda m: (
        (4, -4, -8, False, True, False), (), (8, -8, -16, True, True, True))),
    "QuotientTransferData": ("lattices", lambda m: ((1, PULL, PUSH), (), (2, M, M2))),
    "IntegerLattice": ("lattices", lambda m: (
        (2, M, M2), ({"a": (1, 0)}, M, -2, None),
        (3, M2, M, {}, M2, 0, m.QuotientTransferData(1, PULL, PUSH)))),
    "LoopData": ("qforms", lambda m: ((2, (3, -2)), (5,), (1, (True,), 2))),
    "LoopTable": ("qforms", lambda m: (
        ("spin", G, loops(m)), (((0b11, loops(m)[1]),),), ("pin", G, loops(m)[::-1], ()))),
}


def outcome(build):
    """What ``build()`` gives: its repr, or the type and message it raised."""
    try:
        return repr(build())
    except Exception as e:  # noqa: BLE001 -- the comparison is the point
        return type(e), str(e)


def hash_of(record):
    try:
        return hash(record)
    except TypeError:
        return TypeError


def test_every_former_dataclass_has_a_case():
    assert set(CASES) == set(FORMER_RECORDS) and len(CASES) == 13


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_matches_its_former_dataclass(name):
    module, values = CASES[name]
    new_module = importlib.import_module(f"conjtop.{module}")
    required, defaults, other = values(new_module)
    new_cls, old_cls = getattr(new_module, name), FORMER_RECORDS[name]
    assert issubclass(new_cls, Record) and not hasattr(new_cls(*required), "__dict__")
    names = new_cls.__slots__
    assert names == tuple(f.name for f in dataclasses.fields(old_cls))
    for given in (required, required + defaults):
        new, old = new_cls(*given), old_cls(*given)
        assert repr(new) == repr(old) and str(new) == str(old)
        assert new._asdict() == {n: getattr(old, n) for n in names}
        assert list(new._asdict()) == list(names)
        assert new == new_cls(*given) and not new != new_cls(*given)
        assert new == new_cls(**dict(zip(names, given)))
        assert new != old and old != new
        assert hash_of(new) == hash_of(old)
        twin = new_cls(*other)
        assert (new == twin) == (old == old_cls(*other))
        assert copy.copy(new) == new and repr(copy.copy(new)) == repr(new)
        for n, value in zip(names, other):
            assert outcome(lambda: new._replace(**{n: value})) \
                == outcome(lambda: dataclasses.replace(old, **{n: value})), n
            changed = outcome(lambda: new._replace(**{n: value}) == new)
            assert changed == outcome(lambda: dataclasses.replace(old, **{n: value}) == old), n
        for record in (new, old):
            for n in names + ("other",):
                with pytest.raises(AttributeError):
                    setattr(record, n, None)
            for n in names:
                with pytest.raises(AttributeError):
                    delattr(record, n)
        assert new == new_cls(*given)
    # a missing, unknown, repeated or extra field is refused by both
    full = required + defaults
    for args, kwargs in (
        (required[:-1], {}),
        (full, {"nosuch": 1}),
        (full[:1], {names[0]: full[0], **dict(zip(names[1:], full[1:]))}),
        (full + (0,), {}),
    ):
        with pytest.raises(TypeError):
            new_cls(*args, **kwargs)
        with pytest.raises(TypeError):
            old_cls(*args, **kwargs)


def test_smith_reports_differing_only_in_the_quotient_table_are_equal():
    from conjtop.involutions import SmithReport

    for cls in (SmithReport, FORMER_RECORDS["SmithReport"]):
        a, b = cls(1, True, True, {4: 0}), cls(1, True, True, {4: 1, 2: 5})
        assert a == b and not a != b and hash(a) == hash(b) and repr(a) != repr(b)
        assert a != cls(2, True, True, {4: 0})


def test_lattice_marks_default_to_a_fresh_dict():
    from conjtop.lattices import IntegerLattice

    for cls in (IntegerLattice, FORMER_RECORDS["IntegerLattice"]):
        a, b = cls(2, M, M2), cls(2, M, M2)
        assert a.marks == b.marks == {} and a.marks is not b.marks
        with pytest.raises(TypeError):
            hash(a)
        assert a.pairing((1, 0), (1, 0)) == 1


def test_loop_records_normalise_and_refuse_alike():
    from conjtop import qforms

    old_data, old_table = FORMER_RECORDS["LoopData"], FORMER_RECORDS["LoopTable"]
    assert qforms.LoopData(3, [3, -2, True]).lambdas == old_data(3, [3, -2, True]).lambdas \
        == (1, 0, 1)
    entry = qforms.LoopData(1, (1,))
    for args in ((2, (1,)), (1, (1,), -1), (1, ("x",))):
        assert outcome(lambda: qforms.LoopData(*args)) == outcome(lambda: old_data(*args))
    for args in (("spun", G, (entry, entry)), ("spin", G, (entry,))):
        assert outcome(lambda: qforms.LoopTable(*args)) == outcome(lambda: old_table(*args))
    assert outcome(lambda: qforms.LoopTable("spun", G, ()))[0] is InputError


def test_records_pickle():
    from conjtop.coverings import KharlamovTrace
    from conjtop.involutions import TypeVerdict
    from conjtop.qforms import LoopData

    for record in (KharlamovTrace(4, -4, -8, False, True, False), TypeVerdict("II", 1, None),
                   LoopData(2, (1, 1), 3)):
        assert pickle.loads(pickle.dumps(record)) == record
