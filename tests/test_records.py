"""Each result record against the frozen dataclass it replaced.

``conftest`` keeps the 13 former dataclass definitions under their own
names.  Every record and its oracle are built from the same values, with
the defaults omitted and with them given, and must agree on repr, str,
equality, hashing, field order, immutability, a field changed through the
constructor (against ``dataclasses.replace``) and the errors their
constructors raise.

``conftest`` also keeps the four hand-written value classes that became
records (``FORMER_VALUES``): each record must raise the same messages,
keep its fields and sizes, and match the former repr, equality and hash
where the former class defined them.
"""

import copy
import dataclasses
import importlib
import pickle

import pytest

from conftest import FORMER_RECORDS, FORMER_VALUES, identity_map
from conjtop.complexes import SimplicialComplex
from conjtop.errors import InputError, Record
from conjtop.gf2 import Gf2Matrix, dot
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
    "HarnackReport": ("smith", lambda m: ((3, 4, False), (), (4, 4, True))),
    "SmithReport": ("smith", lambda m: (
        (1, True, True, {4: 0, 3: 1, 2: 2}), (), (0, False, False, {4: 1}))),
    "ObstructionVerdict": ("smith", lambda m: (
        (True, "odd order", (1, 0)), (), (False, "no obstruction from parity", None))),
    "CoverComplex": ("coverings", lambda m: (
        (K, TAU, TAU, ((0, 0), (1, 1))), (K2,), (K2, TAU2, TAU2, ((0, 1),), None))),
    "DividingVerdict": ("orientations", lambda m: (
        (True, (frozenset({0}), frozenset({1})), 2), (), (False, None, 1))),
    "KharlamovTrace": ("lattices", lambda m: (
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
            fields = {**new._asdict(), n: value}
            assert outcome(lambda: new_cls(**fields)) \
                == outcome(lambda: dataclasses.replace(old, **{n: value})), n
            changed = outcome(lambda: new_cls(**fields) == new)
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
    from conjtop.smith import SmithReport

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
    from conjtop.involutions import TypeVerdict
    from conjtop.lattices import KharlamovTrace
    from conjtop.qforms import LoopData

    for record in (KharlamovTrace(4, -4, -8, False, True, False), TypeVerdict("II", 1, None),
                   LoopData(2, (1, 1), 3)):
        assert pickle.loads(pickle.dumps(record)) == record


# --- validated values: the hand-written classes that became records ----------

IMPURE = SimplicialComplex.from_simplices(5, [(0, 1, 2), (3, 4)])
HYP = Gf2Matrix.from_rows([[0, 1], [1, 0]])
ODD = Gf2Matrix.from_rows([[1, 1], [1, 0]])
SKEW = Gf2Matrix.from_rows([[0, 1], [0, 0]])
WIDE = Gf2Matrix.zeros(2, 3)

# name -> (module, fields, valid argument tuples, refused argument tuples)
VALUE_CASES = {
    "SemiOrientation": ("orientations", ("carrier", "signs"), [
        (K, (1, -1)), (K, (-1, 1)), (K, [1, 1]), (K, (-1, -1)), (K, (True, -1)), (K2, (1, -1)),
    ], [
        (K, (1,)), (K, (1, 2)), (K, ("x", 1)), (K, None), (K, (1, 0)),
        (IMPURE, (1,)),
    ]),
    "BilinearFormGF2": ("gf2", ("gram",), [
        (HYP,), (Gf2Matrix.from_rows([[0, 1], [1, 0]]),), (ODD,), (Gf2Matrix.identity(3),),
    ], [(WIDE,), (SKEW,)]),
    "QForm2": ("qforms", ("gram", "values"), [
        (HYP, (0, 0)), (HYP, [0, 0]), (HYP, (1, True)), (Gf2Matrix.zeros(1, 1), (1,)),
    ], [(WIDE, (0, 0)), (SKEW, (0, 0)), (ODD, (1, 0)), (HYP, (0,)), (HYP, (0, 2))]),
    "QForm4": ("qforms", ("gram", "values"), [
        (HYP, (0, 2)), (HYP, [4, -2]), (ODD, (1, 2)), (ODD, (3, 0)),
    ], [(WIDE, (0, 0)), (SKEW, (0, 0)), (HYP, (0,)), (ODD, (2, 2)), (HYP, (1, 0))]),
}


def value_classes(name):
    module = importlib.import_module(f"conjtop.{VALUE_CASES[name][0]}")
    return getattr(module, name), FORMER_VALUES[name]


def test_every_former_value_class_has_a_case():
    assert set(VALUE_CASES) == set(FORMER_VALUES) and len(VALUE_CASES) == 4


@pytest.mark.parametrize("name", sorted(VALUE_CASES))
def test_value_record_matches_its_former_class(name):
    new_cls, old_cls = value_classes(name)
    _, fields, valid, refused = VALUE_CASES[name]
    assert issubclass(new_cls, Record) and new_cls.__slots__ == fields
    assert "__eq__" not in vars(new_cls) and "__hash__" not in vars(new_cls)
    pairs = [(new_cls(*args), old_cls(*args)) for args in valid]
    for new, old in pairs:
        assert not hasattr(new, "__dict__")
        assert new._asdict() == {n: getattr(old, n) for n in fields}
        if name in ("SemiOrientation", "BilinearFormGF2"):
            assert repr(new) == repr(old)
        if name != "SemiOrientation":
            assert new.dimension == old.dimension == new.gram.nrows
            # the pairing the Gram gives is the former value, or the former forms' pairing
            old_value = old.value if name == "BilinearFormGF2" else old.pairing
            vectors = range(1 << new.dimension)
            assert all(dot(x, new.gram.mul_vec(y)) == old_value(x, y)
                       for x in vectors for y in vectors)
    # equality and hash as the former class defined them, per pair of values
    for (a, a_old), (b, b_old) in ((p, q) for p in pairs for q in pairs):
        if name in ("SemiOrientation", "BilinearFormGF2"):
            assert (a == b) == (a_old == b_old) and (a != b) == (a_old != b_old)
        else:  # the former forms compared by identity; the records compare values
            assert (a == b) == (a._asdict() == b._asdict())
        if name == "SemiOrientation":
            assert hash(a) == hash(a_old)
        if a == b:
            assert hash(a) == hash(b)
    for args in refused:
        assert outcome(lambda: new_cls(*args)) == outcome(lambda: old_cls(*args)), args
        assert outcome(lambda: new_cls(*args))[0] is InputError


@pytest.mark.parametrize("name", sorted(VALUE_CASES))
def test_value_records_copy_pickle_and_refuse_mutation(name):
    new_cls, _ = value_classes(name)
    _, fields, valid, _ = VALUE_CASES[name]
    for args in valid:
        value = new_cls(*args)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
            assert type(twin) is new_cls
        before = value._asdict()
        for n in fields + ("dimension",):
            with pytest.raises(AttributeError):
                setattr(value, n, before.get(n))
            with pytest.raises(AttributeError):
                delattr(value, n)
        assert value._asdict() == before


def test_changed_values_go_through_validation():
    """A changed value is built through the validating constructor, and a
    field can no longer be reassigned past it."""
    from conjtop.orientations import SemiOrientation
    from conjtop.qforms import QForm2, QForm4, brown

    q = QForm4(HYP, [0, 2])
    with pytest.raises(AttributeError):
        q.values = (1, 2)  # breaks the parity law, and brown(q) would read 2
    assert q.values == (0, 2) and brown(q) == 0
    with pytest.raises(InputError, match="parity violation at basis vector 0"):
        QForm4(q.gram, (1, 2))
    with pytest.raises(InputError, match="require an even pairing"):
        QForm2(ODD, (0, 0))
    semi = SemiOrientation(K, (1, -1))
    with pytest.raises(AttributeError):
        semi.signs = (-1, 1)  # would break the canonical representative
    assert SemiOrientation(semi.carrier, (-1, 1)) == semi
    assert SemiOrientation(semi.carrier, (-1, 1)).signs == (1, -1)
