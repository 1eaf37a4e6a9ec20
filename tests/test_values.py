"""The value classes: repr, equality, hashing, order, immutability and
constructor checks, the behaviour that sets, dicts, sorting and the output
rely on."""

import ast
import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import gfcurves
from gfcurves import CurveType, DomainError, GroupElement, Subgroup
from gfcurves.errors import Frozen, Ordered, _set
from gfcurves.free_action import AdmissiblePartition, enumerate_free_subgroups
from gfcurves.gonal import CyclicGonalModel, cyclic_gonal_model
from gfcurves.hyperelliptic import CaseLabel, CurveConstruction, HyperellipticCurve, curve_case2
from gfcurves.riemann_sphere import Moebius
from gfcurves.verify import (
    CheckReport,
    FiberPoint,
    KummerCertificate,
    VerificationReport,
    sample_fiber,
)

CT = CurveType(2, 4)
LAM = (Fraction(3), Fraction(7))


def fields_of(value):
    """The compared fields of each value class, in declaration order."""
    return {
        CurveType: lambda v: (v.p, v.n),
        GroupElement: lambda v: (v.curve_type, v.exponents),
        Subgroup: lambda v: (v.curve_type, v.basis),
        Moebius: lambda v: (v.a, v.b, v.c, v.d),
        AdmissiblePartition: lambda v: (v.curve_type, v.r, v.parts),
        CyclicGonalModel: lambda v: (v.subgroup, v.lam, v.lattice_basis),
        HyperellipticCurve: lambda v: (v.genus, v.roots),
        CurveConstruction: lambda v: (v.label, v.curve, v.curve_type, v.lam, v.details),
        FiberPoint: lambda v: (v.curve_type, v.lam, v.t1, v.x),
        CheckReport: lambda v: (v.check, v.max_residual, v.samples, v.passed),
        KummerCertificate: lambda v: (v.rank, v.expected_rank, v.witness),
        VerificationReport: lambda v: (v.checks, v.certificate),
    }[type(value)](value)


def frozen_values():
    K = enumerate_free_subgroups(CT, 2)[0]
    return [
        CT,
        GroupElement.from_exponents(CT, (1, 0, 1, 0, 0)),
        K,
        Moebius(1, 2, 3, 5),
        AdmissiblePartition.from_parts(CT, 1, [{1, 2, 3, 4, 5}]),
        cyclic_gonal_model(K, LAM),
        HyperellipticCurve(1, (0, 1, 2, 3)),
        sample_fiber(CT, LAM, 0.5 + 0.25j, (0, 1, 0, 1)),
        CheckReport("fiber_residuals", 1e-12, 20, True),
        KummerCertificate(2, 2, "exponents=[1, 0, 0, 1], element=[0, 1, 0, 1, 0]"),
        VerificationReport((CheckReport("fiber_residuals", 1e-12, 20, True),), KummerCertificate(2, 2)),
    ]


def test_repr_text():
    assert repr(CurveType(2, 4)) == "CurveType(p=2, n=4)"
    assert repr(GroupElement.from_exponents(CT, (1, 1, 0, 0, 1))) == (
        "GroupElement(curve_type=CurveType(p=2, n=4), exponents=(0, 0, 1, 1, 0))"
    )
    K = Subgroup.from_words(CT, ["a1*a2", "a3*a4"])
    assert repr(K) == (
        "Subgroup(curve_type=CurveType(p=2, n=4), basis=((1, 1, 0, 0, 0), (0, 0, 1, 1, 0)))"
    )
    assert repr(Moebius(1, Fraction(-1, 2), 0, 3)) == "Moebius(a=1, b=Fraction(-1, 2), c=0, d=3)"
    assert repr(HyperellipticCurve(1, (0, 1, 2, 3))) == "HyperellipticCurve(genus=1, roots=(0, 1, 2, 3))"
    assert repr(CheckReport("c", 0.5, 3, True)) == (
        "CheckReport(check='c', max_residual=0.5, samples=3, passed=True)"
    )
    assert repr(KummerCertificate(2, 2)) == "KummerCertificate(rank=2, expected_rank=2, witness='')"
    assert repr(VerificationReport()) == "VerificationReport(checks=(), certificate=None)"
    assert repr(AdmissiblePartition.from_parts(CT, 2, [{1, 2}, {3, 4}, {5}])) == (
        "AdmissiblePartition(curve_type=CurveType(p=2, n=4), r=2, "
        "parts=(frozenset({1, 2}), frozenset({3, 4}), frozenset({5})))"
    )
    assert repr(cyclic_gonal_model(Subgroup.from_words(CT, ["a3*a4"]), LAM)) == (
        "CyclicGonalModel(subgroup=Subgroup(curve_type=CurveType(p=2, n=4), basis=((0, 0, 1, 1, 0),)), "
        "lam=(Fraction(3, 1), Fraction(7, 1)), lattice_basis=((0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0)))"
    )
    curve = HyperellipticCurve(1, (0, 1, 2, 3))
    assert repr(CurveConstruction(CaseLabel.CASE2, curve, CT, LAM, {"kept_indices": (3, 4, 5)})) == (
        "CurveConstruction(label=<CaseLabel.CASE2: 'Case2'>, "
        "curve=HyperellipticCurve(genus=1, roots=(0, 1, 2, 3)), curve_type=CurveType(p=2, n=4), "
        "lam=(Fraction(3, 1), Fraction(7, 1)), details={'kept_indices': (3, 4, 5)})"
    )
    assert repr(FiberPoint(CT, (3, 7), 0.5 + 0.25j, (1j, 2.0, -1.5, 0.25, 1 + 0j))) == (
        "FiberPoint(curve_type=CurveType(p=2, n=4), lam=(3, 7), t1=(0.5+0.25j), "
        "x=(1j, 2.0, -1.5, 0.25, (1+0j)))"
    )


class _One(Frozen):
    __slots__ = ("x",)

    def __init__(self, x):
        _set(self, "x", x)


@pytest.mark.parametrize("x", [(1, 2), 5])
def test_repr_of_a_one_slot_value_names_its_field(x):
    # attrgetter of one name gives the bare field, which a tuple would
    # spread over the names and an int would not iterate at all
    assert repr(_One(x)) == f"_One(x={x!r})"
    assert _One(x) == _One(x) and hash(_One(x)) == hash(x) and _One(x) != _One(0)


@pytest.mark.parametrize("value", frozen_values(), ids=lambda v: type(v).__name__)
def test_frozen_values_compare_and_hash_as_their_field_tuples(value):
    twin = copy.copy(value)
    assert twin is not value and twin == value and not twin != value
    assert fields_of(twin) == fields_of(value)
    assert hash(value) == hash(fields_of(value))
    assert pickle.loads(pickle.dumps(value)) == value
    # a tuple of the same fields is not the value itself
    assert value != fields_of(value)
    with pytest.raises(AttributeError):
        setattr(value, "curve_type", None)
    for name in ("p", "exponents", "basis", "a", "parts", "lam", "roots", "x", "check", "rank", "checks"):
        if hasattr(value, name):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)


def test_values_differ_in_any_field():
    assert CurveType(2, 4) != CurveType(2, 5) and CurveType(2, 4) != CurveType(3, 4)
    assert Moebius(1, 2, 3, 5) != Moebius(1, 2, 3, 7)
    assert HyperellipticCurve(1, (0, 1, 2, 3)) != HyperellipticCurve(1, (0, 1, 2, 4))
    assert len({CurveType(2, 4), CurveType(2, 4), CurveType(3, 4)}) == 2


def test_curve_construction_compares_but_does_not_hash():
    cons = curve_case2(CT, LAM, (3, 4, 5))
    twin = CurveConstruction(cons.label, cons.curve, cons.curve_type, cons.lam, dict(cons.details))
    assert twin == cons and twin is not cons
    assert CurveConstruction(CaseLabel.CASE4, *fields_of(cons)[1:]) != cons
    with pytest.raises(TypeError):
        hash(cons)  # its details are a dict
    with pytest.raises(AttributeError):
        cons.label = CaseLabel.CASE4


def test_reports_compare_by_fields_and_hold_their_checks_as_a_tuple():
    check = CheckReport("fiber_residuals", 1e-12, 20, True)
    assert check == CheckReport("fiber_residuals", 1e-12, 20, True)
    assert check != CheckReport("fiber_residuals", 1e-12, 20, False)
    assert KummerCertificate(2, 2) == KummerCertificate(2, 2, "")
    assert KummerCertificate(2, 2) != KummerCertificate(1, 2)
    report = VerificationReport()
    assert report == VerificationReport([], None) == VerificationReport((), None)
    assert report.checks == () and report.certificate is None
    # any iterable of checks is held as a tuple, so the report hashes
    full = VerificationReport(iter([check]), KummerCertificate(2, 2))
    assert full.checks == (check,)
    assert full == VerificationReport([check], KummerCertificate(2, 2))
    assert full != report and full != VerificationReport([check])
    assert full != VerificationReport([check], KummerCertificate(1, 2))
    assert len({full, VerificationReport((check,), KummerCertificate(2, 2)), report}) == 2
    for value in (check, KummerCertificate(2, 2), full):
        assert value != fields_of(value)
        with pytest.raises(AttributeError):
            setattr(value, "passed", False)


def test_order_is_the_order_of_the_field_tuples():
    types = [CurveType(3, 4), CurveType(2, 5), CurveType(2, 4), CurveType(3, 2)]
    assert sorted(types) == sorted(types, key=fields_of)
    assert CurveType(2, 4) < CurveType(2, 5) <= CurveType(2, 5) < CurveType(3, 2)
    assert CurveType(3, 2) > CurveType(2, 5) >= CurveType(2, 5)
    elements = [GroupElement.from_exponents(CT, e) for e in ((1, 1, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0))]
    assert sorted(elements) == sorted(elements, key=fields_of)
    assert GroupElement.from_exponents(CurveType(2, 5), (1, 0, 0, 0, 0, 0)) > elements[0]
    subgroups = [K for m in (1, 2) for K in enumerate_free_subgroups(CT, m)][::-1]
    assert sorted(subgroups) == sorted(subgroups, key=fields_of)
    assert sorted(subgroups) != subgroups
    with pytest.raises(TypeError):
        CurveType(2, 4) < (2, 5)
    with pytest.raises(TypeError):
        elements[0] < subgroups[0]
    with pytest.raises(TypeError):
        Moebius(1, 2, 3, 5) < Moebius(1, 2, 3, 7)  # only curve types, elements and subgroups are ordered


def test_constructors_check_their_arguments():
    with pytest.raises(DomainError, match="not prime"):
        CurveType(4, 3)
    with pytest.raises(DomainError, match="at least 2"):
        CurveType(2, 1)
    with pytest.raises(DomainError, match="rejected"):
        CurveType(2, 2)
    with pytest.raises(DomainError, match="genus 1 needs 4 roots, got 3"):
        HyperellipticCurve(1, (0, 1, 2))
    with pytest.raises(DomainError, match="at most one root"):
        HyperellipticCurve(1, (0, 1, float("inf"), float("inf")))
    with pytest.raises(DomainError, match="zero determinant"):
        Moebius(1, 2, 2, 4)
    assert Moebius.identity()(Fraction(3, 7)) == Fraction(3, 7)


def package_modules():
    """Every module of the package but ``__main__``, which runs the CLI."""
    return [
        importlib.import_module(f"gfcurves.{info.name}")
        for info in pkgutil.iter_modules(gfcurves.__path__)
        if info.name != "__main__"
    ]


def test_value_semantics_have_one_implementation():
    classes = [
        cls
        for module in package_modules()
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    ]
    assert len({cls for cls in classes if issubclass(cls, Frozen)}) == 14  # 12 values and 2 bases
    for cls in classes:
        own = vars(cls)
        if cls not in (Frozen, Ordered):
            assert not {"__eq__", "__repr__", "__lt__", "__le__"} & own.keys(), cls
            assert own.get("__hash__") is None, cls
        if issubclass(cls, Frozen) and cls.__slots__:
            assert "__init__" in own, cls  # each value class keeps its own constructor
    assert {cls.__name__ for cls in classes if issubclass(cls, Ordered)} == {
        "Ordered", "CurveType", "GroupElement", "Subgroup"
    }
    for path in Path(gfcurves.__file__).parent.glob("*.py"):
        bound = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assign)
            and ast.unparse(node.value) == "object.__setattr__"
        ]
        assert path.name == "errors.py" or not bound, (path.name, bound)
