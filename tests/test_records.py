"""Value semantics of the record classes, and what `import macgap.cli` loads.

The records are plain slotted classes.  Equal fields compare equal, and an
instance of another class never does.  The frozen ones hash by their fields
and refuse assignment; the suite reports, `Poly` and `SignedMap` stay
mutable and unhashable.
Constructors refuse bad input with the same messages as always.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from macgap.binom_core import LemmaSweepReport, MacaulayRep
from macgap.gap_calc import (
    GapArgumentReport,
    GapInterval,
    GapSweepReport,
    GapVerdict,
    NabForm,
)
from macgap.hermitian import (
    ObstructionRecord,
    OrthCertificate,
    SharpnessSuiteReport,
    Signature,
)
from macgap.polyspace import (
    GreenRecord,
    GreenSuiteReport,
    GRat,
    Hyperplane,
    Poly,
    PolySubspace,
    RestrictionRecord,
)
from macgap.record import SuiteReport
from test_hermitian import identity_map

SRC = Path(__file__).resolve().parent.parent / "src"

# a builder per formerly frozen class; each call makes a fresh, equal record
FROZEN = {
    "MacaulayRep": lambda: MacaulayRep(level=2, terms=((4, 2), (1, 1))),
    "NabForm": lambda: NabForm(5, 1, 2),
    "GapInterval": lambda: GapInterval(1, 5, 6, 8),
    "GapVerdict": lambda: GapVerdict(True, 1),
    "GapArgumentReport": lambda: GapArgumentReport(
        n=9, a=1, b=2, n1=4, n2=4, case="I", d_n1=3, d_n2=3, total=6,
        n_prime=7, holds=False),
    "Signature": lambda: Signature(2, 1),
    "ObstructionRecord": lambda: ObstructionRecord(2, 3, 4, None, False),
    "GRat": lambda: GRat(Fraction(1, 2), -3),
    "Hyperplane": lambda: Hyperplane((GRat(1), GRat(0, 2)), 1),
    "GreenRecord": lambda: GreenRecord(n=2, d=2, c=4, c_h=2, bound=1, holds=False),
    "RestrictionRecord": lambda: RestrictionRecord(2, 5, 3, (3, 2), 3, True),
}

MUTABLE = {
    "LemmaSweepReport": lambda: LemmaSweepReport(10, [(1, 2, 3, 4)]),
    "GapSweepReport": lambda: GapSweepReport(checks=3),
    "OrthCertificate": lambda: OrthCertificate(False, witness_pairs=([(1, 0)], [(2, 0)], 1)),
    "SharpnessSuiteReport": lambda: SharpnessSuiteReport(maps=1),
    "PolySubspace": lambda: PolySubspace(3, 2, []),
    "Poly": lambda: Poly(2, 1, {(1, 0): GRat(Fraction(1, 2), 3), (0, 1): GRat(-1)}),
    "SignedMap": lambda: identity_map(Signature(1, 1)),
    "GreenSuiteReport": lambda: GreenSuiteReport(checks=6),
    "SuiteReport": lambda: SuiteReport(violations=[(1, 2, 3, 4)]),
}


@pytest.mark.parametrize("make", [*FROZEN.values(), *MUTABLE.values()],
                         ids=[*FROZEN, *MUTABLE])
def test_equal_fields_compare_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b

    class Other(type(a)):
        __slots__ = ()

    # a subclass with the same field values is another class
    other = Other.__new__(Other)
    for name in type(a)._names:
        object.__setattr__(other, name, getattr(a, name))
    assert a != other and other != a


def test_different_fields_compare_unequal():
    assert GapVerdict(True, 1) != GapVerdict(True, 2)
    assert Signature(2, 1) != Signature(2, 1, 1)
    assert GapSweepReport() != GapSweepReport(checks=1)
    assert GRat(1) != (Fraction(1), Fraction(0))
    # `checks` is a field of SuiteReport, not of the subclass
    assert SharpnessSuiteReport(checks=1, maps=2) != SharpnessSuiteReport(checks=2, maps=2)
    assert LemmaSweepReport(1, []) != LemmaSweepReport(2, [])


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_frozen_records_hash_and_refuse_assignment(make):
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    field = type(a)._names[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 0
    assert getattr(a, field) == before and a == b


@pytest.mark.parametrize("make", MUTABLE.values(), ids=MUTABLE)
def test_reports_stay_mutable_and_unhashable(make):
    a = make()
    with pytest.raises(TypeError):
        hash(a)
    field = type(a)._names[-1]
    setattr(a, field, "changed")
    assert getattr(a, field) == "changed" and a != make()


def test_report_defaults_are_fresh_lists():
    a, b = GapSweepReport(), GapSweepReport()
    a.violations.append(1)
    assert b.violations == []
    assert GreenSuiteReport().violations == []
    assert SuiteReport().violations == []
    assert SharpnessSuiteReport().violations == []
    assert OrthCertificate(True) == OrthCertificate(True, None, None)


@pytest.mark.parametrize("make, message", [
    (lambda: NabForm(0, 0, 0), "bad N-form parameters (0, 0, 0)"),
    (lambda: NabForm(4, -1, 0), "bad N-form parameters (4, -1, 0)"),
    (lambda: NabForm(3, 1, 2), "inadmissible (a,b)=(1,2) at n=3: need b <= n-a-1"),
    (lambda: Signature(0, 0, 0), "bad signature (0, 0, 0)"),
    (lambda: Signature(-1, 2), "bad signature (-1, 2, 0)"),
    (lambda: Hyperplane((GRat(1), GRat(2)), 2), "pivot index out of range"),
    (lambda: Hyperplane((GRat(1), GRat(2)), -1), "pivot index out of range"),
    (lambda: Hyperplane((GRat(0), GRat(2)), 0), "zero pivot coefficient"),
    (lambda: GRat("x"), "Invalid literal for Fraction: 'x'"),
    (lambda: GRat(1, "1/2/3"), "Invalid literal for Fraction: '1/2/3'"),
])
def test_bad_input_refused_with_the_same_message(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_grat_normalises_to_fraction_parts_and_is_no_pair():
    c = GRat(3)
    assert type(c.re) is Fraction and type(c.im) is Fraction
    assert (c.re, c.im) == (3, 0)
    assert c == GRat(Fraction(3), Fraction(0)) == GRat(re=3)
    assert type(GRat("1/2", 1.5).im) is Fraction
    assert not isinstance(c, tuple)
    with pytest.raises(TypeError):
        re, im = c


def test_reprs_keep_their_text():
    assert repr(Signature(1, 2)) == "Signature(r=1, s=2, t=0)"
    assert repr(GRat(1)) == "GRat(re=Fraction(1, 1), im=Fraction(0, 1))"
    assert repr(GapVerdict(False)) == "GapVerdict(in_gap=False, k=None)"
    assert repr(identity_map(Signature(1, 1))).startswith(
        "SignedMap(source=Signature(r=1, s=1, t=0), "
        "target=Signature(r=1, s=1, t=0), degree=1, components=")
    # a report lists the fields of SuiteReport first
    assert repr(GreenSuiteReport(checks=6, subspace_count=2)) == (
        "GreenSuiteReport(checks=6, violations=[], subspace_count=2)")
    assert repr(LemmaSweepReport(10, [(1, 2, 3, 4)])) == (
        "LemmaSweepReport(checks=10, violations=[(1, 2, 3, 4)])")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # pytest itself has loaded both, so compare with a fresh interpreter's
    # modules just before the import
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import macgap.cli\n"
        "print(macgap.__file__)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    origin, added = proc.stdout.splitlines()
    assert Path(origin).resolve().parent == SRC / "macgap"
    added = set(added.split())
    assert "macgap.cli" in added
    assert not added & {"dataclasses", "inspect"}
