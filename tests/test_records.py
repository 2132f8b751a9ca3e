"""The package's records: NamedTuples, or ``henon.Frozen`` slotted classes
where a NamedTuple cannot do (validation, a derived or cached attribute,
ndarray fields).  Both kinds construct, compare, refuse assignment and
pickle alike."""

import importlib
import math
import pickle

import numpy as np
import pytest

from henonlab.crossmap import ConeSpec, factorize_chain
from henonlab.errors import DomainError
from henonlab.henon import ZERO_FIELD, Field2, HenonMap
from henonlab.maps1d import piece_1d

RECORDS = {
    "henon": ("Field2", "HenonMap", "EvalResult", "Cycle", "AttractorReport"),
    "crossmap": ("ConeSpec", "CrossMapChain", "CrossEval", "CrossDerivs", "CrossJet",
                 "CrossParamJet", "ShootResult", "HyperbolicityReport", "DistortionReport"),
    "maps1d": ("QuadraticLadder", "Piece1D", "SwallowClassification", "BoundaryPolyline"),
    "renorm": ("TangencyData", "RenormData", "RenormWindow", "MultiRenormData",
               "DoubleTangency", "TwinResult", "ConeCertificate"),
    "cli": ("Option", "Command", "RunConfig"),
    "atlas": ("Raster", "Colormap", "Kernel"),
    "strips": ("Curve", "LeafLattice", "TameBox", "Piece2D", "ConeReport"),
}

#: Field values for the records that check or compare them specially; the
#: others take 0.5, 1.5, ...
_VALUES = {
    "Field2": (math.sin, math.cos, math.tan, math.exp, math.log, math.sqrt),
    "HenonMap": (-1.5, 0.25, 2, ZERO_FIELD, ZERO_FIELD),
    "ConeSpec": (0.5,),
    "Raster": (2, 2, (0.0, 1.0), (0.0, 1.0), "henon-lyap",
               np.arange(4, dtype=np.uint8).reshape(2, 2), np.full((2, 2), np.nan)),
}


def _values(cls) -> tuple:
    return _VALUES.get(cls.__name__, tuple(0.5 + k for k in range(len(cls._fields))))


def _copies(values: tuple) -> tuple:
    """Equal field values, the arrays among them copied."""
    return tuple(v.copy() if isinstance(v, np.ndarray) else v for v in values)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in RECORDS.items() for n in names],
                         ids=lambda v: v)
def test_record_behaves_like_a_frozen_value(module, name):
    cls = getattr(importlib.import_module(f"henonlab.{module}"), name)
    values = _values(cls)
    record = cls(*values)
    assert cls(**dict(zip(cls._fields, _copies(values)))) == record
    twin = cls(*_copies(values))
    # a tuple's __ne__ would not consult a custom __eq__
    assert twin == record and not twin != record
    assert all(getattr(record, field) is value for field, value in zip(cls._fields, values))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], values[0])
    assert repr(record).startswith(f"{name}({cls._fields[0]}=")


def test_rasters_differ_by_array_contents_and_are_not_hashable():
    from henonlab.atlas import Raster

    values = _values(Raster)
    other = Raster(*values[:-1], np.zeros((2, 2)))
    assert other != Raster(*values) and not other == Raster(*values)
    with pytest.raises(TypeError):
        hash(other)


@pytest.mark.parametrize("build, message", [
    (lambda: HenonMap(-1.5, 0.25, m=0), "multiplicity m must be at least 1, got 0"),
    (lambda: HenonMap(-1.86, -0.001, 1.5), "multiplicity m must be a whole number, got 1.5"),
    (lambda: HenonMap(0.0, 10.0, m=1000), "b^m overflows at b = 10.0, m = 1000"),
    (lambda: ConeSpec(eta=math.nan), "core width eta must be finite and positive, got nan"),
], ids=["m-zero", "m-fraction", "bm-overflow", "eta-nan"])
def test_checked_records_raise_domain_errors(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def test_henon_map_repr_leaves_out_bm():
    f = HenonMap(-1.5, 0.25, 2)
    assert f.bm == 0.0625
    assert repr(f) == f"HenonMap(a=-1.5, b=0.25, m=2, zeta={ZERO_FIELD!r}, xi={ZERO_FIELD!r})"


@pytest.mark.parametrize("make", [
    lambda: Field2(math.sin, math.cos),
    lambda: HenonMap(-1.9, 0.001, 3),
    lambda: piece_1d("c1,bm0", -1.9),
    lambda: factorize_chain(HenonMap(-1.9, 0.001), "c1"),
], ids=["Field2", "HenonMap", "Piece1D", "CrossMapChain"])
def test_record_survives_pickling(make):
    record = make()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record
    assert pickle.loads(pickle.dumps(ZERO_FIELD)) is ZERO_FIELD
    if isinstance(record, HenonMap):
        assert copy.bm == record.bm and copy.zeta is ZERO_FIELD and copy.xi is ZERO_FIELD
