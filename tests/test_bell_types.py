"""Parity of bell's checked value types with plain frozen dataclasses.

ModelConstants, CorrelationEstimate and DetectorSetting each have one
hand-written ``__init__`` that stores the fields past the frozen
``__setattr__`` and runs the type's checks.  The reference types below are
the same classes as generated frozen dataclasses with ``__post_init__``
checks; every behaviour a caller can see (refusals and their messages,
frozenness, ``==``, ``hash``, ``repr``, ``dataclasses.fields`` and
``replace``, pickling) must be theirs.  The one intended difference is
ModelConstants' refusal of a negative residual, tested in test_bell.py.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import pickle

import numpy as np
import pytest

from collapsewalk import C1, CorrelationEstimate, DetectorSetting, ModelConstants, solve_c2
from collapsewalk.bell import MODEL_TAGS, UNIT_TOL


@dataclasses.dataclass(frozen=True)
class _DetectorSetting:
    __qualname__ = "DetectorSetting"

    direction: np.ndarray

    def __post_init__(self):
        v = np.array(self.direction, dtype=float)
        if v.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        norm = math.sqrt(v @ v)
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise ValueError(f"vector must have unit norm, got |v| = {norm!r}")
        v.setflags(write=False)
        object.__setattr__(self, "direction", v)


@dataclasses.dataclass(frozen=True)
class _ModelConstants:
    __qualname__ = "ModelConstants"

    c1: float
    c2: float
    theta: float
    overlap: float
    residual: float

    def __post_init__(self):
        if not abs(self.c1 - C1) <= 1e-15:
            raise ValueError("c1 must equal sqrt(3 / 4 pi)")
        if not 0.0 <= self.c2 < math.inf:
            raise ValueError("c2 must be finite and nonnegative")
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.overlap < math.inf:
            raise ValueError("overlap must be finite and nonnegative")
        if not self.residual <= 1e-8:
            raise ValueError(f"normalization residual {self.residual!r} above 1e-8")


@dataclasses.dataclass(frozen=True)
class _CorrelationEstimate:
    __qualname__ = "CorrelationEstimate"

    value: float
    stderr: float
    n: int
    model: str
    acceptance_rate: float | None = None

    def __post_init__(self):
        if self.model not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model!r}")
        if not 0.0 <= self.stderr < math.inf:
            raise ValueError("stderr must be finite and nonnegative")
        if operator.index(self.n) < 0:
            raise ValueError("n must be nonnegative")
        if self.acceptance_rate is not None and not 0.0 < self.acceptance_rate <= 1.0:
            raise ValueError("acceptance_rate must lie in (0, 1]")
        if not abs(self.value) <= 1.0 + 3.0 * self.stderr + 1e-9:
            raise ValueError(
                f"estimate {self.value!r} outside the physical range by > 3 sigma"
            )


_NAN, _INF = math.nan, math.inf
_C2 = solve_c2(1.0)

# (type, reference, valid fields, other valid fields, one field at a time made invalid)
CASES = {
    "ModelConstants": (
        ModelConstants,
        _ModelConstants,
        dataclasses.asdict(_C2),
        dict(dataclasses.asdict(_C2), c2=0.125),
        [
            ("c1", v) for v in (0.5, C1 + 1e-14, _NAN, _INF, None)
        ] + [
            ("c2", v) for v in (-0.1, _NAN, _INF, "0.1")
        ] + [
            ("theta", v) for v in (-1e-9, math.pi + 1e-9, _NAN, -_INF, None)
        ] + [
            ("overlap", v) for v in (-5.0, -1e-300, _NAN, _INF)
        ] + [
            ("residual", v) for v in (1e-3, 1.0000001e-8, _NAN, _INF, None)
        ],
    ),
    "CorrelationEstimate": (
        CorrelationEstimate,
        _CorrelationEstimate,
        dict(value=0.5, stderr=0.1, n=3, model="image-event", acceptance_rate=0.6),
        dict(value=0.5, stderr=0.1, n=np.int64(3), model="image-event", acceptance_rate=None),
        [
            ("value", v) for v in (1.5, -1.31, _NAN, _INF, None)
        ] + [
            ("stderr", v) for v in (-0.1, _NAN, _INF)
        ] + [
            ("n", v) for v in (-1, 2.5, _NAN, "3", None)
        ] + [
            ("model", v) for v in ("nonsense", "", None, ["quantum"])
        ] + [
            ("acceptance_rate", v) for v in (0.0, -0.1, 1.0 + 1e-12, _NAN, _INF)
        ],
    ),
    "DetectorSetting": (
        DetectorSetting,
        _DetectorSetting,
        dict(direction=[0.6, 0.0, 0.8]),
        dict(direction=np.array([0.0, 1.0, 0.0])),
        [
            ("direction", v) for v in (
                [1, 1, 0], [1.0, 0.0], [[1.0, 0.0, 0.0]], [_NAN, 0.0, 0.0],
                [_INF, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], "abc", None, [1.0, "x", 0.0],
            )
        ],
    ),
}


def _outcome(make):
    """("ok", the result) or the type and message of what ``make()`` raised."""
    try:
        return "ok", make()
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return type(exc), str(exc)


def _same(x, y) -> bool:
    """x and y hold the same field values (arrays compared element-wise)."""
    return all(
        np.array_equal(getattr(x, f.name), getattr(y, f.name))
        if isinstance(getattr(x, f.name), np.ndarray)
        else getattr(x, f.name) == getattr(y, f.name)
        for f in dataclasses.fields(x)
    )


@pytest.mark.parametrize("name", list(CASES))
def test_value_type_matches_a_plain_frozen_dataclass(name):
    cls, ref, valid, other, invalid = CASES[name]

    # each invalid field: the same exception type and message
    for field, bad in invalid:
        got = _outcome(lambda: cls(**{**valid, field: bad}))
        want = _outcome(lambda: ref(**{**valid, field: bad}))
        assert want[0] != "ok", (field, bad)
        assert got == want, (field, bad)
        # positionally too, in field order
        args = [bad if f.name == field else valid[f.name] for f in dataclasses.fields(ref)]
        assert _outcome(lambda: cls(*args)) == want, (field, bad)

    obj, twin, third = cls(**valid), cls(**valid), cls(**other)
    r_obj, r_twin, r_third = ref(**valid), ref(**valid), ref(**other)
    assert _same(obj, r_obj) and _same(third, r_third)
    assert list(vars(obj)) == list(vars(r_obj))  # the fields, and nothing else

    # frozen: assignment and deletion raise FrozenInstanceError
    for target in (obj, r_obj):
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, field.name, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(target, field.name)

    # ==, hash and repr: DetectorSetting's array field makes == between
    # distinct arrays and hash raise, as the reference does
    for a, b, ra, rb in ((obj, obj, r_obj, r_obj), (obj, twin, r_obj, r_twin),
                         (obj, third, r_obj, r_third)):
        assert _outcome(lambda: a == b) == _outcome(lambda: ra == rb)
        assert _outcome(lambda: a != b) == _outcome(lambda: ra != rb)
    assert (obj == r_obj) is False
    assert _outcome(lambda: hash(obj)) == _outcome(lambda: hash(r_obj))
    assert repr(obj) == repr(r_obj) and repr(third) == repr(r_third)

    # dataclasses.fields and replace
    describe = [(f.name, f.type, f.default, f.init, f.repr, f.hash, f.compare)
                for f in dataclasses.fields(cls)]
    assert describe == [(f.name, f.type, f.default, f.init, f.repr, f.hash, f.compare)
                        for f in dataclasses.fields(ref)]
    assert dataclasses.is_dataclass(obj)
    changes = {f.name: other[f.name] for f in dataclasses.fields(cls) if f.name in other}
    assert _same(dataclasses.replace(obj, **changes), third)
    for field, bad in invalid:
        got = _outcome(lambda: dataclasses.replace(obj, **{field: bad}))
        assert got == _outcome(lambda: dataclasses.replace(r_obj, **{field: bad}))

    # a pickle round trip (the helper process is sent DetectorSettings)
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and _same(back, obj)
    if name != "DetectorSetting":
        assert back == obj and hash(back) == hash(obj)


def test_detector_setting_direction_is_read_only_and_owned():
    """The direction is the constructor's own read-only float64 copy."""
    values = np.array([0.0, 0.0, 1.0])
    setting = DetectorSetting(values)
    values[2] = 2.0
    assert setting.direction.tolist() == [0.0, 0.0, 1.0]
    assert setting.direction.dtype == np.float64 and not setting.direction.flags.writeable
    plane = DetectorSetting.from_plane_angle_degrees(30.0)
    assert plane.direction.tolist() == [math.sin(math.radians(30.0)), 0.0,
                                        math.cos(math.radians(30.0))]
    assert not plane.direction.flags.writeable
