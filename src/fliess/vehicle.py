"""Kinematic models of a bi-steerable car and section initialization.

The car steers both axles: the rear wheels turn proportionally
(gain k, default -0.7) to the front steering angle z4.  States are
planar position (z1, z2), heading z3, and front steering angle z4;
speed u1 and steering rate u2 drive the rear-axle-center model

    dz1 = u1 cos(z3 + z4)
    dz2 = u1 sin(z3 + z4)
    dz3 = u1 sin((1 - k) z4) / (L cos(k z4))
    dz4 = u2

with outputs (z1, z2).  This model has no well-defined vector relative
degree (the steering rate cannot reach the outputs at first order), so
inversion works on the dynamic extension that integrates speed as a
fifth state z5 with the speed rate as new input:

    dz = z5 * (cos(z3+z4), sin(z3+z4), sin((1-k) z4)/(L cos(k z4)), 0, 0)
         + u2 e4 + u1' e5

Input letters are fixed throughout: x1 is the steering rate u2 and x2
is the extended speed-rate input; the vector relative degree is (2, 2)
wherever z5 (the speed) is nonzero.

L and k enter both models as symbols, the two variables after the
states (z5, z6 for the four-state model; z6, z7 for the extension),
and their values travel with the realization as its parameters.  So
every CarParams shares one set of field expressions, and one
Lie-derivative table per series degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

from fliess import symexpr
from fliess.errors import MapFormatError, SingularDecouplingError
from fliess.realization import Realization
from fliess.symexpr import cos, div, mul, sin, sub, var


@dataclass(frozen=True)
class CarParams:
    """Geometry: axle distance L (pinned to 1 by default) and rear-steer gain k.

    Raises MapFormatError for a length that is not positive and finite
    or a gain that is not finite.
    """

    length: float = 1.0
    k: float = -0.7

    def __post_init__(self):
        if not 0.0 < self.length < math.inf:
            raise MapFormatError(f"car length must be positive and finite, got {self.length}")
        if not math.isfinite(self.k):
            raise MapFormatError(f"rear-steer gain k must be finite, got {self.k}")


@dataclass(frozen=True)
class SectionInit:
    """Initial state of one tracking section of the extended model."""

    z1: float
    z2: float
    z3: float
    z4: float
    z5: float

    def as_tuple(self):
        return (self.z1, self.z2, self.z3, self.z4, self.z5)

    def to_json_dict(self):
        return asdict(self)

    def validate(self, params=CarParams()):
        if self.z5 == 0.0:
            raise SingularDecouplingError("zero speed makes the decoupling matrix singular")
        if abs(params.k * self.z4) >= math.pi / 2:
            raise SingularDecouplingError(
                f"steering angle {self.z4:g} puts the model at a secant pole"
            )
        return self


def _heading_rate_expr(n_states):
    """sin((1 - k) z4) / (L cos(k z4)), with L and k the variables after the states."""
    z4, length, k = var(3), var(n_states), var(n_states + 1)
    return div(sin(mul(sub(symexpr.ONE, k), z4)), mul(length, cos(mul(k, z4))))


def car_realization(init, params=CarParams()):
    """Four-state rear-axle-center model; inputs (speed, steering rate)."""
    z3, z4 = var(2), var(3)
    angle = z3 + z4
    g1 = [cos(angle), sin(angle), _heading_rate_expr(4), symexpr.ZERO]
    g2 = [symexpr.ZERO, symexpr.ZERO, symexpr.ZERO, symexpr.ONE]
    g0 = [symexpr.ZERO] * 4
    return Realization(
        fields=[g0, g1, g2],
        outputs=[var(0), var(1)],
        z0=tuple(init),
        params=(params.length, params.k),
    )


@functools.cache
def _extended_model():
    """The extension's fields and outputs, built once for every CarParams."""
    z3, z4, z5 = var(2), var(3), var(4)
    angle = z3 + z4
    g0 = (
        mul(z5, cos(angle)),
        mul(z5, sin(angle)),
        mul(z5, _heading_rate_expr(5)),
        symexpr.ZERO,
        symexpr.ZERO,
    )
    g1 = (symexpr.ZERO, symexpr.ZERO, symexpr.ZERO, symexpr.ONE, symexpr.ZERO)
    g2 = (symexpr.ZERO, symexpr.ZERO, symexpr.ZERO, symexpr.ZERO, symexpr.ONE)
    return (g0, g1, g2), (var(0), var(1))


def augmented_realization(init, params=CarParams()):
    """Five-state dynamic extension; inputs (u2, speed rate), letters (x1, x2)."""
    if isinstance(init, SectionInit):
        init = init.as_tuple()
    fields, outputs = _extended_model()
    return Realization(
        fields=fields, outputs=outputs, z0=tuple(init), params=(params.length, params.k)
    )


def solve_first_order_match(target, z3, branch="auto", params=CarParams()):
    """Solve for (z4, z5) so the first drift coefficients equal the target.

    The first-order output coefficients of the extended model are
    (z5 cos(z3+z4), z5 sin(z3+z4)); given the target pair this fixes
    |z5| and the combined angle up to the sign of z5.  branch selects
    the sign: "auto" prefers the smaller |z4| among the admissible
    branches, "positive"/"negative" force sign(z5).  z4 is wrapped to
    (-pi, pi].  Raises SingularDecouplingError for a zero target or
    when every requested branch hits the secant pole.
    """
    v1, v2 = float(target[0]), float(target[1])
    speed = math.hypot(v1, v2)
    if speed == 0.0:
        raise SingularDecouplingError("zero target velocity cannot be matched (z5 = 0)")

    def wrap(a):
        a = math.fmod(a + math.pi, 2.0 * math.pi)
        if a <= 0.0:
            a += 2.0 * math.pi
        return a - math.pi

    candidates = []
    if branch in ("auto", "positive"):
        candidates.append((wrap(math.atan2(v2, v1) - z3), speed))
    if branch in ("auto", "negative"):
        candidates.append((wrap(math.atan2(-v2, -v1) - z3), -speed))
    if not candidates:
        raise ValueError(f"unknown branch {branch!r}")
    admissible = [
        (z4, z5) for z4, z5 in candidates if abs(params.k * z4) < math.pi / 2
    ]
    if not admissible:
        raise SingularDecouplingError(
            "every requested branch places the steering angle at a secant pole"
        )
    z4, z5 = min(admissible, key=lambda pair: abs(pair[0]))
    return z4, z5

