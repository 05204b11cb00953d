"""Entirety of weighted chain-norm sequences.

`entirety` classifies growth descriptors of chain-norm sequences by the
root test applied to the weights c_n = (n!/floor(n/2)!) * ||f_n||, and
`parse_norm_pattern` reads the descriptors `cyclic entire` takes.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import InputError
from .exactnum import rational_from_str, rational_to_str


class NormSequence:
    """Descriptor of a chain-norm sequence n -> ||f_n||.

    kind "finite": the values tuple lists the norms, zero beyond it.
    kind "closed-form": ||f_n|| = scale * base^n * (n!)^fact_exponent
    * (floor(n/2)!)^half_fact_exponent.
    """

    def __init__(
        self,
        kind: str,
        values: tuple = (),
        fact_exponent: int = 0,
        half_fact_exponent: int = 0,
        scale: Fraction = Fraction(1),
        geometric_base: Fraction = Fraction(1),
    ):
        if kind not in ("finite", "closed-form"):
            raise InputError(f"unknown norm sequence kind {kind!r}")
        if any(v < 0 for v in values):
            raise InputError("norm values must be nonnegative")
        if scale < 0:
            raise InputError("scale must be nonnegative")
        if geometric_base <= 0:
            raise InputError("geometric base must be positive")
        self.kind, self.values, self.scale, self.geometric_base = kind, values, scale, geometric_base
        self.fact_exponent, self.half_fact_exponent = fact_exponent, half_fact_exponent


_GEOM_TOKEN = re.compile(r"^(\d+)\^n$")


def _integer(digits: str) -> Fraction:
    """The factor ``digits`` by `rational_from_str`, its digit limit an InputError."""
    try:
        return rational_from_str(digits)
    except ValueError as exc:
        raise InputError(f"bad pattern factor: {exc}") from None


def parse_norm_pattern(text: str) -> NormSequence:
    """Parse a norm-sequence pattern.

    >>> parse_norm_pattern("1/fact").fact_exponent
    -1
    >>> parse_norm_pattern("floor-half-fact/fact").half_fact_exponent
    1
    >>> parse_norm_pattern("finite:1,2,3").kind
    'finite'
    """
    text = text.strip()
    if text.startswith("finite:"):
        body = text[len("finite:") :]
        try:
            values = tuple(rational_from_str(part) for part in body.split(",") if part.strip())
        except ValueError as exc:
            raise InputError(f"bad finite pattern: {exc}") from None
        return NormSequence("finite", values=values)
    parts = text.split("/")
    if len(parts) > 2 or not parts[0]:
        raise InputError(f"bad pattern {text!r}: use numerator or numerator/denominator")
    fact = 0
    half = 0
    scale = Fraction(1)
    base = Fraction(1)
    for side, sign in zip(parts, (1, -1)):
        for token in side.split("*"):
            token = token.strip()
            if not token:
                raise InputError(f"empty factor in pattern {text!r}")
            if token == "fact":
                fact += sign
            elif token == "floor-half-fact":
                half += sign
            elif token.isdecimal():
                k = _integer(token)
                if sign < 0 and k == 0:
                    raise InputError("zero factor in the denominator")
                scale = scale * k**sign
            elif _GEOM_TOKEN.match(token):
                k = _integer(_GEOM_TOKEN.match(token).group(1))
                if k == 0:
                    raise InputError("geometric base must be positive")
                base = base * k**sign
            else:
                raise InputError(f"unknown pattern factor {token!r}")
    if scale == 0:
        return NormSequence("finite", values=())
    return NormSequence(
        "closed-form",
        fact_exponent=fact,
        half_fact_exponent=half,
        scale=scale,
        geometric_base=base,
    )


def entirety(s: NormSequence) -> dict:
    """Root-test classification of the weighted series sum c_n z^n.

    The weights are c_n = (n!/floor(n/2)!) * ||f_n||.  A finite sequence
    is entire.  A closed-form one is decided symbolically: with combined
    exponents E_f = fact_exponent + 1 and E_h = half_fact_exponent - 1 the
    n-th root of c_n grows like n^(E_f + E_h/2), so the sign of that
    degree decides, and at degree zero the limit is base * 2^(-E_h/2).
    """
    if s.kind == "finite":
        return {
            "verdict": "entire",
            "method": "finite-support",
            "radius": "inf",
        }
    if s.scale == 0:
        return {"verdict": "entire", "method": "root-test", "radius": "inf"}
    e_f = s.fact_exponent + 1
    e_h = s.half_fact_exponent - 1
    degree = Fraction(e_f) + Fraction(e_h, 2)
    report = {
        "method": "root-test",
        "growth_degree": rational_to_str(degree),
    }
    if degree < 0:
        report.update({"verdict": "entire", "radius": "inf"})
    elif degree > 0:
        report.update({"verdict": "not-entire", "radius": "0"})
    else:
        # limit of c_n^(1/n): the scale washes out, 2^(-E_h/2) survives, and
        # degree 0 makes E_h = -2 E_f even
        radius = 1 / (s.geometric_base * Fraction(2) ** (-e_h // 2))
        try:
            text, value = rational_to_str(radius), float(radius)
        except (ValueError, OverflowError):
            # more digits than rational_to_str writes, or above the float range
            raise InputError("the radius of convergence cannot be written") from None
        report.update({"verdict": "not-entire", "radius": text, "radius_value": value})
    return report
