"""Data-type system mirroring the paper's terminology (Sec. III-D).

The paper names element types ``8u`` (unsigned char), ``16u``, ``32u``
(unsigned int), ``32s`` (int), ``32f`` (float) and ``64f`` (double), and
describes a SAT computation by an *input/output pair* such as ``8u32s``:
the input matrix holds ``8u`` pixels and the SAT is accumulated and stored
as ``32s``.

This module provides:

* :class:`DType` — one scalar element type with its numpy dtype, byte size
  and register footprint (number of 32-bit registers a value occupies,
  which drives the register-pressure/occupancy model).
* :class:`TypePair` — an input/output pair with the paper's compact
  spelling (``"8u32s"``) and parsing helpers.
* Integer overflow semantics: SAT accumulation in CUDA wraps around for
  integer types; :func:`accumulate_cast` reproduces that wrap-around with
  numpy so simulated results are bit-exact with what the CUDA kernels
  would produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = [
    "DType",
    "TypePair",
    "U8",
    "U16",
    "U32",
    "S32",
    "F32",
    "F64",
    "DTYPES",
    "TYPE_PAIRS",
    "parse_dtype",
    "parse_pair",
    "resolve_pair",
    "accumulate_cast",
]


@dataclass(frozen=True)
class DType:
    """One scalar element type.

    Attributes
    ----------
    name:
        The paper's short spelling, e.g. ``"8u"`` or ``"32f"``.
    np_dtype:
        Corresponding numpy dtype used for simulated storage.
    size:
        Size in bytes of one element (``sizeof(T)`` in the paper).
    regs_per_value:
        Number of 32-bit registers one value occupies on the device.
        ``64f`` values occupy two registers, everything else one; 8/16-bit
        values still occupy a whole register when cached.
    is_integer:
        True for wrap-around integer arithmetic.
    """

    name: str
    np_dtype: np.dtype
    size: int
    regs_per_value: int
    is_integer: bool

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def zeros(self, shape) -> np.ndarray:
        """Allocate a zero array of this element type."""
        return np.zeros(shape, dtype=self.np_dtype)


def _dt(name: str, np_dtype, regs: int, integer: bool) -> DType:
    nd = np.dtype(np_dtype)
    return DType(name=name, np_dtype=nd, size=nd.itemsize, regs_per_value=regs, is_integer=integer)


U8 = _dt("8u", np.uint8, 1, True)
U16 = _dt("16u", np.uint16, 1, True)
U32 = _dt("32u", np.uint32, 1, True)
S32 = _dt("32s", np.int32, 1, True)
F32 = _dt("32f", np.float32, 1, False)
F64 = _dt("64f", np.float64, 2, False)

#: All element types, keyed by the paper's spelling.
DTYPES: Dict[str, DType] = {t.name: t for t in (U8, U16, U32, S32, F32, F64)}


@dataclass(frozen=True)
class TypePair:
    """An input/output type pair such as ``8u32s`` (Sec. III-D).

    ``T_A T_B`` means the input matrix has element type ``T_A`` and the SAT
    is accumulated and stored with element type ``T_B``.
    """

    input: DType
    output: DType

    @property
    def name(self) -> str:
        """The compact paper spelling, e.g. ``"8u32s"``."""
        return f"{self.input.name}{self.output.name}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @property
    def accumulator(self) -> DType:
        """The type in which partial sums are held (the output type)."""
        return self.output


def _pair(a: str, b: str) -> TypePair:
    return TypePair(DTYPES[a], DTYPES[b])


#: The pairs evaluated in the paper (Figs. 6 and 7), plus the identity
#: pairs our generic kernels also support.
TYPE_PAIRS: Dict[str, TypePair] = {
    p.name: p
    for p in (
        _pair("8u", "32s"),
        _pair("8u", "32u"),
        _pair("8u", "32f"),
        _pair("8u", "64f"),
        _pair("16u", "32u"),
        _pair("32u", "32u"),
        _pair("32s", "32s"),
        _pair("32f", "32f"),
        _pair("32f", "64f"),
        _pair("64f", "64f"),
    )
}


def parse_dtype(spec) -> DType:
    """Return the :class:`DType` for ``spec``.

    ``spec`` may already be a :class:`DType`, a paper spelling such as
    ``"32f"``, or anything numpy recognises as a dtype (``np.float32``,
    ``"float32"`` ...).
    """
    if isinstance(spec, DType):
        return spec
    if isinstance(spec, str) and spec in DTYPES:
        return DTYPES[spec]
    nd = np.dtype(spec)
    for t in DTYPES.values():
        if t.np_dtype == nd:
            return t
    raise ValueError(f"unsupported element type: {spec!r}")


def parse_pair(spec) -> TypePair:
    """Return the :class:`TypePair` for ``spec``.

    ``spec`` may be a :class:`TypePair`, a compact spelling (``"8u32s"``),
    a single element spelling (``"32f"`` means ``32f32f``) or a 2-tuple of
    anything :func:`parse_dtype` accepts.
    """
    if isinstance(spec, TypePair):
        return spec
    if isinstance(spec, tuple) and len(spec) == 2:
        return TypePair(parse_dtype(spec[0]), parse_dtype(spec[1]))
    if isinstance(spec, str):
        if spec in TYPE_PAIRS:
            return TYPE_PAIRS[spec]
        if spec in DTYPES:
            t = DTYPES[spec]
            return TypePair(t, t)
        # Try to split an unknown compound spelling like "16u32u".
        for k in DTYPES:
            if spec.startswith(k) and spec[len(k):] in DTYPES:
                return TypePair(DTYPES[k], DTYPES[spec[len(k):]])
    # Fall back to a numpy dtype meaning the identity pair.
    t = parse_dtype(spec)
    return TypePair(t, t)


def resolve_pair(image: np.ndarray, pair) -> TypePair:
    """Resolve the type pair for ``image``, failing with a clear message.

    ``pair=None`` means the identity pair of ``image``'s dtype (except 8u
    input, which defaults to the paper's common ``8u32s``).  Unsupported
    dtypes and pair spellings raise ``ValueError`` naming the supported
    pairs instead of failing deep inside ``parse_pair``.
    """
    if pair is None:
        if image.dtype == np.uint8:
            return TYPE_PAIRS["8u32s"]
        try:
            return parse_pair(image.dtype)
        except ValueError:
            raise ValueError(
                f"unsupported SAT input dtype {image.dtype}; pass a supported "
                f"input dtype (uint8/uint16/uint32/int32/float32/float64) or "
                f"an explicit pair= from: {', '.join(sorted(TYPE_PAIRS))}"
            ) from None
    try:
        return parse_pair(pair)
    except (TypeError, ValueError):
        raise ValueError(
            f"unsupported type pair {pair!r}; supported pairs: "
            f"{', '.join(sorted(TYPE_PAIRS))}"
        ) from None


def accumulate_cast(values: np.ndarray, out_dtype: DType) -> np.ndarray:
    """Cast ``values`` into the accumulator type with CUDA semantics.

    Integer accumulators wrap around on overflow exactly like 32-bit CUDA
    arithmetic; floats use IEEE conversion. numpy already wraps for
    unsigned/signed ints via ``astype`` on same-width data, but summing
    ``8u`` data in numpy promotes to 64-bit first, so callers should cast
    *before* accumulating — this helper centralises that.
    """
    out = parse_dtype(out_dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        return values.astype(out.np_dtype, copy=False)
