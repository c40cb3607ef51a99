"""Exact decimal output: integers of any size, and arrays of vertex ids."""

from __future__ import annotations

import sys

import numpy as np


def exact_str(value) -> str:
    """``str(value)`` with every digit of an int or a Fraction.

    Since Python 3.11 (and 3.10.7) ``str`` refuses integers of more than
    4,300 digits, a guard against slow conversions of untrusted input.
    Projective arrangement counts pass that size at a few thousand
    vertices, and they are values this package computed, so the limit is
    lifted for this one conversion and restored afterwards; parsing input
    stays guarded.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(previous)


def _decimal_rows(ids: np.ndarray, end: str) -> str:
    """The decimal text of a 2-D array of non-negative ints.

    The ids of a row are separated by " " and the row ends with ``end``,
    one ASCII character: ``"".join(" ".join(map(str, row)) + end for row
    in ids)``, built with no Python int or str per id.  The quotients of
    the ids by 10, 100, ... are taken one division by ten at a time, in
    the ids' integer type (a byte per quotient would wrap).  Each place's
    digit, the quotient before it less ten times it, goes into a (rows,
    cols, width + 1) byte buffer whose last byte per id is its separator;
    a place is a leading zero where the quotient by its power of ten is
    0, and one boolean compress drops them all.
    """
    width = len(str(int(ids.max())))
    text = np.empty(ids.shape + (width + 1,), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    quotient = ids
    for place in range(width - 1, -1, -1):
        digit = quotient
        quotient = digit // 10
        text[..., place] = digit - 10 * quotient + ord("0")
        if place:
            np.greater(quotient, 0, out=keep[..., place - 1])
    text[..., width] = ord(" ")
    text[:, -1, width] = ord(end)
    return text[keep].tobytes().decode("ascii")
