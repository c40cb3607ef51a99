"""Exact decimal output of integers of any size."""

from __future__ import annotations

import sys


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
