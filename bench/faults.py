"""Deliberately wrong mrcodes answers, for the benchmark's self-test.

Each fault replaces one codec function at every site where mrcodes looks it
up; the oracles in run.py must then count failed operations.
"""

from __future__ import annotations

import sys

from tracer import patch_everywhere


def _wrong_decode(decode):
    def wrong(code, received):
        message = decode(code, received)
        return [code.field.element(message[0].value + 1)] + list(message[1:])
    return wrong


def _flipped_encode(encode):
    def flipped(code, message):
        codeword = encode(code, message)
        return [code.field.element(codeword[0].value + 1)] + list(codeword[1:])
    return flipped


FAULTS = {"decode": _wrong_decode, "encode": _flipped_encode}


def inject(fault: str) -> list:
    """Install the named fault; returns the undo list for tracer.unpatch."""
    original = getattr(sys.modules["mrcodes.mrcode"], fault)
    return patch_everywhere(original, FAULTS[fault](original))
