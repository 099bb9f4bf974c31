"""PROFIBUS telegram (frame) formats — DIN 19245 part 1.

PROFIBUS frames are built from 11-bit UART characters.  The fixed
formats and their character counts are:

=====  =========================================  ==============
code   layout                                      characters
=====  =========================================  ==============
SD1    SD DA SA FC FCS ED (no data)                6
SD2    SD LE LEr SD DA SA FC DU… FCS ED            9 + len(DU)
SD3    SD DA SA FC DU(8) FCS ED (fixed 8 data)     14
SD4    SD DA SA (token frame)                      3
SC     single-character acknowledgement            1
=====  =========================================  ==============

``frame_for_payload`` picks the smallest legal format for a payload and
is what :mod:`repro.profibus.cycle` uses to turn "a request with *p*
bytes of user data" into an exact transmission time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .phy import char_time_bits

#: Maximum data-unit length of an SD2 telegram (DIN 19245: 246 bytes of
#: net data; 249 including the DSAP/SSAP/PCV header bytes).
SD2_MAX_PAYLOAD = 246


class FrameType(Enum):
    """The PROFIBUS telegram start-delimiter families."""

    SD1 = "SD1"  # fixed length, no data field
    SD2 = "SD2"  # variable data field
    SD3 = "SD3"  # fixed length, 8-byte data field
    SD4 = "SD4"  # token
    SC = "SC"  # short (single character) acknowledgement


_FIXED_CHARS = {
    FrameType.SD1: 6,
    FrameType.SD3: 14,
    FrameType.SD4: 3,
    FrameType.SC: 1,
}

#: Overhead characters of an SD2 telegram (SD LE LEr SD DA SA FC FCS ED).
SD2_OVERHEAD_CHARS = 9


@dataclass(frozen=True)
class Frame:
    """One telegram: its format and data-unit length (bytes).

    ``chars`` (length in UART characters) and ``bits`` (transmission
    time in bit times) are derived once at construction: every message
    cycle length reads them, and a frame never changes."""

    frame_type: FrameType
    payload: int = 0
    chars: int = field(init=False, repr=False, compare=False)
    bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload < 0:
            raise ValueError("payload must be >= 0")
        if self.frame_type is FrameType.SD2:
            if self.payload > SD2_MAX_PAYLOAD:
                raise ValueError(
                    f"SD2 payload {self.payload} exceeds maximum {SD2_MAX_PAYLOAD}"
                )
            chars = SD2_OVERHEAD_CHARS + self.payload
        elif self.frame_type is FrameType.SD3:
            if self.payload not in (0, 8):
                raise ValueError("SD3 carries exactly 8 data bytes")
            chars = _FIXED_CHARS[FrameType.SD3]
        elif self.payload != 0:
            raise ValueError(f"{self.frame_type.value} carries no data field")
        else:
            chars = _FIXED_CHARS[self.frame_type]
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "bits", char_time_bits(chars))


#: The token telegram (SD4), used by the MAC analyses and the simulator.
TOKEN_FRAME = Frame(FrameType.SD4)

#: Single-character acknowledgement.
SHORT_ACK = Frame(FrameType.SC)


@lru_cache(maxsize=None)
def frame_for_payload(payload: int) -> Frame:
    """Smallest legal telegram for ``payload`` data bytes.

    0 bytes → SD1; exactly 8 → SD3 (14 chars beats SD2's 17); anything
    else up to :data:`SD2_MAX_PAYLOAD` → SD2.

    Cached: frames are immutable and the payload domain is 0..246, so
    sweeping thousands of generated networks reuses a few hundred
    instances instead of re-validating per stream.
    """
    if payload == 0:
        return Frame(FrameType.SD1)
    if payload == 8:
        return Frame(FrameType.SD3, 8)
    return Frame(FrameType.SD2, payload)
