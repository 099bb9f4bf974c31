"""PROFIBUS physical-layer timing model.

All internal time values in this library are **bit times** (integers):
one bit time is ``1/baud`` seconds, a UART character is 11 bit times
(start bit + 8 data + even parity + stop, per DIN 19245 part 1).  Using
integer bit times keeps every analysis exact (see
:mod:`repro.core.timeops`) and matches how the standard itself specifies
its timers (T_SL, T_SDR, T_ID are all given in bit times).

:class:`PhyParameters` collects the protocol timers a station needs:

* ``tsdr_min`` / ``tsdr_max`` — station delay of a responder (time from
  the end of an action frame until the responder starts its reply);
* ``tid1`` — idle time the initiator inserts after receiving a reply
  before starting its next transmission;
* ``tid2`` — idle time after sending an unacknowledged frame (the token);
* ``tsl`` — slot time: how long the initiator waits for the first
  character of a reply before it declares a timeout and retries;
* ``max_retry`` — retry limit after slot-time expiry.

Defaults follow the DIN 19245 recommendations for 500 kbit/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

#: Bits per UART character on PROFIBUS (start + 8 data + parity + stop).
BITS_PER_CHAR = 11

#: Standard PROFIBUS (FMS/DP) baud rates, bit/s.
STANDARD_BAUD_RATES = (
    9_600,
    19_200,
    93_750,
    187_500,
    500_000,
    1_500_000,
    12_000_000,
)


def char_time_bits(chars: int) -> int:
    """Transmission time of ``chars`` UART characters, in bit times."""
    if chars < 0:
        raise ValueError("chars must be >= 0")
    return chars * BITS_PER_CHAR


def bits_to_seconds(bits: float, baud_rate: int) -> float:
    """Convert a bit-time duration to seconds at ``baud_rate``."""
    if baud_rate <= 0:
        raise ValueError("baud_rate must be positive")
    return bits / float(baud_rate)


def seconds_to_bits(seconds: float, baud_rate: int) -> int:
    """Convert seconds to (rounded-up) integer bit times at ``baud_rate``."""
    if seconds < 0:
        raise ValueError("seconds must be >= 0")
    import math

    return math.ceil(seconds * baud_rate - 1e-9)


@dataclass(frozen=True)
class PhyParameters:
    """Protocol timer set for one network (all values in bit times)."""

    baud_rate: int = 500_000
    tsdr_min: int = 11
    tsdr_max: int = 60
    tid1: int = 37
    tid2: int = 60
    tsl: int = 100
    max_retry: int = 1

    def __post_init__(self) -> None:
        for field_name, value in vars(self).items():
            if type(value) is not int and not -inf < value < inf:
                raise ValueError(f"{field_name} must be finite, got {value!r}")
        if self.baud_rate <= 0:
            raise ValueError("baud_rate must be positive")
        if self.tsdr_min < 0 or self.tsdr_max < self.tsdr_min:
            raise ValueError(
                f"need 0 <= tsdr_min <= tsdr_max, got {self.tsdr_min}..{self.tsdr_max}"
            )
        for field_name in ("tid1", "tid2", "tsl"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")
        if self.max_retry < 0:
            raise ValueError("max_retry must be >= 0")
        if self.tsl <= self.tsdr_max:
            raise ValueError(
                "slot time tsl must exceed tsdr_max or every cycle times out"
            )

    def bits_to_seconds(self, bits: float) -> float:
        return bits_to_seconds(bits, self.baud_rate)

    def ms(self, bits: float) -> float:
        """Convenience: bit times → milliseconds (for reports)."""
        return self.bits_to_seconds(bits) * 1e3
