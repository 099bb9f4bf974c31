"""Application-process level architecture (§4): release jitter inherited
from sender tasks and the end-to-end delay composition E = g+Q+C+d."""

from .._lazy import lazy_exports

_EXPORTS = {
    "EndToEndReport": "end_to_end",
    "EndToEndRow": "end_to_end",
    "end_to_end_analysis": "end_to_end",
    "TaskModel": "jitter",
    "derive_stream_jitter": "jitter",
    "sender_response_times": "jitter",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
