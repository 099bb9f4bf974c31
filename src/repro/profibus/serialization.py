"""JSON (de)serialisation of network scenarios.

Lets users keep network descriptions in version-controlled files and
feed them to the CLI (``profibus-rt analyse --file plant.json``).  The
format mirrors the object model one-to-one::

    {
      "phy": {"baud_rate": 500000, "tsdr_max": 60, ...},
      "ttr": 3000,
      "masters": [
        {"address": 1, "name": "cell",
         "streams": [
            {"name": "axis", "T": 75000, "D": 22500, "J": 0,
             "high_priority": true,
             "cycle": {"req_payload": 8, "resp_payload": 0,
                        "short_ack": true}},
            {"name": "raw", "T": 10000, "C_bits": 777}
         ]}
      ],
      "slaves": [{"address": 10}]
    }

Unknown keys raise immediately (typo protection — a silently-ignored
``"dealine"`` would make an unschedulable plant look fine).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Union

from .cycle import MessageCycleSpec
from .network import Master, Network, Slave
from .phy import PhyParameters
from .stream import MessageStream


class ScenarioFormatError(ValueError):
    """Raised for malformed scenario documents."""


def _field_defaults(cls) -> Dict[str, Any]:
    """Field name → declared default (``MISSING`` for required fields)."""
    return {
        f.name: (f.default_factory() if f.default_factory
                 is not dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    }


# Field sets read once at import: the parse and the canonical-document
# builder run per request, and ``dataclasses.fields``/``asdict`` cost
# more than the reads they drive.
_PHY_FIELDS = tuple(f.name for f in dataclasses.fields(PhyParameters))
_CYCLE_DEFAULTS = _field_defaults(MessageCycleSpec)
_STREAM_DEFAULTS = _field_defaults(MessageStream)


def _check_keys(obj: Dict[str, Any], allowed, where: str,
                required=()) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ScenarioFormatError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )
    missing = [k for k in required if k not in obj]
    if missing:
        raise ScenarioFormatError(f"missing key(s) {missing} in {where}")


def _build(cls, where: str, /, **kwargs):
    """``cls(**kwargs)``, with the model's own validation (a bad
    address, ``T <= 0``, ``tsl <= tsdr_max``, …) reported as a
    :class:`ScenarioFormatError` naming ``where``."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad {where}: {exc}") from exc


def _phy_from(obj: Dict[str, Any]) -> PhyParameters:
    _check_keys(obj, _PHY_FIELDS, "phy")
    return _build(PhyParameters, "phy", **obj)


def _cycle_from(obj: Dict[str, Any]) -> MessageCycleSpec:
    _check_keys(obj, _CYCLE_DEFAULTS, "cycle")
    return MessageCycleSpec(**obj)


def _stream_from(obj: Dict[str, Any]) -> MessageStream:
    allowed = {"name", "T", "D", "J", "high_priority", "cycle", "C_bits"}
    where = f"stream {obj.get('name', '?')!r}"
    _check_keys(obj, allowed, where, required=("name", "T"))
    kwargs = {k: obj[k] for k in ("name", "T", "D", "J", "high_priority",
                                  "C_bits") if k in obj}
    if "cycle" in obj:
        kwargs["spec"] = _cycle_from(obj["cycle"])
    return _build(MessageStream, where, **kwargs)


def _master_from(obj: Dict[str, Any]) -> Master:
    _check_keys(obj, {"address", "name", "streams"}, "master",
                required=("address",))
    return _build(
        Master, "master",
        address=obj["address"],
        name=obj.get("name", ""),
        streams=tuple(_stream_from(s) for s in obj.get("streams", [])),
    )


def _slave_from(obj: Dict[str, Any]) -> Slave:
    _check_keys(obj, {"address", "name"}, "slave", required=("address",))
    return _build(Slave, "slave", address=obj["address"],
                  name=obj.get("name", ""))


def network_from_dict(doc: Dict[str, Any]) -> Network:
    """Build a :class:`Network` from a parsed scenario document.

    Every fault of the document — an unknown or missing key, or a value
    the object model rejects — raises :class:`ScenarioFormatError`."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    _check_keys(doc, {"phy", "ttr", "masters", "slaves"}, "scenario")
    if "masters" not in doc:
        raise ScenarioFormatError("scenario needs a 'masters' list")
    return _build(
        Network, "scenario",
        masters=tuple(_master_from(m) for m in doc["masters"]),
        slaves=tuple(_slave_from(s) for s in doc.get("slaves", [])),
        phy=_phy_from(doc.get("phy", {})),
        ttr=doc.get("ttr"),
    )


def network_to_dict(network: Network) -> Dict[str, Any]:
    """Inverse of :func:`network_from_dict` (round-trip safe).

    Optional fields are omitted exactly when they equal the dataclass
    *defaults* (not when they are merely falsy): a ``max_retry`` of 0
    overrides the PHY retry limit and must survive the round trip, and
    any non-falsy default added to :class:`MessageCycleSpec` later stays
    round-trip exact without touching this function.  Fields are read
    by name in declaration order, so the document (and its
    ``fingerprint/v1`` digest) is the one ``dataclasses.asdict`` gave.
    """
    def stream_doc(s: MessageStream) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": s.name, "T": s.T, "D": s.D}
        if s.J != _STREAM_DEFAULTS["J"]:
            out["J"] = s.J
        if s.high_priority != _STREAM_DEFAULTS["high_priority"]:
            out["high_priority"] = s.high_priority
        if s.C_bits is not None:
            out["C_bits"] = s.C_bits
        else:
            spec = s.spec
            cycle: Dict[str, Any] = {}
            for name, default in _CYCLE_DEFAULTS.items():
                value = getattr(spec, name)
                if value != default:
                    cycle[name] = value
            out["cycle"] = cycle
        return out

    phy = network.phy
    doc: Dict[str, Any] = {
        "phy": {name: getattr(phy, name) for name in _PHY_FIELDS},
        "masters": [
            {
                "address": m.address,
                "name": m.name,
                "streams": [stream_doc(s) for s in m.streams],
            }
            for m in network.masters
        ],
    }
    if network.ttr is not None:
        doc["ttr"] = network.ttr
    if network.slaves:
        doc["slaves"] = [
            {"address": s.address, "name": s.name} for s in network.slaves
        ]
    return doc


#: Version tag mixed into every fingerprint.  Bump it (in
#: :mod:`repro.schemas`) whenever the canonical scenario-document form
#: changes meaning (a new semantic field, a changed default) so stale
#: value-keyed cache entries and checkpoint rows from older code can
#: never collide with new ones.
from ..schemas import FINGERPRINT_SCHEMA


def network_fingerprint(network: Network) -> str:
    """Canonical content hash of a network — the value-identity key.

    Two networks get the same fingerprint exactly when their canonical
    scenario documents are identical: the hash runs over the
    :func:`network_to_dict` form serialised with sorted keys, so field
    order in a source file, formatting, and default-valued optional
    fields all normalise away, while any semantic change (a period, a
    deadline, jitter, PHY parameters, ring order, TTR) changes the
    digest.  This is the shared-cache key for the analysis service and
    the identity key for corpus entries and fuzz checkpoints — contexts
    where *fresh value-equal instances* must collide.
    """
    return network_doc_fingerprint(network_to_dict(network))


def network_doc_fingerprint(doc: Dict[str, Any]) -> str:
    """:func:`network_fingerprint` of an already-canonical scenario
    document (one produced by :func:`network_to_dict`).  Pure hashing,
    no (de)serialisation — corpus-entry validation uses this so a stored
    fingerprint can be audited without flowing through the late-bound
    serialisation seam the mutation harness patches."""
    payload = json.dumps(
        {"schema": FINGERPRINT_SCHEMA, "network": doc},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_network(path: Union[str, Path]) -> Network:
    """Read a scenario file (JSON) into a :class:`Network`."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
    return network_from_dict(doc)


def save_network(network: Network, path: Union[str, Path]) -> None:
    """Write a :class:`Network` as a scenario file (JSON, stable order)."""
    Path(path).write_text(
        json.dumps(network_to_dict(network), indent=2, sort_keys=True) + "\n"
    )
