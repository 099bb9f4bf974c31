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
``"dealine"`` would make an unschedulable plant look fine).  Every
number must be a real number and not a bool, ``high_priority`` and
``short_ack`` must be bools, payload sizes and retry counts ints, names
strings, and every container the type the format shows.

One pass, one validator.  :func:`scan_network` walks a document once
and applies every rule of the format and of the object model; the
model's rules are the ``check_*`` functions of
:mod:`repro.profibus.stream` and :mod:`repro.profibus.network` that the
objects themselves call.  Each fault raises :class:`ScenarioFormatError`.
It yields a :class:`NetworkScan`: the canonical document (the
``fingerprint/v1`` form :func:`network_to_dict` gives, hashed directly),
per master its name, stream names and ``(T, D, J, high_priority, C)``
rows, the PHY and the TTR.  ``C`` is a stream's explicit ``C_bits``,
else its cycle length from a :func:`repro.profibus.cycle.cycle_time`
table that lives for the one call, one entry per distinct cycle spec.
:func:`network_from_dict` is that pass followed by
:meth:`NetworkScan.network`, which builds the objects from its output.
The analysis service keys a request from the scan alone and builds the
:class:`Network` lazily, only for the work the rows cannot answer
(:func:`repro.api.compute_result`); an admission joins its candidate
stream to the scan.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from math import inf as _INF
from numbers import Real
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Tuple, Union

from . import cycle as cycle_mod
from .cycle import MessageCycleSpec
from .network import (Master, Network, Slave, check_address, check_master,
                      check_network)
from .phy import PhyParameters
from .stream import MessageStream, check_stream
from .timing import Columns, read_columns


class ScenarioFormatError(ValueError):
    """Raised for malformed scenario documents."""


def _field_defaults(cls) -> Dict[str, Any]:
    """Field name → declared default (``MISSING`` for required fields)."""
    return {
        f.name: (f.default_factory() if f.default_factory
                 is not dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    }


# Field sets read once at import: the pass and the canonical-document
# builder run per request, and ``dataclasses.fields``/``asdict`` cost
# more than the reads they drive.
_PHY_FIELDS = tuple(f.name for f in dataclasses.fields(PhyParameters))
_CYCLE_DEFAULTS = _field_defaults(MessageCycleSpec)
_STREAM_DEFAULTS = _field_defaults(MessageStream)

_SCENARIO_KEYS = frozenset({"phy", "ttr", "masters", "slaves"})
_MASTER_KEYS = frozenset({"address", "name", "streams"})
_SLAVE_KEYS = frozenset({"address", "name"})
_STREAM_KEYS = frozenset({"name", "T", "D", "J", "high_priority", "cycle",
                          "C_bits"})
_PHY_KEYS = frozenset(_PHY_FIELDS)
_CYCLE_KEYS = frozenset(_CYCLE_DEFAULTS)
#: the cycle-spec key of a stream without a ``cycle`` object
_DEFAULT_CYCLE = tuple(_CYCLE_DEFAULTS.values())


def _check_keys(obj: Dict[str, Any], allowed: frozenset, where: str,
                required=()) -> None:
    if not obj.keys() <= allowed:
        unknown = set(obj) - allowed
        raise ScenarioFormatError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )
    missing = [k for k in required if k not in obj]
    if missing:
        raise ScenarioFormatError(f"missing key(s) {missing} in {where}")


def _bad(where: str, message: str) -> ScenarioFormatError:
    return ScenarioFormatError(f"bad {where}: {message}")


def _kind(value: Any) -> str:
    return type(value).__name__


def _number(value: Any, what: str, where: str) -> Any:
    """``value`` if it is a finite real number and not a bool."""
    if type(value) is int:
        return value
    if not isinstance(value, Real) or isinstance(value, bool):
        raise _bad(where, f"{what} must be a number, got {value!r}")
    if not -_INF < value < _INF:  # NaN fails both comparisons
        raise _bad(where, f"{what} must be finite, got {value!r}")
    return value


def _entries(value: Any, what: str, where: str) -> Any:
    if isinstance(value, (list, tuple)):
        return value
    raise _bad(where, f"{what} must be a list, got {_kind(value)}")


def _object(value: Any, where: str) -> Dict[str, Any]:
    if isinstance(value, dict):
        return value
    raise _bad(where, f"expected an object, got {_kind(value)}")


def _build(cls, where: str, /, *args, **kwargs):
    """``cls(*args, **kwargs)``, with the model's own validation
    reported as a :class:`ScenarioFormatError` naming ``where``."""
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad {where}: {exc}") from exc


class ScannedMaster(NamedTuple):
    """One master as :func:`scan_network` read it."""

    address: int
    name: str
    #: stream names, in document order
    names: Tuple[str, ...]
    #: ``(T, D, J, high_priority, C)`` per stream; ``C`` is ``None``
    #: when ``cycle_time`` rejects the stream's cycle spec
    rows: Tuple[tuple, ...]
    #: ``(MessageCycleSpec, C_bits)`` per stream, for the objects
    cycles: Tuple[tuple, ...]


@dataclass(frozen=True, eq=False)
class NetworkScan:
    """What one validating pass over a network document yields."""

    #: the canonical document (``fingerprint/v1`` form); read-only
    doc: Dict[str, Any]
    phy: PhyParameters
    ttr: Optional[Any]
    masters: Tuple[ScannedMaster, ...]
    #: ``(address, name)`` per slave
    slaves: Tuple[Tuple[Any, str], ...]

    def fingerprint(self) -> str:
        """:func:`network_fingerprint` of the network, hashed from the
        canonical document without building it."""
        return network_doc_fingerprint(self.doc)

    def with_ttr(self, ttr: Any) -> "NetworkScan":
        """The scan of the same network at TTR ``ttr`` (a positive int,
        as :class:`repro.api.AnalysisRequest` checks it)."""
        return dataclasses.replace(self, ttr=ttr, doc={**self.doc, "ttr": ttr})

    def columns(self, refined: bool = False) -> Optional[Columns]:
        """:func:`~repro.profibus.timing.read_columns` of its rows."""
        return read_columns(self.ttr, self.phy, self.masters, refined)

    def network(self) -> Network:
        """The :class:`Network` the document describes."""
        masters = tuple(
            _build(Master, "master", m.address,
                   tuple(map(_stream_of, m.names, m.rows, m.cycles)), m.name)
            for m in self.masters
        )
        slaves = tuple(_build(Slave, "slave", address, name)
                       for address, name in self.slaves)
        return _build(Network, "scenario", masters, slaves, self.phy, self.ttr)


def _stream_of(name: str, row: tuple, cycle: tuple) -> MessageStream:
    t, d, j, high, _c = row
    spec, c_bits = cycle
    return _build(MessageStream, f"stream {name!r}", name, t, d, j, high,
                  spec, c_bits)


def _scan_phy(obj: Any) -> PhyParameters:
    _check_keys(_object(obj, "phy"), _PHY_KEYS, "phy")
    for name, value in obj.items():
        _number(value, name, "phy")
    return _build(PhyParameters, "phy", **obj)


def _cycle_key(obj: Any, name: str) -> tuple:
    """The four ``MessageCycleSpec`` fields ``cycle_time`` reads,
    checked, in declaration order."""
    if type(obj) is dict and obj.keys() <= _CYCLE_KEYS:
        key = (obj.get("req_payload", 0), obj.get("resp_payload", 0),
               obj.get("short_ack", False), obj.get("max_retry"))
        req, resp, short, retry = key
        if (type(req) is int and type(resp) is int
                and (short is True or short is False)
                and (retry is None or type(retry) is int)):
            return key
    where = f"stream {name!r}"
    _check_keys(_object(obj, f"cycle of {where}"), _CYCLE_KEYS, "cycle")
    for field in ("req_payload", "resp_payload"):
        value = obj.get(field, 0)
        if type(value) is not int:
            raise _bad(where, f"cycle {field} must be an integer, got {value!r}")
    short = obj.get("short_ack", False)
    if short is not True and short is not False:
        raise _bad(where, f"cycle short_ack must be true or false, got {short!r}")
    retry = obj.get("max_retry")  # the one field left to have failed
    raise _bad(where,
               f"cycle max_retry must be an integer or null, got {retry!r}")


def _scan_stream(obj: Any, phy: PhyParameters, cycles: Dict[tuple, tuple]):
    """``(name, row, (spec, C_bits), canonical stream document)``.

    ``cycles`` is the caller's cycle-spec key → ``(spec, C or None,
    canonical cycle document)`` table.  Per-stream work is the hot loop
    of the key step, so the format checks run inline, the model's rules
    are one :func:`check_stream` call, and a message is only formatted
    for a fault."""
    if type(obj) is not dict:
        obj = _object(obj, "stream entry")
    if not obj.keys() <= _STREAM_KEYS or "name" not in obj or "T" not in obj:
        _check_keys(obj, _STREAM_KEYS, f"stream {obj.get('name', '?')!r}",
                    required=("name", "T"))
    name = obj["name"]
    if not isinstance(name, str):
        raise _bad(f"stream {name!r}",
                   f"name must be a string, got {_kind(name)}")
    t = obj["T"]
    if type(t) is not int:
        _number(t, "T", f"stream {name!r}")
    d = obj.get("D")
    if d is None:
        d = t
    elif type(d) is not int:
        _number(d, "D", f"stream {name!r}")
    j = obj.get("J", 0)
    if type(j) is not int:
        _number(j, "J", f"stream {name!r}")
    high = obj.get("high_priority", True)
    if high is not True and high is not False:
        raise _bad(f"stream {name!r}",
                   f"high_priority must be true or false, got {high!r}")
    c_bits = obj.get("C_bits")
    if c_bits is not None and type(c_bits) is not int:
        _number(c_bits, "C_bits", f"stream {name!r}")
    key = _cycle_key(obj["cycle"], name) if "cycle" in obj else _DEFAULT_CYCLE
    try:
        check_stream(name, t, d, j, c_bits)
    except ValueError as exc:
        raise _bad(f"stream {name!r}", str(exc)) from exc
    entry = cycles.get(key)
    if entry is None:
        spec = MessageCycleSpec(*key)
        try:
            ch = cycle_mod.cycle_time(spec, phy)
        except ValueError:
            ch = None  # the analysis reports it, as for a built network
        entry = cycles[key] = (spec, ch, {
            field: value
            for (field, default), value in zip(_CYCLE_DEFAULTS.items(), key)
            if value != default
        })
    doc: Dict[str, Any] = {"name": name, "T": t, "D": d}
    if j != _STREAM_DEFAULTS["J"]:
        doc["J"] = j
    if not high:
        doc["high_priority"] = high
    if c_bits is None:
        doc["cycle"] = entry[2]  # shared by the scan's streams: read-only
        row = (t, d, j, high, entry[1])
    else:
        doc["C_bits"] = c_bits
        row = (t, d, j, high, c_bits)
    return name, row, (entry[0], c_bits), doc


def _scan_master(obj: Any, phy: PhyParameters,
                 cycles: Dict[tuple, tuple]) -> Tuple[ScannedMaster, dict]:
    if type(obj) is not dict:
        obj = _object(obj, "master entry")
    if not obj.keys() <= _MASTER_KEYS or "address" not in obj:
        _check_keys(obj, _MASTER_KEYS, "master", required=("address",))
    address = obj["address"]
    if type(address) is not int:
        _number(address, "address", "master")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise _bad("master", f"name must be a string, got {_kind(name)}")
    streams = [_scan_stream(entry, phy, cycles) for entry in
               _entries(obj.get("streams", []), "streams", "master")]
    names, rows, specs, docs = zip(*streams) if streams else ((),) * 4
    try:
        check_master(address, names)
    except ValueError as exc:
        raise _bad("master", str(exc)) from exc
    if not name:
        name = f"M{address}"
    return (ScannedMaster(address, name, names, rows, specs),
            {"address": address, "name": name, "streams": list(docs)})


def _scan_slave(obj: Any) -> Tuple[Any, str]:
    if type(obj) is not dict:
        obj = _object(obj, "slave entry")
    if not obj.keys() <= _SLAVE_KEYS or "address" not in obj:
        _check_keys(obj, _SLAVE_KEYS, "slave", required=("address",))
    address = obj["address"]
    if type(address) is not int:
        _number(address, "address", "slave")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise _bad("slave", f"name must be a string, got {_kind(name)}")
    try:
        check_address(address)
    except ValueError as exc:
        raise _bad("slave", str(exc)) from exc
    return address, name or f"S{address}"


def scan_network(doc: Any) -> NetworkScan:
    """One validating pass over a scenario document (see the module
    docstring).  Every fault raises :class:`ScenarioFormatError`; a
    document that passes builds its :class:`Network` without error."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    _check_keys(doc, _SCENARIO_KEYS, "scenario")
    if "masters" not in doc:
        raise ScenarioFormatError("scenario needs a 'masters' list")
    phy = _scan_phy(doc.get("phy", {}))
    cycles: Dict[tuple, tuple] = {}
    scanned = [_scan_master(m, phy, cycles)
               for m in _entries(doc["masters"], "masters", "scenario")]
    slaves = tuple(_scan_slave(s) for s in
                   _entries(doc.get("slaves", []), "slaves", "scenario"))
    ttr = doc.get("ttr")
    if ttr is not None:
        _number(ttr, "ttr", "scenario")
    try:
        check_network([m.address for m, _doc in scanned],
                      [a for a, _n in slaves], ttr)
    except ValueError as exc:
        raise _bad("scenario", str(exc)) from exc
    canonical: Dict[str, Any] = {
        "phy": {name: getattr(phy, name) for name in _PHY_FIELDS},
        "masters": [master_doc for _m, master_doc in scanned],
    }
    if ttr is not None:
        canonical["ttr"] = ttr
    if slaves:
        canonical["slaves"] = [{"address": a, "name": n} for a, n in slaves]
    return NetworkScan(canonical, phy, ttr,
                       tuple(m for m, _doc in scanned), slaves)


def network_from_dict(doc: Dict[str, Any]) -> Network:
    """Build a :class:`Network` from a parsed scenario document:
    :func:`scan_network`, then :meth:`NetworkScan.network`.

    Every fault of the document — an unknown or missing key, a
    wrong-typed value, or a value the object model rejects — raises
    :class:`ScenarioFormatError`."""
    return scan_network(doc).network()



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
        check_circular=False,  # a tree: same text, no id() bookkeeping
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
