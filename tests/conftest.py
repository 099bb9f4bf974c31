"""Shared fixtures: canonical task sets and networks used across tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import Task, TaskSet, assign_deadline_monotonic, make_taskset
from repro.scenarios import (
    factory_cell_network,
    paper_illustration_network,
    single_master_network,
)


@pytest.fixture
def basic_dm_taskset() -> TaskSet:
    """The worked example used throughout the core tests.

    DM order: t0 (1,4,4) > t1 (2,6,6) > t2 (3,10,10).
    Hand-computed references:
      preemptive RTA:      r = [1, 3, 10]
      non-preemptive (strict start): w = [3, 5, 3] → r = [4, 7, 6]
      EDF preemptive RTA:  r = [2, 4, 8]
      EDF non-preemptive:  r = [3, 5, 6]
    """
    return assign_deadline_monotonic(make_taskset([(1, 4), (2, 6), (3, 10)]))


@pytest.fixture
def harmonic_taskset() -> TaskSet:
    """Harmonic set at exactly U = 1 (schedulable under EDF, D=T)."""
    return assign_deadline_monotonic(make_taskset([(1, 2), (1, 4), (2, 8)]))


@pytest.fixture
def factory_cell():
    return factory_cell_network()


@pytest.fixture
def single_master():
    return single_master_network()


@pytest.fixture
def illustration():
    return paper_illustration_network().with_ttr(3000)


def _asdict_network_to_dict(network):
    """``network_to_dict`` as it was built through ``dataclasses.asdict``
    — the oracle the field-by-name builder must match byte for byte."""
    from repro.profibus import MessageCycleSpec, MessageStream

    cycle_defaults = {f.name: f.default
                      for f in dataclasses.fields(MessageCycleSpec)}
    stream_defaults = {f.name: f.default
                       for f in dataclasses.fields(MessageStream)}

    def stream_doc(s):
        out = {"name": s.name, "T": s.T, "D": s.D}
        if s.J != stream_defaults["J"]:
            out["J"] = s.J
        if s.high_priority != stream_defaults["high_priority"]:
            out["high_priority"] = s.high_priority
        if s.C_bits is not None:
            out["C_bits"] = s.C_bits
        else:
            out["cycle"] = {k: v for k, v in dataclasses.asdict(s.spec).items()
                            if v != cycle_defaults[k]}
        return out

    doc = {
        "phy": dataclasses.asdict(network.phy),
        "masters": [
            {"address": m.address, "name": m.name,
             "streams": [stream_doc(s) for s in m.streams]}
            for m in network.masters
        ],
    }
    if network.ttr is not None:
        doc["ttr"] = network.ttr
    if network.slaves:
        doc["slaves"] = [{"address": s.address, "name": s.name}
                         for s in network.slaves]
    return doc


@pytest.fixture
def asdict_network_doc():
    """The ``fingerprint/v1`` canonical-document oracle (the
    ``dataclasses.asdict`` form) every canonical-document builder must
    match."""
    return _asdict_network_to_dict
