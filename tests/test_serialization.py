"""Tests for scenario (de)serialisation."""

import json
import re
from pathlib import Path

import pytest

from repro.profibus import (
    ScenarioFormatError,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from repro.scenarios import factory_cell_network, single_master_network


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [factory_cell_network,
                                         single_master_network])
    def test_round_trip_preserves_analysis(self, factory, tmp_path):
        from repro.profibus import analyse

        net = factory()
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        for policy in ("fcfs", "dm", "edf"):
            a = analyse(net, policy)
            b = analyse(loaded, policy)
            assert a.schedulable == b.schedulable
            assert a.tcycle == b.tcycle
            assert [sr.R for sr in a.per_stream] == [sr.R for sr in b.per_stream]

    def test_round_trip_structure(self):
        net = factory_cell_network()
        doc = network_to_dict(net)
        again = network_to_dict(network_from_dict(doc))
        assert doc == again

    def test_cbits_override_round_trip(self, tmp_path):
        from repro.profibus import Master, MessageStream, Network

        net = Network(masters=(Master(1, (
            MessageStream("x", T=1000, C_bits=777),
        )),), ttr=500)
        path = tmp_path / "n.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.masters[0].stream("x").cycle_bits(loaded.phy) == 777


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioFormatError):
            network_from_dict({"masters": [], "bogus": 1})

    def test_typo_in_stream_rejected(self):
        doc = {
            "masters": [{
                "address": 1,
                "streams": [{"name": "s", "T": 100, "dealine": 50}],
            }],
        }
        with pytest.raises(ScenarioFormatError):
            network_from_dict(doc)

    def test_missing_masters(self):
        with pytest.raises(ScenarioFormatError):
            network_from_dict({"phy": {}})

    def test_non_object_document(self):
        with pytest.raises(ScenarioFormatError):
            network_from_dict([1, 2, 3])

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioFormatError):
            load_network(p)

    def test_unknown_phy_key(self):
        with pytest.raises(ScenarioFormatError):
            network_from_dict({"masters": [{"address": 1}],
                               "phy": {"baudrate": 9600}})

    def test_semantic_errors_propagate(self):
        # model-level validation still applies after parsing
        with pytest.raises(ValueError):
            network_from_dict({"masters": [
                {"address": 1, "streams": [{"name": "s", "T": 0}]},
            ]})


    @pytest.mark.parametrize("doc, where", [
        ({"masters": [{"address": 200}]}, "bad master"),
        ({"masters": [{"address": 1, "streams": [{"name": "s", "T": -5}]}]},
         "bad stream 's'"),
        ({"masters": [{"address": 1}], "phy": {"tsl": 1}}, "bad phy"),
        ({"masters": [{"address": 1}], "slaves": [{"name": "x"}]},
         "in slave"),
        ({"masters": [{"name": "m"}]}, "in master"),
        ({"masters": [{"address": 1}], "slaves": [{"address": 1}]},
         "bad scenario"),
    ], ids=["address-200", "T-negative", "tsl-1", "slave-no-address",
            "master-no-address", "duplicate-address"])
    def test_model_errors_are_format_errors(self, doc, where):
        with pytest.raises(ScenarioFormatError, match=where):
            network_from_dict(doc)


def _cell_doc():
    return network_to_dict(factory_cell_network())


def _first_stream(doc):
    return doc["masters"][0]["streams"][0]


class TestTypedErrors:
    """Malformed containers and wrong-typed values are
    :class:`ScenarioFormatError`, never a stray ``AttributeError`` /
    ``TypeError`` and never silently accepted."""

    @pytest.mark.parametrize("mutate, text", [
        (lambda d: d["masters"][0]["streams"].append([1, 2]),
         "bad stream entry: expected an object, got list"),
        (lambda d: d.update(slaves=[[1, 2]]),
         "bad slave entry: expected an object, got list"),
        (lambda d: d["masters"][0].update(streams={"a": 1}),
         "bad master: streams must be a list, got dict"),
        (lambda d: d["masters"][0].update(streams=5),
         "bad master: streams must be a list, got int"),
        (lambda d: d.update(slaves=3),
         "bad scenario: slaves must be a list, got int"),
        (lambda d: d.update(masters={"a": 1}),
         "bad scenario: masters must be a list, got dict"),
        (lambda d: d.update(phy=[1]),
         "bad phy: expected an object, got list"),
        (lambda d: _first_stream(d).update(cycle=[1]),
         "expected an object, got list"),
        (lambda d: _first_stream(d).update(cycle={"req_payload": "x"}),
         "cycle req_payload must be an integer, got 'x'"),
        (lambda d: _first_stream(d).update(cycle={"max_retry": "x"}),
         "cycle max_retry must be an integer or null, got 'x'"),
    ], ids=["stream-entry-list", "slave-entry-list", "streams-dict",
            "streams-int", "slaves-int", "masters-dict", "phy-list",
            "cycle-list", "req-payload-string", "max-retry-string"])
    def test_malformed_containers(self, mutate, text):
        doc = _cell_doc()
        mutate(doc)
        with pytest.raises(ScenarioFormatError, match=re.escape(text)):
            network_from_dict(doc)

    @pytest.mark.parametrize("mutate, text", [
        (lambda d: _first_stream(d).update(high_priority="no"),
         "high_priority must be true or false, got 'no'"),
        (lambda d: _first_stream(d)["cycle"].update(short_ack="yes"),
         "cycle short_ack must be true or false, got 'yes'"),
        (lambda d: _first_stream(d).update(D=True),
         "D must be a number, got True"),
        (lambda d: _first_stream(d).update(T=True),
         "T must be a number, got True"),
        (lambda d: _first_stream(d).update(J=False),
         "J must be a number, got False"),
        (lambda d: _first_stream(d).update(C_bits=True),
         "C_bits must be a number, got True"),
        (lambda d: d["masters"][0].update(address=True),
         "bad master: address must be a number, got True"),
        (lambda d: d.update(slaves=[{"address": True}]),
         "bad slave: address must be a number, got True"),
        (lambda d: d.update(ttr=True),
         "bad scenario: ttr must be a number, got True"),
        (lambda d: d["phy"].update(max_retry=True),
         "bad phy: max_retry must be a number, got True"),
        (lambda d: _first_stream(d).update(name=7),
         "name must be a string, got int"),
    ], ids=["high-priority-string", "short-ack-string", "D-true", "T-true",
            "J-false", "C_bits-true", "address-true", "slave-address-true",
            "ttr-true", "phy-bool", "stream-name-int"])
    def test_wrong_typed_values(self, mutate, text):
        doc = _cell_doc()
        mutate(doc)
        with pytest.raises(ScenarioFormatError, match=re.escape(text)):
            network_from_dict(doc)

    def test_floats_and_null_defaults_still_parse(self):
        doc = _cell_doc()
        stream = _first_stream(doc)
        stream.update(T=float(stream["T"]), D=None, J=0.5)
        stream["cycle"]["max_retry"] = None
        net = network_from_dict(doc)
        parsed = net.masters[0].streams[0]
        assert (parsed.T, parsed.D, parsed.J) == (stream["T"], stream["T"],
                                                  0.5)


class TestMinimalDocuments:
    def test_defaults_fill_in(self):
        net = network_from_dict({"masters": [{"address": 3}]})
        assert net.phy.baud_rate == 500_000
        assert net.ttr is None
        assert net.masters[0].name == "M3"

    def test_slaves_parsed(self):
        net = network_from_dict({
            "masters": [{"address": 1}],
            "slaves": [{"address": 9, "name": "drive"}],
        })
        assert net.slaves[0].name == "drive"


class TestDefaultAwareFilter:
    """Regression: optional fields are omitted when they equal the
    dataclass *default*, not when they are merely falsy."""

    def test_max_retry_zero_round_trips(self, tmp_path):
        # max_retry=0 (no retries) is falsy but differs from the default
        # (None = inherit the PHY limit); the old falsy filter dropped it
        from repro.profibus import Master, MessageCycleSpec, MessageStream, Network

        net = Network(masters=(Master(1, (
            MessageStream("x", T=10_000,
                          spec=MessageCycleSpec(req_payload=4,
                                                max_retry=0)),
        )),), ttr=500)
        doc = network_to_dict(net)
        assert doc["masters"][0]["streams"][0]["cycle"]["max_retry"] == 0
        loaded = network_from_dict(doc)
        assert loaded == net
        assert loaded.masters[0].stream("x").spec.max_retry == 0
        # the dropped override changed the analysed cycle length
        assert loaded.masters[0].stream("x").cycle_bits(loaded.phy) == \
            net.masters[0].stream("x").cycle_bits(net.phy)

    def test_exact_network_equality_round_trip(self):
        net = factory_cell_network()
        assert network_from_dict(network_to_dict(net)) == net

    def test_default_values_still_omitted(self):
        from repro.profibus import Master, MessageCycleSpec, MessageStream, Network

        net = Network(masters=(Master(1, (
            MessageStream("plain", T=1000,
                          spec=MessageCycleSpec(req_payload=8)),
        )),), ttr=500)
        stream_doc = network_to_dict(net)["masters"][0]["streams"][0]
        assert "J" not in stream_doc
        assert "high_priority" not in stream_doc
        cycle = stream_doc["cycle"]
        assert set(cycle) == {"req_payload"}  # all other fields at default


class TestFingerprint:
    """The canonical content fingerprint: the value-identity key shared
    by the service cache, corpus entries and fuzz checkpoints."""

    def test_spellings_of_fingerprint_agree(self):
        from repro.profibus.serialization import (
            network_doc_fingerprint,
            network_fingerprint,
        )

        net = factory_cell_network()
        fp = net.fingerprint()
        assert fp == network_fingerprint(net)
        assert fp == network_doc_fingerprint(network_to_dict(net))
        assert len(fp) == 64 and int(fp, 16) >= 0  # a sha256 hex digest

    def test_stable_across_round_trip(self, tmp_path):
        net = factory_cell_network()
        save_network(net, tmp_path / "net.json")
        assert load_network(tmp_path / "net.json").fingerprint() == \
            net.fingerprint()

    def test_stable_across_document_spelling(self):
        net = factory_cell_network()
        doc = network_to_dict(net)
        respelled = json.loads(json.dumps(doc))
        # reorder keys and spell a default-valued optional field out
        respelled["masters"] = [dict(reversed(list(m.items())))
                                for m in respelled["masters"]]
        for master in respelled["masters"]:
            for stream in master["streams"]:
                stream.setdefault("J", 0)
        assert network_from_dict(respelled).fingerprint() == net.fingerprint()

    def test_stable_across_pickle(self):
        import pickle

        net = factory_cell_network()
        fp = net.fingerprint()  # memoise, then drop the memo on pickle
        clone = pickle.loads(pickle.dumps(net))
        assert "_fingerprint" not in clone.__dict__
        assert clone.fingerprint() == fp

    def test_semantic_changes_diverge(self):
        net = factory_cell_network()
        base_doc = network_to_dict(net)
        fingerprints = {net.fingerprint()}

        def variant(mutate):
            doc = json.loads(json.dumps(base_doc))
            mutate(doc)
            return network_from_dict(doc).fingerprint()

        def set_stream(doc, key, value):
            doc["masters"][0]["streams"][0][key] = value

        fingerprints.add(variant(lambda d: set_stream(d, "T", 999_999)))
        fingerprints.add(variant(lambda d: set_stream(d, "D", 1_234)))
        fingerprints.add(variant(lambda d: set_stream(d, "J", 77)))
        fingerprints.add(variant(
            lambda d: d.__setitem__("ttr", d["ttr"] + 1)))
        fingerprints.add(variant(
            lambda d: d["phy"].__setitem__("baud_rate", 93_750)))
        fingerprints.add(variant(
            lambda d: d["masters"].reverse()))  # ring order is semantic
        assert len(fingerprints) == 7  # every mutation changed the digest


# ---------------------------------------------------------------------------
# fingerprint identity: the hoisted-field builder against the asdict form
# ---------------------------------------------------------------------------

def _fuzz_family_names():
    from repro.fuzz import FAMILIES

    return sorted(FAMILIES)


class TestFingerprintIdentity:
    """``fingerprint/v1`` digests key the service cache, corpus entries
    and fuzz checkpoints: the canonical document must not move."""

    INSTANCES_PER_FAMILY = 50

    @staticmethod
    def _assert_identical(net, asdict_network_doc):
        from repro.profibus.serialization import (
            network_doc_fingerprint,
            network_fingerprint,
        )

        oracle = asdict_network_doc(net)
        doc = network_to_dict(net)
        assert json.dumps(doc) == json.dumps(oracle)  # order included
        assert network_fingerprint(net) == network_doc_fingerprint(oracle)

    @pytest.mark.parametrize("family", _fuzz_family_names())
    def test_every_fuzz_family(self, family, asdict_network_doc):
        from repro.fuzz import generate_instance

        for index in range(self.INSTANCES_PER_FAMILY):
            self._assert_identical(generate_instance(0, family, index),
                                   asdict_network_doc)

    def test_factory_cell_and_every_corpus_network(self, asdict_network_doc):
        from repro.corpus import load_corpus

        corpus = Path(__file__).resolve().parent.parent / "corpus"
        entries = load_corpus(corpus)
        assert entries
        self._assert_identical(factory_cell_network(), asdict_network_doc)
        for entry in entries:
            net = entry.network()
            self._assert_identical(net, asdict_network_doc)
            if entry.fingerprint:
                assert net.fingerprint() == entry.fingerprint
