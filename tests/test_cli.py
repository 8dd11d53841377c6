import dataclasses
import functools
import hashlib
import operator
import time
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from miakit import cli as cli_mod
from miakit import discovery
from miakit import mission as mission_mod
from miakit import scenario as scenario_mod
from miakit import synth
from miakit.cli import main
from miakit.flows import FLOW_HEADER, bin_activity, parse_flows
from miakit.kernel import Distribution, StreamFactory
from miakit.scenario import (
    ValidationError,
    bundled_path,
    load_scenario,
    parse_distribution,
    parse_duration,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

MINIMAL = {
    "schema_version": 1,
    "infrastructure": {
        "assets": [
            {"id": "ws-1", "kind": "end_user_node", "subnet": "lan"},
            {"id": "sys", "kind": "application", "subnet": "lan"},
        ],
        "vulnerabilities": [{"asset": "sys", "exploit": "e1"}],
    },
    "mission": {
        "arrivals": {"exponential": 300},
        "personnel": {"planner": 1},
        "tasks": [{"id": "draft", "role": "planner", "duration": {"fixed": 60}, "requires": ["sys"]}],
    },
    "sim": {"replications": 2, "base_seed": 3, "horizon": 3600},
}

ATTACKER = {"target": "sys", "effect": "integrity", "start": {"fixed": 0}, "capabilities": ["e1"]}

# Every section of a scenario that must be a mapping, as (path, field name,
# an example of a value that is not one).
SECTIONS = [
    (("infrastructure",), "infrastructure", ["a"]),
    (("sim",), "sim", "fast"),
    (("mission",), "mission", "x"),
    (("mission", "personnel"), "mission.personnel", ["planner"]),
    (("mission", "tasks", 0), "mission.tasks[0]", 5),
    (("attacker",), "attacker", "x"),
    (("defender",), "defender", "x"),
]

# Every field of a scenario that must be a list, as (path, field name).
LIST_FIELDS = [
    (("mission", "tasks"), "mission.tasks"),
    (("mission", "checkpoints"), "mission.checkpoints"),
    (("mission", "tasks", 0, "requires"), "mission.tasks[0].requires"),
    (("mission", "tasks", 0, "after"), "mission.tasks[0].after"),
    (("attacker", "capabilities"), "attacker.capabilities"),
    (("infrastructure", "assets"), "infrastructure.assets"),
    (("infrastructure", "edges"), "infrastructure.edges"),
    (("infrastructure", "vulnerabilities"), "infrastructure.vulnerabilities"),
]


# Attacker capabilities naming an exploit that is not a scalar, as (the
# capabilities, the one error line).
BAD_CAPABILITIES = [
    ([["e1"]], "attacker.capabilities[0]: must be a scalar, got ['e1']"),
    ([None], "attacker.capabilities[0]: must be a scalar, got None"),
    (["e1", {"x": 1}], "attacker.capabilities[1]: must be a scalar, got {'x': 1}"),
]


def with_section(path, value):
    """MINIMAL with the section at ``path`` set to ``value``; the defender
    section is only read when there is an attacker, so the attacker and
    defender cases get both."""
    doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
    if path[0] in ("attacker", "defender"):
        doc["attacker"], doc["defender"] = dict(ATTACKER), None
    if path[:2] == ("infrastructure", "assets"):
        # Nothing may name an asset once the assets are replaced.
        doc["infrastructure"]["vulnerabilities"] = []
        doc["mission"]["tasks"][0]["requires"] = []
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


class TestDurations:
    @pytest.mark.parametrize(
        "text,want",
        [(90, 90.0), ("90", 90.0), ("90s", 90.0), ("15m", 900.0), ("2h", 7200.0),
         ("1d", 86400.0), ("1w", 604800.0), ("1.5h", 5400.0)],
    )
    def test_suffixes(self, text, want):
        assert parse_duration(text) == want

    def test_bad_duration(self):
        with pytest.raises(ValidationError):
            parse_duration("soon")

    def test_distributions(self):
        assert parse_distribution({"fixed": "2h"}) == Distribution.fixed(7200)
        assert parse_distribution({"uniform": [1, "1m"]}) == Distribution.uniform(1, 60)
        assert parse_distribution({"exponential": {"mean": 10}}) == Distribution.exponential(10)
        assert parse_distribution(5) == Distribution.fixed(5)
        with pytest.raises(ValidationError):
            parse_distribution({"gamma": 2})


class TestScenarioLoading:
    def test_minimal_loads_with_defaults(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert sc.replications == 2 and sc.horizon == 3600.0
        assert sc.mission.day_length == 86400.0
        assert sc.attacker is None

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            load_scenario("/nonexistent/path.yaml")

    def test_unknown_asset_binding_names_task(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["mission"]["tasks"][0]["requires"] = ["ghost"]
        with pytest.raises(ValidationError) as err:
            load_scenario(write_scenario(tmp_path, doc))
        assert "draft" in str(err.value)

    def test_attacker_requires_defender_key(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["attacker"] = {
            "target": "sys", "effect": "integrity", "start": {"fixed": 0},
            "capabilities": ["e1"],
        }
        with pytest.raises(ValidationError) as err:
            load_scenario(write_scenario(tmp_path, doc))
        assert "defender" in str(err.value)
        doc["defender"] = None
        sc = load_scenario(write_scenario(tmp_path, doc, "ok.yaml"))
        assert sc.attacker is not None and sc.defender is None

    @pytest.mark.parametrize(
        "path,value,field",
        [(("mission", "tasks", 0, "duration"), {"fixed": -5}, "mission.tasks[0].duration"),
         (("mission", "tasks", 0, "duration"), {"uniform": [-10, 30]}, "mission.tasks[0].duration"),
         (("mission", "tasks", 0, "duration"), {"uniform": [30, 10]}, "mission.tasks[0].duration"),
         (("mission", "tasks", 0, "rework"), -1, "mission.tasks[0].rework"),
         (("mission", "tasks", 0, "rework"), {"triangular": [-2, 1, 4]}, "mission.tasks[0].rework"),
         (("mission", "arrivals"), {"fixed": 0}, "mission.arrivals"),
         (("mission", "arrivals"), 0, "mission.arrivals"),
         (("mission", "arrivals"), {"uniform": [0, 0]}, "mission.arrivals"),
         (("mission", "day_length"), 0, "mission.day_length"),
         (("mission", "deadline_per_item"), "-5m", "mission.deadline_per_item"),
         (("sim", "horizon"), 0, "sim.horizon"),
         (("sim", "horizon"), float("inf"), "sim.horizon"),
         (("mission", "tasks", 0, "duration"), {"fixed": float("nan")}, "mission.tasks[0].duration")],
    )
    def test_negative_duration_or_empty_interval_rejected_at_load(self, tmp_path, path, value, field):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ValidationError) as err:
            load_scenario(write_scenario(tmp_path, doc))
        assert err.value.field == field

    def test_negative_attack_start_rejected_at_load(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["attacker"] = {"target": "sys", "effect": "integrity", "start": {"fixed": -10}}
        doc["defender"] = None
        with pytest.raises(ValidationError) as err:
            load_scenario(write_scenario(tmp_path, doc))
        assert err.value.field == "attacker.start"

    def test_unknown_attack_target(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["attacker"] = {"target": "ghost", "effect": "integrity", "start": {"fixed": 0}}
        doc["defender"] = None
        with pytest.raises(ValidationError):
            load_scenario(write_scenario(tmp_path, doc))

    def test_documents_hold_each_string_once(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["infrastructure"]["edges"] = [{"from": "sys", "to": "ws-1"}]
        loaded = scenario_mod.read_yaml(write_scenario(tmp_path, doc))
        assets = loaded["infrastructure"]["assets"]
        first_key, second_key = (next(k for k in a if k == "kind") for a in assets)
        assert first_key is second_key
        edge = loaded["infrastructure"]["edges"][0]
        assert edge["from"] is assets[1]["id"] and edge["to"] is assets[0]["id"]

    def test_save_load_round_trip(self, tmp_path):
        for name in ("slack.yaml", "outage_sweep.yaml", "checkpoint.yaml", "timing.yaml"):
            sc = load_scenario(bundled_path(name))
            out = str(tmp_path / f"echo_{name}")
            save_scenario(sc, out)
            again = load_scenario(out)
            assert scenario_to_dict(again) == scenario_to_dict(sc)
            assert again.mission == sc.mission
            assert again.attacker == sc.attacker
            assert again.defender == sc.defender
            mine, theirs = sc.topology, again.topology
            assert list(theirs.assets.values()) == list(mine.assets.values())
            assert theirs.edges == mine.edges
            assert theirs.vulnerabilities == mine.vulnerabilities
            # Component numbering follows the asset order, so equal rows
            # also pin that order.
            assert again.run_replication(0, sc.base_seed) == sc.run_replication(0, sc.base_seed)

    @pytest.mark.parametrize("field,extra", [
        ("scan_interval", {}),
        ("spearphish_interval", {"spearphish_success_prob": 0}),
    ])
    def test_attacker_steps_past_the_bound_are_refused(self, field, extra):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))  # a 3600 s horizon
        doc["defender"] = None
        attacker = {**ATTACKER, "capabilities": [], **extra}
        doc["attacker"] = {**attacker, field: {"exponential": 0.004}}
        scenario_from_dict(doc)  # 900k expected steps
        for step, cause in (({field: {"exponential": 0.003}}, field),
                            ({field: {"exponential": 1e-6}}, field),
                            ({field: {"fixed": 1}, "agility": 0.001}, "agility")):
            doc["attacker"] = {**attacker, **step}
            with pytest.raises(ValidationError) as err:
                scenario_from_dict(doc)
            assert err.value.field == f"attacker.{cause}"
            assert err.value.reason.endswith("steps, more than 1000000")

    def test_attacker_steps_past_the_bound_are_one_error_line(self, tmp_path, capsys):
        doc = scenario_mod.read_yaml(bundled_path("checkpoint.yaml"))
        doc["attacker"].update(capabilities=[], start={"fixed": 0},
                               scan_interval={"exponential": 1e-6})
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--replications", "1", "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: attacker.scan_interval: ")

    def test_forensics_passes_past_the_bound_are_refused(self):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))  # a 3600 s horizon
        doc["attacker"] = dict(ATTACKER)
        loads = [({"exponential": 0.004}, 0),  # 900k expected passes
                 ({"exponential": 1e-6}, 1),  # one pass finds every host
                 ({"fixed": 0}, 1e-6)]  # a host is found in 1e6 passes
        refused = [({"exponential": 0.003}, 0), ({"exponential": 1e-6}, 0),
                   ({"exponential": 1e-6}, 1e-7), ({"fixed": 0}, 1e-7)]
        for duration, prob in loads + refused:
            doc["defender"] = {"forensics_duration": duration, "per_host_discovery_prob": prob}
            if (duration, prob) in loads:
                scenario_from_dict(doc)
                continue
            with pytest.raises(ValidationError) as err:
                scenario_from_dict(doc)
            assert err.value.field == "defender.forensics_duration"
            assert err.value.reason.endswith("passes, more than 1000000")

    def test_forensics_passes_past_the_bound_are_one_error_line(self, tmp_path, capsys):
        # At load: a run of this document has not finished within 8 s.
        doc = scenario_mod.read_yaml(bundled_path("checkpoint.yaml"))
        doc["defender"] = {"detect_delay": {"fixed": 0}, "per_host_discovery_prob": 0,
                           "forensics_duration": {"exponential": 1e-6}}
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--replications", "1", "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: defender.forensics_duration: ")

    @settings(max_examples=40, deadline=None)
    @given(
        section=st.sampled_from(SECTIONS),
        value=st.one_of(
            st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(),
            st.lists(st.text(max_size=3), max_size=3),
        ),
    )
    def test_section_that_is_not_a_mapping_names_its_field(self, section, value):
        path, field, _ = section
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(with_section(path, value))
        assert err.value.field == field and err.value.reason == "must be a mapping"

    @settings(max_examples=40, deadline=None)
    @given(
        list_field=st.sampled_from(LIST_FIELDS),
        value=st.one_of(
            st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
        ),
    )
    def test_list_field_that_is_not_a_list_names_its_field(self, list_field, value):
        path, field = list_field
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(with_section(path, value))
        assert err.value.field == field and err.value.reason == "must be a list"

    @pytest.mark.parametrize("path", [p for p, _ in LIST_FIELDS], ids=[f for _, f in LIST_FIELDS])
    def test_null_list_field_reads_as_empty(self, path):
        echoed = scenario_to_dict(scenario_from_dict(with_section(path, None)))
        for key in path:
            echoed = echoed[key]
        assert echoed == []

    def test_mission_validated_once_at_load_not_per_replication(self, monkeypatch):
        calls = []

        real = mission_mod.validate_mission

        def counting(spec, graph=None):
            calls.append(spec)
            return real(spec, graph)

        monkeypatch.setattr(mission_mod, "validate_mission", counting)
        monkeypatch.setattr(scenario_mod, "validate_mission", counting)
        sc = load_scenario(bundled_path("checkpoint.yaml"))
        assert len(calls) == 1
        sc.run_replication(0, sc.base_seed)
        sc.run_detailed(1, sc.base_seed, record_trace=True)
        sc.without_attack().run_replication(0, sc.base_seed)
        assert len(calls) == 1

    def test_bundled_scenarios_all_load(self):
        for name in ("slack.yaml", "outage_sweep.yaml", "checkpoint.yaml",
                     "timing.yaml", "baseline.yaml"):
            sc = load_scenario(bundled_path(name))
            assert sc.mission.tasks

    @pytest.mark.parametrize("attacker,defender,field", [
        ({"scan_interval": {"fixed": 0}, "capabilities": []}, None, "attacker.scan_interval"),
        ({"spearphish_interval": {"fixed": 0}, "spearphish_success_prob": 0}, None,
         "attacker.spearphish_interval"),
        ({"scan_interval": {"uniform": [0, 0]}}, None, "attacker.scan_interval"),
        ({}, {"forensics_duration": {"fixed": 0}, "per_host_discovery_prob": 0},
         "defender.forensics_duration"),
    ])
    def test_interval_that_would_stall_the_loop_rejected_at_load(self, attacker, defender, field):
        # Loading only: each of these ran forever at one simulated instant.
        doc = scenario_mod.read_yaml(bundled_path("checkpoint.yaml"))
        doc["sim"]["horizon"] = 600
        doc["attacker"].update(attacker, start={"fixed": 0})
        doc["defender"] = defender
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.field == field

    def test_event_trace_replay_is_byte_identical(self):
        from miakit.kernel import trace_lines

        sc = load_scenario(bundled_path("checkpoint.yaml"))
        traces = [
            trace_lines(sc.run_detailed(0, sc.base_seed, record_trace=True)[3])
            for _ in range(2)
        ]
        assert traces[0] and traces[0] == traces[1]

    def test_ineffective_attacker_equals_no_attack_run(self):
        # Component streams are independent: an attacker that never reaches
        # its target does not perturb the mission's draws at all.
        sc = load_scenario(bundled_path("checkpoint.yaml"))
        armed = dataclasses.replace(
            sc, attacker=dataclasses.replace(sc.attacker, proficiency=0.0)
        )
        for k in range(3):
            harmless = armed.run_replication(k, sc.base_seed)
            clean = sc.without_attack().run_replication(k, sc.base_seed)
            assert harmless.plans_completed == clean.plans_completed
            assert harmless.mean_completion_delay_s == clean.mean_completion_delay_s
            assert harmless.corrupted_fraction == 0.0


class TestCliDiscover:
    def _gen(self, tmp_path, topology="retry_fixture.yaml", seed=12):
        flows_path = str(tmp_path / "flows.csv")
        truth_path = str(tmp_path / "truth.yaml")
        rc = main([
            "gen-flows", "--topology", bundled_path(topology),
            "--seed", str(seed), "--out", flows_path, "--truth", truth_path,
        ])
        assert rc == 0
        return flows_path, truth_path

    def test_discover_retry_fixture(self, tmp_path):
        flows_path, _ = self._gen(tmp_path)
        out = str(tmp_path / "deps.yaml")
        rc = main(["discover", "--flows", flows_path, "--out", out])
        assert rc == 0
        doc = yaml.safe_load(open(out))
        assert len(doc["retry_chains"]) == 3
        assert {c["fallback"] for c in doc["retry_chains"]} == {"comm-b:2404/tcp"}
        assert doc["parameters"]["ncc_threshold"] == 0.8  # defaults echoed

    def test_discover_empty_flow_file(self, tmp_path):
        flows_path = tmp_path / "empty.csv"
        flows_path.write_text(
            "ts_us,src_ip,src_port,dst_ip,dst_port,proto,bytes,packets\n"
        )
        out = str(tmp_path / "deps.yaml")
        rc = main(["discover", "--flows", str(flows_path), "--out", out])
        assert rc == 0
        doc = yaml.safe_load(open(out))
        assert doc["direct"] == [] and doc["indirect"] == [] and doc["retry_chains"] == []

    def test_discover_graph_out(self, tmp_path):
        flows_path, _ = self._gen(tmp_path)
        out = str(tmp_path / "deps.yaml")
        graph_out = str(tmp_path / "graph.yaml")
        rc = main(["discover", "--flows", flows_path, "--out", out, "--graph-out", graph_out])
        assert rc == 0
        gdoc = yaml.safe_load(open(graph_out))
        assert any(a["kind"] == "service" for a in gdoc["assets"])
        assert len(gdoc["annotations"]) == 3
        assert gdoc["edges"] and all(set(e) == {"from", "to", "kind"} for e in gdoc["edges"])

    def test_discovered_graph_feeds_propagate(self, tmp_path, capsys):
        flows_path, _ = self._gen(tmp_path)
        graph_out = str(tmp_path / "graph.yaml")
        assert main(["discover", "--flows", flows_path, "--out", str(tmp_path / "deps.yaml"),
                     "--graph-out", graph_out]) == 0
        edge = yaml.safe_load(open(graph_out))["edges"][0]
        client, service = edge["from"], edge["to"]
        mission = tmp_path / "mission.yaml"
        mission.write_text(yaml.safe_dump({"tasks": [
            {"id": "use", "requires": [service]},
            {"id": "work", "requires": [client]},
        ]}))
        capsys.readouterr()
        rc = main(["propagate", "--graph", graph_out, "--compromised", service,
                   "--mission", str(mission)])
        assert rc == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["tasks"] == {
            "use": {"impacted": True, "witness": [service]},
            "work": {"impacted": True, "witness": [client, service]},
        }

    def test_discover_output_deterministic(self, tmp_path):
        flows_path, _ = self._gen(tmp_path, topology="cascade_clean.yaml")
        outs = []
        for k in (1, 2):
            out = tmp_path / f"deps{k}.yaml"
            assert main(["discover", "--flows", flows_path, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_max_lag_past_the_series_costs_no_more(self, tmp_path):
        flows_path, _ = self._gen(tmp_path, topology="cascade_clean.yaml")
        records = parse_flows(flows_path)
        span = max(r.ts_us for r in records) + 1 - min(r.ts_us for r in records)
        n_bins = -(-span // 1_000_000)
        docs = []
        for max_lag in (10**12, n_bins - 2):
            out = tmp_path / f"deps{max_lag}.yaml"
            start = time.perf_counter()
            assert main(["discover", "--flows", flows_path, "--max-lag", str(max_lag),
                         "--out", str(out)]) == 0
            assert time.perf_counter() - start < 60
            docs.append(yaml.safe_load(out.read_text()))
        assert docs[0]["indirect"] and docs[0]["indirect"] == docs[1]["indirect"]

    def test_missing_flow_file_is_domain_error(self, tmp_path):
        rc = main(["discover", "--flows", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_bad_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["discover", "--no-such-flag"])
        assert err.value.code == 2


# SHA-256 of ``discover`` output (deps.yaml, graph.yaml) and of the full
# inference result, with every score as ``repr``, for ``gen-flows --seed 7``.
DISCOVER_GOLDEN = {
    "cascade_noisy.yaml": (
        "00706c4b8c88ca06122082deb3e932560dda4dbab83b3f855aa2a876ff6d1094",
        "d8f980db49af23beb34c75ac936b2a32a8f83720595f34b9d11b4cee55da71ae",
        "025e7fc5ed87d2a43b960579e05f3417047c4a8677741464d7079cd07c4b2571",
    ),
    "retry_fixture.yaml": (
        "a0d36a012697af644fe2e029a2d515a76acebdd48d71a7eb07043d266bc4ead1",
        "95a9fa91e9bc617f506ac3d731f5d6345de40324b8853daad2bcdb5ac8a48f45",
        "6c823653fd5e2303d8f63b1bc5ecebf39b26f103d69edd3b0f0afa0d23cc80d3",
    ),
}


def inference_digest(flows_path):
    records = parse_flows(flows_path)
    direct = discovery.direct_dependencies(records)
    window = (min(r.ts_us for r in records), max(r.ts_us for r in records) + 1)
    indirect = discovery.infer_indirect(
        direct, lambda ch: bin_activity(records, ch, 1.0, window)
    )
    chains = discovery.detect_retry_chains(records)
    lines = [f"D {d.client} {d.service.label()} {d.flow_count} {d.first_seen_us} "
             f"{d.last_seen_us}" for d in direct]
    lines += [f"I {i.upstream.label()} {i.downstream.label()} {i.lag_bins} {i.score!r}"
              for i in indirect]
    lines += [f"R {c.client} {c.first_contact.label()} {c.fallback.label()} {c.support}"
              for c in chains]
    return "\n".join(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestDiscoverGolden:
    @pytest.mark.parametrize("topology", sorted(DISCOVER_GOLDEN))
    def test_discover_output_is_pinned(self, tmp_path, monkeypatch, topology):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-flows", "--topology", bundled_path(topology), "--seed", "7",
                     "--out", "flows.csv"]) == 0
        assert main(["discover", "--flows", "flows.csv", "--out", "deps.yaml",
                     "--graph-out", "graph.yaml"]) == 0
        lines, digest = inference_digest("flows.csv")
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("deps.yaml", "graph.yaml")
        ) + (digest,)
        assert got == DISCOVER_GOLDEN[topology]

    def test_golden_covers_indirect_scores_and_retry_chains(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        kinds = set()
        for topology in DISCOVER_GOLDEN:
            assert main(["gen-flows", "--topology", bundled_path(topology), "--seed", "7",
                         "--out", "flows.csv"]) == 0
            kinds |= {line[0] for line in inference_digest("flows.csv")[0].splitlines()}
        assert kinds == {"D", "I", "R"}


class TestCliGenFlows:
    def test_same_seed_identical_bytes(self, tmp_path):
        paths = []
        for k in (1, 2):
            out = tmp_path / f"f{k}.csv"
            rc = main(["gen-flows", "--topology", bundled_path("cascade_clean.yaml"),
                       "--seed", "77", "--out", str(out)])
            assert rc == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_zero_rate_topology_empty_csv(self, tmp_path):
        topo = tmp_path / "topo.yaml"
        topo.write_text(yaml.safe_dump({
            "duration_s": 100,
            "channels": [{"client": "a", "service": "b:80/tcp", "rate_per_s": 0.0}],
        }))
        out = tmp_path / "flows.csv"
        rc = main(["gen-flows", "--topology", str(topo), "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip() == "ts_us,src_ip,src_port,dst_ip,dst_port,proto,bytes,packets"

    @pytest.mark.parametrize("problem", ["malformed", "missing", "not-utf8"])
    def test_bad_topology_file_is_one_error_line(self, tmp_path, capsys, problem):
        bad = tmp_path / "bad.yaml"
        if problem == "malformed":
            bad.write_text("a: [1,\n")
        elif problem == "not-utf8":
            bad.write_bytes(b"duration_s: \xff\xfe\n")
        rc = main(["gen-flows", "--topology", str(bad), "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")


class TestCliSimulate:
    def test_metrics_csv_deterministic(self, tmp_path):
        outs = []
        for k in (1, 2):
            out = tmp_path / f"m{k}.csv"
            rc = main(["simulate", "--scenario", bundled_path("baseline.yaml"),
                       "--replications", "4", "--seed", "9", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_attack_corrupted_column_zero(self, tmp_path):
        out = tmp_path / "m.csv"
        main(["simulate", "--scenario", bundled_path("baseline.yaml"),
              "--replications", "4", "--seed", "2", "--out", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        assert all(row.split(",")[3] == "0.0" for row in rows)

    def test_baseline_flag_emits_comparison(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = main(["simulate", "--scenario", bundled_path("timing.yaml"),
                   "--replications", "5", "--seed", "4", "--baseline", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "percent_reduction_plans_completed" in captured
        assert (tmp_path / "m.csv.baseline.csv").exists()

    def test_baseline_runs_read_the_draws_of_their_attack_runs(self, tmp_path, monkeypatch):
        """With --baseline, replication k's attack-free run follows its attack
        run and reads its draws: the item seeds asked for are the attack
        runs' alone, and the attack rows are those of a run without it."""
        built = []
        real = StreamFactory.item_seed

        def item_seed(self, item_id):
            built.append((self.replication, item_id))
            return real(self, item_id)

        monkeypatch.setattr(StreamFactory, "item_seed", item_seed)
        streams = []
        for flags in ([], ["--baseline"]):
            built.clear()
            rc = main(["simulate", "--scenario", bundled_path("timing.yaml"), "--replications",
                       "3", "--seed", "4", "--out", str(tmp_path / f"m{len(flags)}.csv")] + flags)
            assert rc == 0
            streams.append(list(built))
        assert streams[0] and streams[1] == streams[0]
        assert (tmp_path / "m0.csv").read_bytes() == (tmp_path / "m1.csv").read_bytes()

    def test_negative_duration_is_one_error_line(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["mission"]["tasks"][0]["duration"] = {"fixed": -60}
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: mission.tasks[0].duration")

    def test_degenerate_triangular_rejected_at_load(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["mission"]["tasks"][0]["duration"] = {"triangular": [30, 30, 30]}
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: mission.tasks[0].duration: triangular requires low < high")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize(
        "section,key,value,field",
        [
            ("sim", "replications", "many", "sim.replications"),
            ("sim", "base_seed", "x", "sim.base_seed"),
            ("mission", "personnel", {"planner": "x"}, "mission.personnel.planner"),
        ],
    )
    def test_non_integer_is_one_error_line(self, tmp_path, capsys, section, key, value, field):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc[section][key] = value
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}: ")

    @pytest.mark.parametrize("path,field,value", SECTIONS, ids=[f for _, f, _ in SECTIONS])
    def test_section_not_a_mapping_is_one_error_line(self, tmp_path, capsys, path, field, value):
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, with_section(path, value)),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {field}: must be a mapping"]

    @pytest.mark.parametrize("value", [5, "e1"])
    @pytest.mark.parametrize("path,field", LIST_FIELDS, ids=[f for _, f in LIST_FIELDS])
    def test_list_field_not_a_list_is_one_error_line(self, tmp_path, capsys, path, field, value):
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, with_section(path, value)),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {field}: must be a list"]

    @pytest.mark.parametrize("value,want", BAD_CAPABILITIES, ids=[w for _, w in BAD_CAPABILITIES])
    def test_non_scalar_capability_is_one_error_line(self, tmp_path, capsys, value, want):
        doc = with_section(("attacker", "capabilities"), value)
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {want}"]
        assert not (tmp_path / "m.csv").exists()

    def test_unknown_asset_binding_is_one_error_line(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["mission"]["tasks"][0]["requires"] = ["sys", "ghost"]
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: mission.tasks[0].requires: task 'draft' bound to unknown asset 'ghost'"
        ]

    def test_workers_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--scenario", bundled_path("timing.yaml"), "--workers", "2",
                  "--out", str(tmp_path / "m.csv")])
        assert err.value.code == 2

    def test_invalid_scenario_exit_one(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 1\nmission: {}\n")
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "m.csv")])
        assert rc == 1


class TestCliPropagateAndReport:
    def test_propagate_bundled_fixture(self, tmp_path, capsys):
        out = str(tmp_path / "impact.yaml")
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "plandb", "--mission", bundled_path("checkpoint.yaml"),
                   "--out", out])
        assert rc == 0
        doc = yaml.safe_load(open(out))
        assert doc["tasks"]["draft"]["impacted"] is True
        assert doc["tasks"]["draft"]["witness"] == ["plandb"]

    def test_propagate_empty_compromised_all_clear(self, tmp_path):
        out = str(tmp_path / "impact.yaml")
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "", "--mission", bundled_path("checkpoint.yaml"),
                   "--out", out])
        assert rc == 0
        doc = yaml.safe_load(open(out))
        assert doc["tasks"]["draft"]["impacted"] is False

    def test_propagate_reads_graph_with_edge_weights(self, tmp_path, capsys):
        # Graph documents written before edges lost their weight still load.
        chain = [("db", "core"), ("app", "db")]
        outs = []
        for extra in ({}, {"weight": 0.5}):
            gpath = tmp_path / "graph.yaml"
            gpath.write_text(yaml.safe_dump({
                "assets": [{"id": a, "kind": "device"} for a in ("core", "db", "app")],
                "edges": [{"from": f, "to": t, **extra} for f, t in chain],
            }))
            mpath = write_scenario(tmp_path, {"tasks": [{"id": "t1", "requires": ["app"]}]})
            rc = main(["propagate", "--graph", str(gpath), "--compromised", "core",
                       "--mission", mpath])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert yaml.safe_load(outs[1])["tasks"]["t1"]["witness"] == ["app", "db", "core"]

    def test_propagate_unknown_asset_exit_one(self, tmp_path):
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "ghost", "--mission", bundled_path("checkpoint.yaml")])
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--graph", "--mission"])
    @pytest.mark.parametrize("problem", ["malformed", "missing"])
    def test_propagate_bad_input_file_is_one_error_line(self, tmp_path, capsys, flag, problem):
        bad = tmp_path / "bad.yaml"
        if problem == "malformed":
            bad.write_text("assets: [unclosed\n  - {id: a\n")
        files = {"--graph": bundled_path("checkpoint.yaml"),
                 "--mission": bundled_path("checkpoint.yaml"), flag: str(bad)}
        rc = main(["propagate", "--graph", files["--graph"], "--compromised", "plandb",
                   "--mission", files["--mission"]])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("nested", [False, True])
    def test_propagate_task_without_id_names_the_field(self, tmp_path, capsys, nested):
        tasks = [{"id": "t1", "requires": ["plandb"]}, {"requires": ["plandb"]}]
        doc = {"mission": {"tasks": tasks}} if nested else {"tasks": tasks}
        mpath = tmp_path / "mission.yaml"
        mpath.write_text(yaml.safe_dump(doc))
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "plandb", "--mission", str(mpath)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        where = "mission.tasks" if nested else "tasks"
        assert err == [f"error: {where}[1].id: missing required field"]

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("task,want", [
        ({"id": [1, 2]}, "[0].id: must be a scalar, got [1, 2]"),
        ({"id": None}, "[0].id: missing required field"),
        ({"id": "t1", "requires": [["plandb"]]},
         "[0].requires[0]: must be a scalar, got ['plandb']"),
    ])
    def test_propagate_task_key_names_the_field(self, tmp_path, capsys, nested, task, want):
        doc = {"mission": {"tasks": [task]}} if nested else {"tasks": [task]}
        mpath = tmp_path / "mission.yaml"
        mpath.write_text(yaml.safe_dump(doc))
        argv = ["propagate", "--graph", bundled_path("checkpoint.yaml"),
                "--compromised", "plandb", "--mission", str(mpath)]
        where = "mission.tasks" if nested else "tasks"
        assert one_error_line(capsys, argv) == [f"error: {where}{want}"]

    @pytest.mark.parametrize("nested", [False, True])
    def test_propagate_tasks_not_a_list_names_the_field(self, tmp_path, capsys, nested):
        doc = {"mission": {"tasks": 5}} if nested else {"tasks": 5}
        mpath = tmp_path / "mission.yaml"
        mpath.write_text(yaml.safe_dump(doc))
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "plandb", "--mission", str(mpath)])
        assert rc == 1
        where = "mission.tasks" if nested else "tasks"
        assert capsys.readouterr().err.splitlines() == [f"error: {where}: must be a list"]

    def test_propagate_requires_not_a_list_names_the_field(self, tmp_path, capsys):
        mpath = tmp_path / "mission.yaml"
        mpath.write_text(yaml.safe_dump({"tasks": [{"id": "t1", "requires": "plandb"}]}))
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "plandb", "--mission", str(mpath)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: tasks[0].requires: must be a list"
        ]

    @pytest.mark.parametrize("nested", [False, True])
    def test_propagate_unknown_required_asset_names_the_field(self, tmp_path, capsys, nested):
        tasks = [{"id": "t1", "requires": ["plandb"]}, {"id": "t2", "requires": ["plandb", "nosuch"]}]
        doc = {"mission": {"tasks": tasks}} if nested else {"tasks": tasks}
        mpath = tmp_path / "mission.yaml"
        mpath.write_text(yaml.safe_dump(doc))
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "plandb", "--mission", str(mpath)])
        assert rc == 1
        where = "mission.tasks" if nested else "tasks"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {where}[1].requires[1]: unknown asset 'nosuch'"
        ]

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("first,second", [("t1", "t1"), (1, "1")])
    def test_propagate_refuses_a_repeated_task_id(self, tmp_path, capsys, nested, first, second):
        # Read as one key, the later task's list would hide the earlier one's.
        tasks = [{"id": first, "requires": ["ghost"]}, {"id": second, "requires": ["plandb"]}]
        doc = {"mission": {"tasks": tasks}} if nested else {"tasks": tasks}
        mpath = tmp_path / "mission.yaml"
        mpath.write_text(yaml.safe_dump(doc))
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "plandb", "--mission", str(mpath)])
        assert rc == 1
        where = "mission.tasks" if nested else "tasks"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {where}[1].id: duplicate task id '{second}'"
        ]

    def test_propagate_unknown_compromised_asset_names_the_field(self, capsys):
        rc = main(["propagate", "--graph", bundled_path("checkpoint.yaml"),
                   "--compromised", "nosuch,plandb", "--mission", bundled_path("checkpoint.yaml")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: compromised: unknown asset 'nosuch'"
        ]

    def test_propagate_root_asset_impacts_every_task(self, tmp_path):
        graph_doc = {
            "assets": [{"id": a, "kind": "device"} for a in ("core", "db", "app", "gui")],
            "edges": [
                {"from": "db", "to": "core"},
                {"from": "app", "to": "db"},
                {"from": "gui", "to": "app"},
            ],
        }
        mission_doc = {
            "tasks": [
                {"id": "t1", "requires": ["db"]},
                {"id": "t2", "requires": ["app"]},
                {"id": "t3", "requires": ["gui"]},
            ]
        }
        gpath = tmp_path / "graph.yaml"
        mpath = tmp_path / "mission.yaml"
        gpath.write_text(yaml.safe_dump(graph_doc))
        mpath.write_text(yaml.safe_dump(mission_doc))
        out = str(tmp_path / "impact.yaml")
        rc = main(["propagate", "--graph", str(gpath), "--compromised", "core",
                   "--mission", str(mpath), "--out", out])
        assert rc == 0
        doc = yaml.safe_load(open(out))
        assert all(doc["tasks"][t]["impacted"] for t in ("t1", "t2", "t3"))
        assert doc["tasks"]["t3"]["witness"] == ["gui", "app", "db", "core"]

    def test_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        main(["simulate", "--scenario", bundled_path("baseline.yaml"),
              "--replications", "4", "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", "--metrics", str(out)])
        assert rc == 0
        assert "plans_completed" in capsys.readouterr().out


def graph_with(key, value):
    """MINIMAL's infrastructure section with ``key`` set to ``value``."""
    infra = yaml.safe_load(yaml.safe_dump(MINIMAL["infrastructure"]))
    infra[key] = value
    return infra


# Graph documents that do not have the shape build_topology reads, as
# (key, value, the path and reason of the one error line).
BAD_GRAPHS = [
    ("edges", 5, "edges: must be a list"),
    ("assets", {"id": "a"}, "assets: must be a list"),
    ("vulnerabilities", "sys", "vulnerabilities: must be a list"),
    ("assets", [{"name": "a"}], "assets[0].id: missing required field"),
    ("assets", ["ws-1"], "assets[0]: must be a mapping"),
    ("edges", [{"from": "sys"}], "edges[0].to: missing required field"),
    ("edges", [5], "edges[0]: must be a mapping"),
    ("vulnerabilities", [{"asset": "sys"}], "vulnerabilities[0].exploit: missing required field"),
    ("assets", [{"id": "sys", "subnet": [1]}], "assets[0].subnet: must be a scalar, got [1]"),
    ("assets", [{"id": "sys", "kind": "robot"}], "assets[0].kind: unknown asset kind 'robot'"),
    ("assets", [{"id": "sys"}, {"id": "sys"}], "assets[1].id: asset id 'sys' declared twice"),
    ("edges", [{"from": "sys", "to": "ws-1", "group": {"g": 1}}],
     "edges[0].group: must be a scalar, got {'g': 1}"),
    ("edges", [{"from": "sys", "to": "zz"}], "edges[0].to: unknown asset 'zz'"),
    ("edges", [{"from": "sys", "to": "sys"}], "edges[0].to: asset 'sys' cannot depend on itself"),
    ("vulnerabilities", [{"asset": "zz", "exploit": "e1"}],
     "vulnerabilities[0].asset: unknown asset 'zz'"),
    ("vulnerabilities", [{"asset": "sys", "exploit": ["e1"]}],
     "vulnerabilities[0].exploit: must be a scalar, got ['e1']"),
    ("vulnerabilities", [{"asset": "sys", "exploit": None}],
     "vulnerabilities[0].exploit: must be a scalar, got None"),
]


class TestGraphDocuments:
    @pytest.mark.parametrize("key,value,want", BAD_GRAPHS, ids=[w for _, _, w in BAD_GRAPHS])
    def test_simulate_names_the_infrastructure_field(self, tmp_path, capsys, key, value, want):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["infrastructure"] = graph_with(key, value)
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: infrastructure.{want}"]

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("key,value,want", BAD_GRAPHS, ids=[w for _, _, w in BAD_GRAPHS])
    def test_propagate_graph_names_the_field(self, tmp_path, capsys, key, value, want, nested):
        infra = graph_with(key, value)
        gpath = tmp_path / "graph.yaml"
        gpath.write_text(yaml.safe_dump({"infrastructure": infra} if nested else infra))
        rc = main(["propagate", "--graph", str(gpath), "--compromised", "sys",
                   "--mission", bundled_path("checkpoint.yaml")])
        assert rc == 1
        where = "infrastructure." if nested else ""
        assert capsys.readouterr().err.splitlines() == [f"error: {where}{want}"]

    def test_propagate_graph_document_that_is_a_list(self, tmp_path, capsys):
        gpath = tmp_path / "graph.yaml"
        gpath.write_text(yaml.safe_dump([{"id": "sys"}]))
        rc = main(["propagate", "--graph", str(gpath), "--compromised", "sys",
                   "--mission", bundled_path("checkpoint.yaml")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {gpath}: graph document must be a mapping"
        ]

    def test_saved_infrastructure_is_in_normal_form(self):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["infrastructure"]["assets"].append({"id": 7, "note": "spare"})
        doc["infrastructure"]["edges"] = [
            {"from": "sys", "to": "ws-1", "weight": 3},
            {"from": "sys", "to": 7, "group": "g"},
        ]
        echoed = scenario_to_dict(scenario_from_dict(doc))["infrastructure"]
        assert echoed == {
            "assets": [
                {"id": "ws-1", "kind": "end_user_node", "name": "ws-1", "subnet": "lan"},
                {"id": "sys", "kind": "application", "name": "sys", "subnet": "lan"},
                {"id": "7", "kind": "device", "name": "7", "subnet": None},
            ],
            "edges": [
                {"from": "sys", "to": "ws-1", "kind": "declared"},
                {"from": "sys", "to": "7", "kind": "declared", "group": "g"},
            ],
            "vulnerabilities": [{"asset": "sys", "exploit": "e1"}],
        }

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(["assets", "edges", "vulnerabilities"]),
        value=st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=3),
            st.lists(
                st.one_of(
                    st.none(), st.integers(), st.text(max_size=3),
                    st.dictionaries(
                        st.sampled_from(
                            ["id", "from", "to", "asset", "exploit", "kind", "subnet", "group"]
                        ),
                        st.sampled_from(["ws-1", "sys", "e1", "device", 5, None, [1], {"a": 1}]),
                        max_size=5,
                    ),
                ),
                max_size=3,
            ),
        ),
    )
    def test_any_graph_list_loads_or_names_an_infrastructure_field(self, key, value):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["infrastructure"] = graph_with(key, value)
        try:
            scenario_from_dict(doc)
        except ValidationError as exc:
            lists = ("assets", "edges", "vulnerabilities")
            assert exc.field.startswith(tuple(f"infrastructure.{k}" for k in lists))


# Mission documents that validate_mission rejects, as (how to break MINIMAL,
# the one error line).
BAD_MISSIONS = [
    (lambda m: m["tasks"][0].update(after=["zz"]),
     "mission.tasks[0].after: unknown predecessor 'zz'"),
    (lambda m: m["tasks"][0].update(role="pilot"),
     "mission.tasks[0].role: role 'pilot' has no headcount"),
    (lambda m: m["personnel"].update(planner=0),
     "mission.personnel.planner: headcount must be >= 1"),
    (lambda m: m["tasks"].append(dict(m["tasks"][0])),
     "mission.tasks[1].id: duplicate task id 'draft'"),
    (lambda m: m.update(checkpoints=["2d"]),
     "mission.checkpoints: checkpoint 172800.0 outside [0, day_length)"),
    (lambda m: m["tasks"].extend([
        {"id": "a", "role": "planner", "duration": 1, "after": ["b"]},
        {"id": "b", "role": "planner", "duration": 1, "after": ["a"]},
    ]), "mission.tasks: precedence cycle among tasks ['a', 'b']"),
]


class TestMissionErrors:
    @pytest.mark.parametrize("breaks,want", BAD_MISSIONS, ids=[w for _, w in BAD_MISSIONS])
    def test_simulate_names_the_task_field(self, tmp_path, capsys, breaks, want):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        breaks(doc["mission"])
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {want}"]

    # Documents whose run would exhaust memory or not end, refused at load
    # before anything is scheduled, as (how to break checkpoint.yaml, the
    # field and the start of the reason).
    OVERSIZED = [
        (lambda d: d["mission"].update(day_length=0.01, checkpoints=[]),
         "mission.day_length", "0.01 s days over a 86400 s horizon schedule 8.64e+06"),
        (lambda d: d["sim"].update(horizon=1e13),
         "mission.day_length", "86400 s days over a 1e+13 s horizon schedule 3.47e+08"),
        (lambda d: d["mission"].update(arrivals={"exponential": 1e-9}),
         "mission.arrivals", "a mean interval of 1e-09 s over 86400 s of arrivals expects 8.64e+13"),
    ]

    @pytest.mark.parametrize("breaks,field,reason", OVERSIZED, ids=[f for _, f, _ in OVERSIZED])
    def test_oversized_run_refused_at_load(self, breaks, field, reason):
        doc = scenario_mod.read_yaml(bundled_path("checkpoint.yaml"))
        breaks(doc)
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.field == field
        assert err.value.reason.startswith(reason)

    def test_every_mission_error_is_a_mission_error_and_a_value_error(self):
        for cls in (mission_mod.CyclicPrecedence, mission_mod.UnknownRole,
                    mission_mod.UnknownAssetBinding):
            assert issubclass(cls, ValidationError)
        assert issubclass(ValidationError, ValueError)


# gen-flows topologies with a bad field, as (topology, the one error line).
BAD_TOPOLOGIES = [
    ({"channels": 5}, "channels: must be a list"),
    ({"channels": [5]}, "channels[0]: must be a mapping"),
    ({"channels": [{"client": "a", "rate_per_s": 1}]}, "channels[0].service: missing required field"),
    ({"channels": [{"client": "a", "service": "b", "rate_per_s": 1}]},
     "channels[0].service: bad service label 'b'"),
    ({"channels": [{"client": "a", "service": "b:80/tcp", "rate_per_s": "fast"}]},
     "channels[0].rate_per_s: expected a number, got 'fast'"),
    ({"duration_s": "ten"}, "duration_s: expected a number, got 'ten'"),
    ({"bin_width": [1]}, "bin_width: expected a number, got [1]"),
    ({"cascades": {"a": 1}}, "cascades: must be a list"),
    ({"cascades": [{"downstream_service": "d:1/tcp", "lag_s": 1}]},
     "cascades[0].upstream: missing required field"),
    ({"cascades": [{"upstream": {"client": "a", "service": "b:80/tcp"},
                    "downstream_service": "d:1/tcp", "lag_s": 1}]},
     "cascades[0].upstream.rate_per_s: missing required field"),
    ({"cascades": [{"upstream": {"client": "a", "service": "b:80/tcp", "rate_per_s": 1},
                    "downstream_service": "d:1/tcp", "lag_s": 1, "jitter_s": "x"}]},
     "cascades[0].jitter_s: expected a number, got 'x'"),
    ({"retries": [{"client": "a", "primary": "b:1/tcp", "rate_per_s": 1}]},
     "retries[0].fallback: missing required field"),
    ({"retries": "r"}, "retries: must be a list"),
    ({"channels": [{"client": "a", "service": "b:99999/tcp", "rate_per_s": 1}]},
     "channels[0].service: port 99999 out of range in 'b:99999/tcp'"),
    ({"channels": [{"client": "a", "service": "b:80/tcp", "rate_per_s": -1}]},
     "channels[0].rate_per_s: must be finite and >= 0, got -1.0"),
    ({"channels": [{"client": "a", "service": "b:80/tcp", "rate_per_s": float("inf")}]},
     "channels[0].rate_per_s: must be finite and >= 0, got inf"),
    ({"cascades": [{"upstream": {"client": "a", "service": "b:80/tcp", "rate_per_s": 1},
                    "downstream_service": "d:1/tcp", "lag_s": -2}]},
     "cascades[0].lag_s: must be finite and >= 0, got -2.0"),
    ({"cascades": [{"upstream": {"client": "a", "service": "b:80/tcp", "rate_per_s": 1},
                    "downstream_service": "d:1/tcp", "lag_s": 1, "jitter_s": float("nan")}]},
     "cascades[0].jitter_s: must be finite and >= 0, got nan"),
    ({"cascades": [{"upstream": {"client": "a", "service": "b:80/tcp", "rate_per_s": 1},
                    "downstream_service": "d:1/tcp", "lag_s": 1, "drop_prob": 2}]},
     "cascades[0].drop_prob: must lie in [0, 1], got 2.0"),
    ({"retries": [{"client": "a", "primary": "b:1/tcp", "fallback": "c:1/tcp",
                   "rate_per_s": 1, "gap_s": -0.5}]},
     "retries[0].gap_s: must be finite and >= 0, got -0.5"),
    ({"duration_s": 0}, "duration_s: must be finite and > 0, got 0.0"),
    ({"bin_width": float("inf")}, "bin_width: must be finite and >= 1e-06, got inf"),
    ({"bin_width": 1e-9}, "bin_width: must be finite and >= 1e-06, got 1e-09"),
    ({"bin_width": 0}, "bin_width: must be finite and >= 1e-06, got 0.0"),
]


class TestGenFlowsTopology:
    @pytest.mark.parametrize("topo,want", BAD_TOPOLOGIES, ids=[w for _, w in BAD_TOPOLOGIES])
    def test_bad_field_is_one_error_line(self, tmp_path, capsys, topo, want):
        path = tmp_path / "topo.yaml"
        path.write_text(yaml.safe_dump(topo))
        out = tmp_path / "flows.csv"
        rc = main(["gen-flows", "--topology", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {want}"]
        assert not out.exists()


# Topologies gen-flows refuses before its first draw, as (topology, --duration
# or None, the one error line).
UNBOUNDED_TOPOLOGIES = [
    (bundled_path("cascade_clean.yaml"), "1e12",
     "duration_s: 1e+12 s of traffic expects 1.4e+13 flows, more than 2000000"),
    ({"duration_s": 1.0e14, "channels": [{"client": "a", "service": "b:80/tcp",
                                          "rate_per_s": 1.0e-13}]}, None,
     "duration_s: 1e+14 s is 1e+20 us, past the int64 flow timestamp"),
    ({"channels": [{"client": "a", "service": "b:80/tcp", "rate_per_s": 1}],
      "retries": [{"client": "a", "primary": "b:1/tcp", "rate_per_s": 1}]}, None,
     "retries[0].fallback: missing required field"),
]


class TestGenFlowsBound:
    @pytest.mark.parametrize("topo,duration,want", UNBOUNDED_TOPOLOGIES,
                             ids=[w for _, _, w in UNBOUNDED_TOPOLOGIES])
    def test_refused_before_any_draw(self, tmp_path, capsys, topo, duration, want):
        if isinstance(topo, dict):
            path = tmp_path / "topo.yaml"
            path.write_text(yaml.safe_dump(topo))
            topo = str(path)
        argv = ["gen-flows", "--topology", topo, "--out", str(tmp_path / "f.csv")]
        if duration is not None:
            argv += ["--duration", duration]
        with mock.patch.object(synth, "_poisson_times", side_effect=AssertionError("drew")):
            assert one_error_line(capsys, argv) == [f"error: {want}"]
        assert not (tmp_path / "f.csv").exists()

    def test_the_bound_is_on_the_expected_count(self):
        topo = {"duration_s": 10, "channels": [{"client": "a", "service": "b:80/tcp",
                                                "rate_per_s": 1}]}
        with mock.patch.object(synth, "MAX_EXPECTED_FLOWS", 10):
            assert len(synth.gen_flows(topo, seed=1)[0]) > 0
        with mock.patch.object(synth, "MAX_EXPECTED_FLOWS", 9):
            with pytest.raises(ValidationError) as err:
                synth.gen_flows(topo, seed=1)
        assert err.value.field == "duration_s"


# The fields of the scenario sections that have a default, as (path, field name).
SPEC_DEFAULTS = [
    (("mission", name), f"mission.{name}")
    for name in ("day_length", "checkpoints", "deadline_per_item", "arrival_cutoff")
] + [
    (("mission", "tasks", 0, name), f"mission.tasks[0].{name}")
    for name in ("rework", "requires", "after")
] + [
    (("sim", name), f"sim.{name}") for name in ("horizon", "replications", "base_seed")
] + [
    (("attacker", name), f"attacker.{name}")
    for name in ("capabilities", "spearphish_success_prob", "spearphish_interval",
                 "scan_interval", "proficiency", "agility")
] + [
    (("defender", name), f"defender.{name}")
    for name in ("detect_delay", "forensics_duration", "per_host_discovery_prob",
                 "remediation_per_host")
]
# Every scenario field that has a default, the graph entries' included, but
# the horizon: a long one is refused by the calendar, arrival or attacker bound
# it crosses, and the error names that bound's field (see OVERSIZED).
OPTIONAL_FIELDS = [f for f in SPEC_DEFAULTS if f[1] != "sim.horizon"] + [
    (("infrastructure", "assets", 0, "kind"), "infrastructure.assets[0].kind"),
    (("infrastructure", "assets", 0, "subnet"), "infrastructure.assets[0].subnet"),
    (("infrastructure", "edges", 0, "kind"), "infrastructure.edges[0].kind"),
    (("infrastructure", "edges", 0, "group"), "infrastructure.edges[0].group"),
]

# The fields of the scenario sections that have no default, as (path, field name).
REQUIRED_FIELDS = [
    (("mission", "tasks", 0, name), f"mission.tasks[0].{name}")
    for name in ("id", "role", "duration")
] + [
    (("mission", "arrivals"), "mission.arrivals"),
    (("attacker", "target"), "attacker.target"),
]
# An id, or a field naming one, that is not a scalar, as (path, value, field name).
BAD_KEYS = [
    (("mission", "tasks", 0, "id"), [1, 2], "mission.tasks[0].id"),
    (("mission", "tasks", 0, "role"), {"a": 1}, "mission.tasks[0].role"),
    (("mission", "tasks", 0, "requires", 0), None, "mission.tasks[0].requires[0]"),
    (("mission", "tasks", 0, "after"), [["draft"]], "mission.tasks[0].after[0]"),
    (("mission", "personnel", None), 1, "mission.personnel.None"),
    (("infrastructure", "assets", 0, "id"), None, "infrastructure.assets[0].id"),
    (("infrastructure", "assets", 0, "id"), [1, 2], "infrastructure.assets[0].id"),
    (("infrastructure", "edges", 0, "from"), None, "infrastructure.edges[0].from"),
    (("infrastructure", "edges", 0, "to"), ["ws-1"], "infrastructure.edges[0].to"),
    (("infrastructure", "vulnerabilities", 0, "asset"), None,
     "infrastructure.vulnerabilities[0].asset"),
    (("attacker", "target"), ["sys"], "attacker.target"),
    (("attacker", "start"), {"task": ["draft"]}, "attacker.start"),
]


def with_field(path, value):
    """MINIMAL with an attacker, a defender and one edge, and the field at
    ``path`` set to ``value``."""
    doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
    doc["attacker"], doc["defender"] = dict(ATTACKER), {}
    doc["infrastructure"]["edges"] = [{"from": "sys", "to": "ws-1"}]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def one_error_line(capsys, argv):
    """The stderr lines of ``main(argv)``, which must exit 1."""
    assert main(argv) == 1
    return capsys.readouterr().err.splitlines()


BAD_DISCOVER_OPTIONS = [
    ("--bin-width", "0", "error: bin_width: must be finite and >= 1e-06, got 0.0"),
    ("--bin-width", "nan", "error: bin_width: must be finite and >= 1e-06, got nan"),
    ("--episode-gap", "inf", "error: episode_gap: must be finite and >= 0, got inf"),
    ("--max-lag", "-1", "error: max_lag: must be >= 0, got -1"),
    ("--min-activity", "-5", "error: min_activity: must be >= 0, got -5"),
    ("--min-support", "-1", "error: min_support: must be >= 0, got -1"),
    ("--ncc-threshold", "nan", "error: threshold: must lie in [-1, 1], got nan"),
    ("--ncc-threshold", "1.5", "error: threshold: must lie in [-1, 1], got 1.5"),
]


class TestInputErrors:
    @settings(max_examples=150, deadline=None)
    @given(
        optional=st.sampled_from(OPTIONAL_FIELDS),
        value=st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
            st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        ),
    )
    def test_any_value_in_an_optional_field_loads_or_names_it(self, optional, value):
        path, field = optional
        try:
            scenario_from_dict(with_field(path, value))
        except ValidationError as exc:
            assert exc.field == field

    @pytest.mark.parametrize("path", [p for p, _ in SPEC_DEFAULTS],
                             ids=[f for _, f in SPEC_DEFAULTS])
    def test_null_optional_field_reads_as_default(self, path):
        null, absent = with_field(path, None), with_field(path, None)
        del functools.reduce(operator.getitem, path[:-1], absent)[path[-1]]
        assert scenario_to_dict(scenario_from_dict(null)) == scenario_to_dict(
            scenario_from_dict(absent)
        )

    @pytest.mark.parametrize("path,field", REQUIRED_FIELDS, ids=[f for _, f in REQUIRED_FIELDS])
    def test_null_required_field_is_missing(self, path, field):
        null, absent = with_field(path, None), with_field(path, None)
        del functools.reduce(operator.getitem, path[:-1], absent)[path[-1]]
        for doc in (null, absent):
            with pytest.raises(ValidationError) as err:
                scenario_from_dict(doc)
            assert str(err.value) == f"{field}: missing required field"

    @pytest.mark.parametrize("path,value,field", BAD_KEYS, ids=[f for _, _, f in BAD_KEYS])
    def test_key_that_is_not_a_scalar_names_its_field(self, path, value, field):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(with_field(path, value))
        assert err.value.field == field
        assert err.value.reason.startswith("must be a scalar, got ")

    @pytest.mark.parametrize("word", ["on", "yes", "true", "off", "no", "False"])
    def test_boolean_id_is_refused_with_a_hint_to_quote_it(self, word):
        # YAML 1.1 reads all of these as a boolean; the id the document wrote
        # is lost, so `on` and `yes` would collide as 'True'.
        doc = yaml.safe_load(f"infrastructure: {{assets: [{{id: a}}, {{id: {word}}}]}}")
        with pytest.raises(ValidationError) as err:
            scenario_mod.infrastructure_of(doc)
        assert err.value.field == "infrastructure.assets[1].id"
        assert err.value.reason.endswith("; quote it")
        quoted = yaml.safe_load(f"infrastructure: {{assets: [{{id: a}}, {{id: '{word}'}}]}}")
        assert list(scenario_mod.infrastructure_of(quoted).assets) == ["a", word]

    def test_boolean_task_id_is_one_error_line(self, tmp_path, capsys):
        doc = with_field(("mission", "tasks", 0, "id"), True)
        argv = ["simulate", "--scenario", write_scenario(tmp_path, doc),
                "--out", str(tmp_path / "m.csv")]
        assert one_error_line(capsys, argv) == [
            "error: mission.tasks[0].id: YAML reads this id as True; quote it"
        ]

    def test_key_that_is_not_a_scalar_is_one_error_line(self, tmp_path, capsys):
        doc = with_field(("mission", "tasks", 0, "id"), [1, 2])
        argv = ["simulate", "--scenario", write_scenario(tmp_path, doc),
                "--out", str(tmp_path / "m.csv")]
        assert one_error_line(capsys, argv) == [
            "error: mission.tasks[0].id: must be a scalar, got [1, 2]"
        ]

    def test_attack_start_task_must_exist(self, tmp_path, capsys):
        doc = yaml.safe_load(open(bundled_path("checkpoint.yaml")))
        doc["attacker"]["start"] = {"task": "drfat"}
        argv = ["simulate", "--scenario", write_scenario(tmp_path, doc),
                "--out", str(tmp_path / "m.csv")]
        assert one_error_line(capsys, argv) == ["error: attacker.start: unknown task 'drfat'"]

    @pytest.mark.parametrize("body,want", [
        ("0,1,2\n", "error: line 2: expected 8 fields, got 3"),
        ("0,x,0,0.0,0.0,0.0,0.0,0.0\n",
         "error: line 2: invalid literal for int() with base 10: 'x'"),
        ("0,1,0,0.0,0.0,0.0,0.0,0.0\n\n0,1,0,0.0,0.0,0.0,0.0,soon\n",
         "error: line 4: could not convert string to float: 'soon'"),
    ])
    def test_report_names_the_bad_line(self, tmp_path, capsys, body, want):
        from miakit.metrics import CSV_HEADER

        path = tmp_path / "m.csv"
        path.write_text(CSV_HEADER + "\n" + body)
        assert one_error_line(capsys, ["report", "--metrics", str(path)]) == [want]

    def test_report_names_a_bad_header(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n0,1\n")
        err = one_error_line(capsys, ["report", "--metrics", str(path)])
        assert len(err) == 1 and err[0].startswith("error: line 1: metrics CSV header must be")

    def test_negative_base_seed_rejected_at_load(self, tmp_path, capsys):
        doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
        doc["sim"]["base_seed"] = -4
        argv = ["simulate", "--scenario", write_scenario(tmp_path, doc),
                "--out", str(tmp_path / "m.csv")]
        assert one_error_line(capsys, argv) == ["error: sim.base_seed: must be >= 0"]

    @pytest.mark.parametrize("argv,want", [
        (["simulate", "--scenario", bundled_path("checkpoint.yaml"), "--seed", "-1"],
         "error: seed: must be >= 0"),
        (["simulate", "--scenario", bundled_path("checkpoint.yaml"), "--replications", "0"],
         "error: replications: must be >= 1"),
        (["gen-flows", "--topology", bundled_path("cascade_clean.yaml"), "--seed", "-1"],
         "error: seed: must be >= 0"),
        (["gen-flows", "--topology", bundled_path("cascade_clean.yaml"), "--duration", "-5"],
         "error: duration_s: must be finite and > 0, got -5.0"),
    ])
    def test_bad_count_or_seed_option_is_one_error_line(self, tmp_path, capsys, argv, want):
        out = tmp_path / "out.csv"
        assert one_error_line(capsys, argv + ["--out", str(out)]) == [want]
        assert not out.exists()

    @pytest.mark.parametrize("option,value,want", BAD_DISCOVER_OPTIONS)
    def test_bad_discover_option_is_one_error_line(self, tmp_path, capsys, option, value, want):
        flows_path = str(tmp_path / "flows.csv")
        assert main(["gen-flows", "--topology", bundled_path("cascade_clean.yaml"),
                     "--out", flows_path]) == 0
        capsys.readouterr()
        argv = ["discover", "--flows", flows_path, option, value, "--out", str(tmp_path / "d")]
        assert one_error_line(capsys, argv) == [want]

    @pytest.mark.parametrize("capture", ["header-only", "below-min-activity"])
    @pytest.mark.parametrize("option,value,want", BAD_DISCOVER_OPTIONS + [
        ("--bin-width", "-1", "error: bin_width: must be finite and >= 1e-06, got -1.0"),
    ])
    def test_bad_discover_option_rejected_whatever_the_capture(
        self, tmp_path, capsys, capture, option, value, want
    ):
        rows = {"header-only": "", "below-min-activity": "1,c,51514,s,443,tcp,10,1\n"
                                                         "2,c,51515,s,443,tcp,10,1\n"}
        path = tmp_path / "flows.csv"
        path.write_text(FLOW_HEADER + "\n" + rows[capture])
        out = tmp_path / "d"
        argv = ["discover", "--flows", str(path), option, value, "--out", str(out)]
        assert one_error_line(capsys, argv) == [want]
        assert not out.exists()

    @pytest.mark.parametrize("strict", [True, False])
    def test_timestamp_outside_int64(self, tmp_path, capsys, strict):
        path = tmp_path / "flows.csv"
        path.write_text(FLOW_HEADER + "\n1,c,51514,s,443,tcp,10,1\n"
                        f"{10**30},c,51514,s,443,tcp,10,1\n")
        out = tmp_path / "d.yaml"
        argv = ["discover", "--flows", str(path), "--out", str(out)]
        if strict:
            assert one_error_line(capsys, argv + ["--strict"]) == [
                f"error: line 3: ts_us {10**30} out of range [0, {2**63 - 1}]"
            ]
        else:
            assert main(argv) == 0
            params = yaml.safe_load(out.read_text())["parameters"]
            assert (params["records"], params["malformed_skipped"]) == (1, 1)

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("strict", [True, False])
    def test_field_past_the_csv_size_limit(self, tmp_path, capsys, strict, quoted):
        # A quote elsewhere in the file sends it through csv.reader whole.
        client = '"c"' if quoted else "c"
        path = tmp_path / "big.csv"
        path.write_text(FLOW_HEADER + "\n1,c,51514,s,443,tcp,10,1\n"
                        f"2,{'h' * 131_073},51514,s,443,tcp,10,1\n"
                        f"3,{client},51515,s,443,tcp,10,1\n")
        out = tmp_path / "o.yaml"
        argv = ["discover", "--flows", str(path), "--out", str(out)]
        if strict:
            assert one_error_line(capsys, argv + ["--strict"]) == [
                "error: line 3: field larger than field limit (131072)"
            ]
        else:
            assert main(argv) == 0
            params = yaml.safe_load(out.read_text())["parameters"]
            assert (params["records"], params["malformed_skipped"]) == (2, 1)

    # Each width makes numpy refuse the series differently: too large for the
    # address space (MemoryError), over its size limit (ValueError), past
    # int64 (OverflowError).  The default 1 s width needs 67 TiB, which a host
    # that overcommits memory without limit may grant.
    @pytest.mark.parametrize("last_ts,bin_width,n_bins", [
        (2**63 - 1, "0.001", 2**63 // 1000 + 1),
        (2**62, "0.000001", 2**62 + 1),
        (2**63 - 1, "0.000001", 2**63),
    ])
    def test_window_too_long_to_bin_is_one_error_line(
        self, tmp_path, capsys, last_ts, bin_width, n_bins
    ):
        path = tmp_path / "huge.csv"
        path.write_text(FLOW_HEADER + "\n0,c,40000,b,80,tcp,100,1\n"
                        f"{last_ts},b,40001,s,443,tcp,100,1\n")
        out = tmp_path / "d.yaml"
        argv = ["discover", "--flows", str(path), "--min-activity", "1",
                "--bin-width", bin_width, "--out", str(out)]
        assert one_error_line(capsys, argv) == [
            f"error: bin_width: window [0, {last_ts + 1}) needs {n_bins} bins"
            f" of {float(bin_width)} s, too many to hold"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "discover"])
    def test_text_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe\n")
        argv = (["report", "--metrics", str(path)] if command == "report"
                else ["discover", "--flows", str(path), "--out", str(tmp_path / "d")])
        assert one_error_line(capsys, argv) == [f"error: {path}: not UTF-8 text"]

    def test_a_bug_in_miakit_is_a_traceback_not_an_error_line(self, tmp_path, monkeypatch):
        def broken(path):
            raise ValueError("not an input error")

        monkeypatch.setattr(cli_mod, "load_scenario", broken)
        with pytest.raises(ValueError, match="not an input error"):
            main(["simulate", "--scenario", bundled_path("checkpoint.yaml"),
                  "--out", str(tmp_path / "m.csv")])

    def test_every_input_error_is_a_miakit_error(self):
        from miakit import flows, infrastructure, kernel, metrics, threat
        from miakit.fields import MiakitError

        for cls in (ValidationError, infrastructure.GraphError, flows.MalformedLine,
                    flows.EmptyWindow, metrics.EmptyInput, metrics.BaselineZero,
                    kernel.InvalidDistribution, threat.UnknownTarget, threat.NoEndUserNodes):
            assert issubclass(cls, MiakitError)
        for cls in (infrastructure.DuplicateId, infrastructure.DanglingReference,
                    infrastructure.SelfLoop):
            assert issubclass(cls, ValidationError)
