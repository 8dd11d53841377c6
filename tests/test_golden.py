"""Golden replay: event traces, metrics and item records of seeded
replications are pinned by SHA-256 digest.

Every bundled mission scenario, plus two documents that reach the paths the
bundled ones leave idle (an aware workforce reworking on the spot, per-item
deadlines, several roles with more than one person), runs attack and
attack-free replications 0-3 with ``record_trace=True``.  Any change to the
mission runtime, the event loop or the random streams that shifts a single
event, draw or float shows up here.

The runs of one replication share its arrival and duration draws, which the
first of them makes (``MissionIndex.draws``), so the replications are also
replayed in orders where the attack-free run of k, or the attack run of k,
reads what the other drew; every order gives the same digests.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miakit.kernel import StreamFactory, trace_lines
from miakit.scenario import bundled_path, read_yaml, scenario_from_dict

REPS = range(4)
SEED = 11


def _checkpoint_aware() -> dict:
    """checkpoint.yaml with the attack before the noon check and a defender,
    so taint is found both by checkpoints and by the aware workforce."""
    doc = read_yaml(bundled_path("checkpoint.yaml"))
    doc["attacker"]["start"] = {"fixed": "8h"}
    doc["defender"] = {
        "detect_delay": {"exponential": "2h"},
        "forensics_duration": {"fixed": 1800},
        "per_host_discovery_prob": 0.8,
        "remediation_per_host": {"fixed": 900},
    }
    return doc


def _workweek() -> dict:
    """Four roles, six tasks with every distribution kind, checkpoints, a
    per-item deadline, and an integrity attack with a defender."""
    assets = [
        {"id": "ws-1", "kind": "end_user_node", "subnet": "office"},
        {"id": "ws-2", "kind": "end_user_node", "subnet": "office"},
        {"id": "plansys", "kind": "application", "subnet": "office"},
        {"id": "plandb", "kind": "application", "subnet": "dc"},
        {"id": "filesrv", "kind": "service", "subnet": "dc"},
    ]
    edges = [{"from": "plansys", "to": "plandb"}]
    tasks = [
        {"id": "intake", "role": "clerk", "duration": {"triangular": [90, 120, 150]},
         "rework": {"fixed": 30}, "requires": ["filesrv"]},
        {"id": "triage", "role": "analyst", "duration": {"uniform": [375, 645]},
         "rework": {"fixed": 60}, "after": ["intake"]},
        {"id": "draft", "role": "planner", "duration": {"triangular": [450, 450, 750]},
         "rework": {"uniform": [120, 240]}, "requires": ["plansys"], "after": ["triage"]},
        {"id": "review", "role": "reviewer", "duration": {"uniform": [420, 600]},
         "rework": {"fixed": 90}, "requires": ["plandb"], "after": ["draft"]},
        {"id": "approve", "role": "planner", "duration": {"exponential": 165},
         "rework": {"triangular": [30, 60, 60]}, "requires": ["plansys"],
         "after": ["review"]},
        {"id": "publish", "role": "clerk", "duration": {"fixed": 120},
         "rework": {"fixed": 30}, "requires": ["filesrv"], "after": ["approve"]},
    ]
    return {
        "infrastructure": {
            "assets": assets,
            "edges": edges,
            "vulnerabilities": [
                {"asset": "plansys", "exploit": "exp-1"},
                {"asset": "ws-2", "exploit": "exp-1"},
            ],
        },
        "mission": {
            "checkpoints": ["10h", "16h"],
            "arrivals": {"exponential": 300},
            "personnel": {"clerk": 1, "analyst": 2, "planner": 3, "reviewer": 2},
            "deadline_per_item": "5h",
            "tasks": tasks,
        },
        "attacker": {
            "target": "plansys",
            "effect": "integrity",
            "start": {"random": "1d"},
            "capabilities": ["exp-1"],
            "spearphish_success_prob": 0.5,
            "spearphish_interval": {"exponential": 600},
            "scan_interval": {"fixed": 120},
        },
        "defender": {
            "detect_delay": {"exponential": "3h"},
            "forensics_duration": {"triangular": [1800, 3600, 5400]},
            "per_host_discovery_prob": 0.7,
        },
        "sim": {"base_seed": SEED, "horizon": "2d"},
    }


def _bundled(name: str):
    return lambda: read_yaml(bundled_path(name))


DOCUMENTS = {
    "baseline": _bundled("baseline.yaml"),
    "checkpoint": _bundled("checkpoint.yaml"),
    "outage_sweep": _bundled("outage_sweep.yaml"),
    "slack": _bundled("slack.yaml"),
    "timing": _bundled("timing.yaml"),
    "checkpoint_aware": _checkpoint_aware,
    "workweek": _workweek,
}


def _result_text(result) -> str:
    """Every field of a MissionResult, in a hash-seed-independent form."""
    lines = []
    for item in result.items:
        work = ";".join(
            f"{tid}:{w.sampled!r},{w.rework!r},{w.processed!r},{w.remaining!r}"
            for tid, w in item.work.items()
        )
        lines.append(
            f"{item.id} {item.created_at!r} {item.current_task} {item.tainted} "
            f"{sorted(item.taint_sources)} {item.completed_at!r} {item.outcome} {work}"
        )
    lines.append(repr(list(result.task_utilization.items())))
    lines.append(repr(list(result.blocked_time.items())))
    lines.append(repr(result.awareness_time))
    lines.append(repr(result.checkpoint_log))
    return "\n".join(lines)


def _replay(scenario, k: int) -> tuple[str, str, str]:
    """The trace, metrics and mission result of replication ``k``, as text."""
    m, result, _, trace = scenario.run_detailed(k, SEED, record_trace=True)
    return trace_lines(trace), repr(m), _result_text(result)


# The (variant, replication) calls of a replay: all attack runs then all
# attack-free ones, each run of k after the other of k, or the attack-free
# run of k first.
ORDERS = {
    "by_variant": [(label, k) for label in ("attack", "baseline") for k in REPS],
    "interleaved": [(label, k) for k in REPS for label in ("attack", "baseline")],
    "reversed": [(label, k) for k in REPS for label in ("baseline", "attack")],
}


def _variants(doc: dict) -> dict:
    attack = scenario_from_dict(copy.deepcopy(doc))
    return {"attack": attack, "baseline": attack.without_attack()}


def replay_digests(doc: dict, order: str = "by_variant") -> dict[str, str]:
    """SHA-256 of the traces, metrics and mission results of attack and
    attack-free replications 0-3 of ``doc`` with ``record_trace=True``, run
    in the ``order`` of :data:`ORDERS` on one loaded scenario."""
    variants = _variants(doc)
    runs: dict = {label: {} for label in variants}
    for label, k in ORDERS[order]:
        runs[label][k] = _replay(variants[label], k)
    out = {}
    for label, by_k in runs.items():
        traces, metrics, results = zip(*(by_k[k] for k in REPS))
        for kind, parts in (("trace", traces), ("metrics", metrics), ("items", results)):
            text = "\n--\n".join(parts)
            out[f"{label}.{kind}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


# Taken from the event loop and mission runtime before they were indexed.
GOLDEN = {
    "baseline": {
        "attack.trace": "d86d27c89197a4a970f00fb7ff7d6cf9da32b846c03d00735e463f72248bcdfd",
        "attack.metrics": "e081ff5e36d1c432a686cfacff2be59c1fd964c26cb458f33e3972c6217787a8",
        "attack.items": "40d6458861ba1137b8da0dcf4580e6a011c5d34e7b8cf777b2550baa44e9b6dd",
        "baseline.trace": "d86d27c89197a4a970f00fb7ff7d6cf9da32b846c03d00735e463f72248bcdfd",
        "baseline.metrics": "e081ff5e36d1c432a686cfacff2be59c1fd964c26cb458f33e3972c6217787a8",
        "baseline.items": "40d6458861ba1137b8da0dcf4580e6a011c5d34e7b8cf777b2550baa44e9b6dd",
    },
    "checkpoint": {
        "attack.trace": "4ea89a4ddf18093f79829ceeb9d80aff1f30e723c273eec66b25e3e3a827c0fa",
        "attack.metrics": "e4f8a655946524f5c7af292b50d52e9b7a6507d26b9c4b9da08a84b8d427a3ab",
        "attack.items": "2368ebef32154da7c243e1046b1833d60bdea3cf70275a22e0c16931b41bfeb0",
        "baseline.trace": "92170dfcaf5edfcd592dc280e09a7f358e04201da0a9d89c8ebafa6a9dc72b7a",
        "baseline.metrics": "8da9019dcdb6844c2b9c5094e930381504ad37b8dbc6306998b64600694d8362",
        "baseline.items": "605e0442f319a56acde00848899e0755b35073682aa500a25adccaedb944bab4",
    },
    "checkpoint_aware": {
        "attack.trace": "e2cb7ff90e1e11148404a5e23b83a0a33d71f48d60e765dbf399c29889b17097",
        "attack.metrics": "b7698606bf402c1c1dbb48cf8d1b7e784705f49b7e5faee34c2bf060d7836b82",
        "attack.items": "bf4c856f1ad0d454307a99787b4f79058cb3be85ba46a9e1d4529c98e4683a55",
        "baseline.trace": "92170dfcaf5edfcd592dc280e09a7f358e04201da0a9d89c8ebafa6a9dc72b7a",
        "baseline.metrics": "8da9019dcdb6844c2b9c5094e930381504ad37b8dbc6306998b64600694d8362",
        "baseline.items": "605e0442f319a56acde00848899e0755b35073682aa500a25adccaedb944bab4",
    },
    "outage_sweep": {
        "attack.trace": "f92f5b86a696bd1e1e64d87858dca89be6a99645cf7d59fb9ab1217e8b19eeab",
        "attack.metrics": "2dce14ccc16d8dceca9b8c17b1aece3b374b600d1b6da439b3676c719938d955",
        "attack.items": "9ff92fbca9abe3d22bc1696263243fa64e8ff9e48ff08c1603782579af78ab94",
        "baseline.trace": "4c8a0f857038bd454489f57765d40e815893dc0785f600f2512ca547365a1ae8",
        "baseline.metrics": "5f0636cde42e6fa6a8bbcdf527f1cb25ff5c242692a9805d9470e620203c0745",
        "baseline.items": "b160d5a9d547848976e32c60d296b68dd99bd198054417cfc95f161c528447bd",
    },
    "slack": {
        "attack.trace": "78bcc8391b258acb699a7352f27de1aa4e1ea4c584b2edf3a0152d556867bdf7",
        "attack.metrics": "e7cc14ad44086471a849a7e8678015d8af29198259fd0efdd3a24b2ea13436b4",
        "attack.items": "293201eb37f382917d15b43a1c0b35d4cefd3ce9e13b251b182edd1733a5c9bf",
        "baseline.trace": "a6ef36753e35a8a3f2ccd0e78b1f92839e810711fb57454e2810657c4cdc929c",
        "baseline.metrics": "e4ec0124f2a6e4838bdc6361fb9216a793aff6020d0091e38a06acb65b7dde67",
        "baseline.items": "b8f655d255a7312174a480b3da736c7c2e7c1e308d5fcf919248d51b1bb79d36",
    },
    "timing": {
        "attack.trace": "341c880a2847e52bd1707d1c6ae95bc78959d8fd35350db4e753acc77b449c25",
        "attack.metrics": "968142308bb934209fed0463cec1a16b6f8c531f2e0e1e9e9de85b44995dfcbb",
        "attack.items": "d9a2beeb302f97d677d437278af73a1af10732e2c32ffa55017e6d844b4c580a",
        "baseline.trace": "1ebc4aedda893d58ae5bb39d189eae758fc8b178ca7b372f6cde223ba6bf07d7",
        "baseline.metrics": "024829728bd17151170462b2a11dc6a0f6c9f9704605d924e5cef8f34b3a1a23",
        "baseline.items": "7a664ff8d6e92d54de1125c729c8aec0bfc4cfcbd7feb7511a7b4f3313d737f3",
    },
    "workweek": {
        "attack.trace": "8978fa563e2f02437838e2cd755738499bdc7f25dadbfdc5d7e93b5d3b24330f",
        "attack.metrics": "6aa1461ebbdee6e538866fed5a6e26cd4a32e3c3d9be781772b00f8dca4ef7f8",
        "attack.items": "61ec9c62e66b7ef0821e2ceb5dc4ce19dde504f60775e773dac6bae58dcd63c9",
        "baseline.trace": "028b77d61a360cf6c3bb2aa47a5123e33786aa618c5233361b83eb694026dab9",
        "baseline.metrics": "9544ce6108616a1bc3a98018cdb89e18298c8b5b63b8b754638a8862adeb556d",
        "baseline.items": "5e7942955488d38aa97d8a6dadde7eab68f710ebeb3629be91996598add44202",
    },
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_replay_matches_golden_digests(name):
    assert replay_digests(DOCUMENTS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("order", ["interleaved", "reversed"])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_replay_in_other_orders_matches_golden_digests(name, order):
    assert replay_digests(DOCUMENTS[name](), order) == GOLDEN[name]


def test_attack_run_after_its_baseline_builds_streams_only_for_drawn_reworks(monkeypatch):
    """In the reversed order the attack run reads the durations its
    attack-free run drew; its items get a stream only for a rework that is
    not fixed (workweek's draft and approve tasks)."""
    variants = _variants(_workweek())
    built = []
    real = StreamFactory.item_stream

    def item_stream(self, item_id):
        built.append(item_id)
        return real(self, item_id)

    monkeypatch.setattr(StreamFactory, "item_stream", item_stream)
    _, result, _, _ = variants["baseline"].run_detailed(0, SEED)
    assert len(built) == len(result.items)
    built.clear()
    _, result, _, _ = variants["attack"].run_detailed(0, SEED)
    reworked = {item.id for item in result.items if item.rework[2] or item.rework[4]}
    assert reworked
    assert set(built) == reworked
    assert len(built) == len(reworked)


def _small(name: str) -> dict:
    """A golden document cut to a shorter horizon, for the property below."""
    doc = DOCUMENTS[name]()
    doc["sim"]["horizon"] = "16h"
    return doc


@functools.lru_cache(maxsize=None)
def _fresh(name: str, label: str, k: int) -> tuple[str, str, str]:
    """Replication ``k`` of the ``label`` variant on a freshly loaded scenario."""
    return _replay(_variants(_small(name))[label], k)


CALLS = st.lists(
    st.tuples(st.sampled_from(["attack", "baseline"]), st.integers(0, 2)), min_size=1, max_size=6
)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["checkpoint_aware", "workweek"]), calls=CALLS)
def test_any_call_order_matches_fresh_runs(name, calls):
    variants = _variants(_small(name))
    for label, k in calls:
        assert _replay(variants[label], k) == _fresh(name, label, k)


def test_two_threads_sharing_a_scenario_match_fresh_runs():
    """Two threads run the same replications of one loaded scenario in
    opposite variant orders, so they miss on, replace and read the one
    cached entry in every interleaving the switch interval allows."""
    name = "workweek"
    variants = _variants(_small(name))
    orders = [ORDERS["interleaved"][:6], ORDERS["reversed"][:6]]

    def replay(order):
        return [(label, k, _replay(variants[label], k)) for label, k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(replay, order) for order in orders]
            done = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for runs in done:
        assert len(runs) == 6
        for label, k, got in runs:
            assert got == _fresh(name, label, k)
