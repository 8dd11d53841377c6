"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and returns plain documents: a
scenario document (the YAML form ``miakit simulate`` reads) or a synthetic
traffic topology (the form ``miakit gen-flows`` reads).  The seed moves
details (parameter jitter of a few percent, which hosts are vulnerable,
which channels cascade, the replication base seed) but keeps every size and
rate fixed, so the cost of a run stays comparable from seed to seed.

This module imports nothing from miakit: the documents are the only thing
the program receives.
"""

from __future__ import annotations

import random

def _jitter(rng: random.Random, value: float, spread: float = 0.01) -> float:
    return round(value * rng.uniform(1.0 - spread, 1.0 + spread), 3)


# ---------------------------------------------------------------------------
# mission-week


def mission_week(seed: int) -> dict:
    """Three-day, six-task, four-role workflow at about 85% utilization per
    role, two daily checkpoints, a per-item deadline, a ten-asset
    infrastructure, and an integrity attack on the drafting system with a
    defender that finds hosts with probability 0.7."""
    rng = random.Random(seed)
    j = lambda v: _jitter(rng, v)  # noqa: E731
    office = ["ws-1", "ws-2", "ws-3"]
    assets = [{"id": w, "kind": "end_user_node", "subnet": "office"} for w in office]
    assets += [
        {"id": "gw", "kind": "device", "subnet": "office"},
        {"id": "plansys", "kind": "application", "subnet": "office"},
        {"id": "plandb", "kind": "application", "subnet": "dc"},
        {"id": "authsvc", "kind": "service", "subnet": "dc"},
        {"id": "filesrv", "kind": "service", "subnet": "dc"},
        {"id": "core-sw", "kind": "device", "subnet": "dc"},
        {"id": "uplink", "kind": "external_link"},
    ]
    edges = [{"from": w, "to": "gw"} for w in office] + [
        {"from": "plansys", "to": "plandb"},
        {"from": "plansys", "to": "authsvc"},
        {"from": "plandb", "to": "core-sw"},
        {"from": "filesrv", "to": "core-sw"},
        {"from": "authsvc", "to": "core-sw"},
        {"from": "gw", "to": "core-sw"},
        {"from": "core-sw", "to": "uplink"},
    ]
    vulnerable_ws = rng.choice(office)
    vulns = [
        {"asset": "plansys", "exploit": "exp-1"},
        {"asset": "plandb", "exploit": "exp-2"},
        {"asset": vulnerable_ws, "exploit": "exp-1"},
    ]
    tasks = [
        {"id": "intake", "role": "clerk", "duration": {"triangular": [j(90), j(120), j(150)]},
         "rework": {"fixed": 30}, "requires": ["filesrv"], "after": []},
        {"id": "triage", "role": "analyst", "duration": {"uniform": [j(375), j(645)]},
         "rework": {"fixed": 60}, "requires": [], "after": ["intake"]},
        {"id": "draft", "role": "planner", "duration": {"triangular": [j(450), j(600), j(750)]},
         "rework": {"uniform": [120, 240]}, "requires": ["plansys"], "after": ["triage"]},
        {"id": "review", "role": "reviewer", "duration": {"uniform": [j(420), j(600)]},
         "rework": {"fixed": 90}, "requires": ["plandb"], "after": ["draft"]},
        {"id": "approve", "role": "planner", "duration": {"exponential": j(165)},
         "rework": {"fixed": 60}, "requires": ["plansys"], "after": ["review"]},
        {"id": "publish", "role": "clerk", "duration": {"uniform": [j(105), j(165)]},
         "rework": {"fixed": 30}, "requires": ["filesrv"], "after": ["approve"]},
    ]
    return {
        "schema_version": 1,
        "infrastructure": {"assets": assets, "edges": edges, "vulnerabilities": vulns},
        "mission": {
            "day_length": "1d",
            "checkpoints": ["10h", "16h"],
            "arrivals": {"exponential": 300},
            "personnel": {"clerk": 1, "analyst": 2, "planner": 3, "reviewer": 2},
            "deadline_per_item": "6h",
            "tasks": tasks,
        },
        "attacker": {
            "target": "plansys",
            "effect": "integrity",
            "start": {"random": "2d"},
            "capabilities": ["exp-1"],
            "spearphish_success_prob": 0.5,
            "spearphish_interval": {"exponential": 600},
            "scan_interval": {"fixed": 120},
            "proficiency": 0.6,
            "agility": 1.0,
        },
        "defender": {
            "detect_delay": {"exponential": "3h"},
            "forensics_duration": {"triangular": [1800, 3600, 5400]},
            "per_host_discovery_prob": 0.7,
            "remediation_per_host": {"fixed": 1800},
        },
        "sim": {"replications": 1, "base_seed": rng.randrange(1 << 31), "horizon": "3d"},
    }


# ---------------------------------------------------------------------------
# enterprise-attack

ENTERPRISE_SUBNETS = 40
ENTERPRISE_WS_PER_SUBNET = 40
ENTERPRISE_RELAY_DEPTH = 10


def enterprise_attack(seed: int) -> dict:
    """About 2.1k assets over 40 office subnets plus a data-centre and an
    application subnet.  Services sit in layers with any-of groups (uplinks,
    DNS, database replicas) and one dependency cycle (auth <-> directory).
    Each office reaches the shared message queue through its file server and
    a private chain of relay services, so a low-proficiency attacker that
    scans every 30 s walks a long, forced path before it stops the queue;
    the defender finds each host with probability 0.5."""
    rng = random.Random(seed)
    assets: list[dict] = []
    edges: list[dict] = []
    vulns: list[dict] = []

    def asset(aid: str, kind: str, subnet: str | None) -> None:
        entry = {"id": aid, "kind": kind}
        if subnet is not None:
            entry["subnet"] = subnet
        assets.append(entry)

    def dep(a: str, b: str, group: str | None = None) -> None:
        entry = {"from": a, "to": b}
        if group is not None:
            entry["group"] = group
        edges.append(entry)

    # Core: redundant uplinks, a core router, shared services in "dc".
    for ext in ("ext-1", "ext-2"):
        asset(ext, "external_link", None)
    asset("core-rt", "device", "dc")
    dep("core-rt", "ext-1", "uplinks")
    dep("core-rt", "ext-2", "uplinks")
    for svc in ("dns-1", "dns-2", "auth-1", "dir-1", "mq-1", "db-1", "db-2", "db-3"):
        asset(svc, "service", "dc")
        dep(svc, "core-rt")
    dep("auth-1", "dir-1")
    dep("dir-1", "auth-1")  # the dependency cycle
    for dns in ("dns-1", "dns-2"):
        dep("auth-1", dns, "dns")
    # Application tier: every app needs the queue, auth and one db replica.
    apps = [f"app-{i}" for i in range(1, 7)]
    for app in apps:
        asset(app, "application", "apps")
        dep(app, "mq-1")
        dep(app, "auth-1")
        for db in ("db-1", "db-2", "db-3"):
            dep(app, db, "db")
    asset("portal", "application", "apps")
    for app in apps[:3]:
        dep("portal", app)
    asset("plansys", "application", "apps")
    dep("plansys", "portal")
    dep("plansys", apps[3])
    asset("reporting", "application", "apps")
    dep("reporting", apps[4])
    dep("reporting", apps[5])
    vulns.append({"asset": "mq-1", "exploit": "exp-b"})

    # Office subnets: a switch, a file server behind a chain of relays that
    # ends at the queue, and the workstations.  Relays have no subnet, so
    # their only neighbours are the chain links on either side.
    for s in range(ENTERPRISE_SUBNETS):
        sn = f"sn-{s:02d}"
        sw, fs = f"sw-{s:02d}", f"fs-{s:02d}"
        asset(sw, "device", sn)
        dep(sw, "core-rt")
        asset(fs, "service", sn)
        dep(fs, sw)
        dep(fs, "auth-1")
        for dns in ("dns-1", "dns-2"):
            dep(fs, dns, "dns")
        vulns.append({"asset": fs, "exploit": rng.choice(["exp-a", "exp-b"])})
        prev = fs
        for k in range(1, ENTERPRISE_RELAY_DEPTH + 1):
            relay = f"relay-{s:02d}-{k:02d}"
            asset(relay, "service", None)
            dep(prev, relay)
            vulns.append({"asset": relay, "exploit": rng.choice(["exp-a", "exp-b"])})
            prev = relay
        dep(prev, "mq-1")
        for w in range(ENTERPRISE_WS_PER_SUBNET):
            ws = f"ws-{s:02d}-{w:02d}"
            asset(ws, "end_user_node", sn)
            dep(ws, sw)
            if rng.random() < 0.05:
                # Vulnerable, but not to anything this attacker carries.
                vulns.append({"asset": ws, "exploit": "exp-c"})

    task_apps = ["plansys", "reporting", "portal"]
    tasks = [
        {"id": f"t{i}", "role": "ops", "duration": {"uniform": [600, 1200]},
         "rework": {"fixed": 120}, "requires": [app], "after": [f"t{i - 1}"] if i > 1 else []}
        for i, app in enumerate(task_apps, start=1)
    ]
    return {
        "schema_version": 1,
        "infrastructure": {"assets": assets, "edges": edges, "vulnerabilities": vulns},
        "mission": {
            "day_length": "1d",
            "checkpoints": [],
            "arrivals": {"exponential": 1800},
            "personnel": {"ops": 2},
            "tasks": tasks,
        },
        "attacker": {
            "target": "mq-1",
            "effect": {"availability": "stop"},
            "start": {"fixed": 0},
            "capabilities": ["exp-a", "exp-b"],
            "spearphish_success_prob": 0.8,
            "spearphish_interval": {"exponential": 300},
            "scan_interval": {"fixed": 30},
            "proficiency": 0.2,
            "agility": 1.0,
        },
        "defender": {
            "detect_delay": {"exponential": 1800},
            "forensics_duration": {"fixed": 1200},
            "per_host_discovery_prob": 0.5,
            "remediation_per_host": {"triangular": [300, 600, 1200]},
        },
        "sim": {"replications": 1, "base_seed": rng.randrange(1 << 31), "horizon": "6h"},
    }


def propagation_sets(asset_ids: list[str], leaf_ids: list[str], seed: int) -> list[list[str]]:
    """Compromised sets for static propagation queries, one per asset.

    Every asset anchors exactly one set, so the total work of a pass over
    the sets is the same for every seed; the seed orders the sets and adds
    zero to two partners drawn from ``leaf_ids`` (assets nothing depends on).
    """
    rng = random.Random(seed ^ 0x5EED)
    sets = [sorted({a, *rng.sample(leaf_ids, rng.randint(0, 2))}) for a in sorted(asset_ids)]
    rng.shuffle(sets)
    return sets


def scenario_propagation_sets(doc: dict, seed: int) -> list[list[str]]:
    infra = doc["infrastructure"]
    ids = [a["id"] for a in infra["assets"]]
    depended_on = {e["to"] for e in infra["edges"]}
    return propagation_sets(ids, [a for a in ids if a not in depended_on], seed)


# ---------------------------------------------------------------------------
# flow-discovery


def flow_topology(seed: int) -> dict:
    """Traffic topology for ``miakit.synth.gen_flows``: six pivot
    application servers with two back-end services each, noisy cascades
    (20% drop, +/-0.1 s jitter) from workstations through the pivots,
    independent background channels into the same pivots, three retry
    chains, and one gateway client that contacts every service."""
    rng = random.Random(seed)
    pivots = [f"app-{i}" for i in range(1, 7)]
    backends = [f"db-{i}:5432/tcp" for i in range(1, 7)] + [f"cache-{i}:6379/tcp" for i in range(1, 7)]
    rng.shuffle(backends)
    channels: list[dict] = []
    cascades: list[dict] = []
    ws = iter(f"ws-{i:02d}" for i in range(1, 100))
    for p, pivot in enumerate(pivots):
        svc = f"{pivot}:8080/tcp"
        for b in range(2):
            cascades.append({
                "upstream": {"client": next(ws), "service": svc, "rate_per_s": _jitter(rng, 0.4)},
                "downstream_service": backends[2 * p + b],
                "lag_s": float(rng.randint(1, 5)),
                "jitter_s": 0.1,
                "drop_prob": 0.2,
            })
        for _ in range(3):
            channels.append({"client": next(ws), "service": svc, "rate_per_s": _jitter(rng, 0.15)})
    services = [f"{p}:8080/tcp" for p in pivots] + [f"files-{i}:445/tcp" for i in range(1, 9)]
    for svc in services[len(pivots):]:
        channels.append({"client": next(ws), "service": svc, "rate_per_s": _jitter(rng, 0.15)})
    for svc in services:
        channels.append({"client": "gw-1", "service": svc, "rate_per_s": _jitter(rng, 0.12)})
    retries = [
        {"client": f"hmi-{i}", "primary": "comm-a:2404/tcp", "fallback": "comm-b:2404/tcp",
         "rate_per_s": _jitter(rng, 0.15), "gap_s": 0.5}
        for i in (11, 17, 22)
    ]
    return {
        "schema_version": 1,
        "duration_s": 300.0,
        "bin_width": 1.0,
        "channels": channels,
        "cascades": cascades,
        "retries": retries,
    }


SCENARIOS = {"mission-week": mission_week, "enterprise-attack": enterprise_attack}
