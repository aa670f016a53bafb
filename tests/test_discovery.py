"""Service discovery + heartbeat liveness (riot's etcd/heartb analog).

Reference behaviors pinned here:
* TTL-lease register/renew/expire (net/grpc/etcd.go:36-67 registers with
  a 10s heartbeat / 15s TTL lease; an expired lease cannot be renewed).
* HeartBeat echoes the request message (net/grpc/grpc.go:84-87).
* The watcher restarts a target once consecutive failures EXCEED the
  limit, then resets the counter (net/heartb/heart.go:48-114, ``rpc > 3``
  then ``rpc = 0`` inside restart).
"""

import time

import pytest

from riot_ray.discovery import (
    FAIL_LIMIT,
    HeartbeatMonitor,
    ServiceRegistry,
    get_registry,
)
from riot_ray.types import RankOpts, SearchReq


def test_registry_lease_semantics():
    reg = ServiceRegistry()
    ep1 = reg.register("search", "a", {"slot": 0}, ttl_s=60)
    ep2 = reg.register("search", "b", {"slot": 1}, ttl_s=0.05)
    assert ep2 > ep1
    assert reg.lookup("search") == {"a": {"slot": 0}, "b": {"slot": 1}}
    assert reg.services() == ["search"]

    # lease expiry: b vanishes, and a dead lease cannot be renewed
    time.sleep(0.06)
    assert reg.lookup("search") == {"a": {"slot": 0}}
    assert reg.renew("search", "b") is False
    assert reg.renew("search", "a") is True

    # re-register after expiry bumps the epoch (replacement detectable)
    ep3 = reg.register("search", "b", {"slot": 1}, ttl_s=60)
    assert ep3 > ep2

    reg.unregister("search", "a")
    assert set(reg.lookup("search")) == {"b"}
    assert reg.ping(7) == 7  # HeartBeat echo


def test_registry_named_actor_shared(ray_session):
    import ray

    r1 = get_registry(name="riot-reg-test")
    ray.get(r1.register.remote("svc", "x", {"n": 1}, 60))
    # a second get_registry call resolves the SAME actor by name
    r2 = get_registry(name="riot-reg-test")
    assert ray.get(r2.lookup.remote("svc")) == {"x": {"n": 1}}
    ray.kill(r1)


def test_monitor_restart_after_fail_limit(ray_session):
    import ray

    echoes = {"ok": True}
    restarts = []

    def ping(msg):
        # wrong echo == the heart.go "r.Result != 1" failure branch
        return ray.put(msg if echoes["ok"] else -1)

    mon = HeartbeatMonitor(fail_limit=FAIL_LIMIT, timeout_s=2)
    mon.watch("t", ping=ping, restart=lambda: restarts.append(1))

    assert mon.tick() == {"t": 0}  # healthy: counter stays 0
    echoes["ok"] = False
    for expect in (1, 2, 3):
        assert mon.tick() == {"t": expect}
    assert restarts == []  # not yet: restart fires only when fails EXCEED 3
    assert mon.tick() == {"t": 0}  # 4th miss -> restart + counter reset
    assert restarts == [1]
    # counter restarts from zero: next restart needs 4 more misses
    for expect in (1, 2, 3):
        assert mon.tick() == {"t": expect}
    assert restarts == [1]
    mon.tick()
    assert restarts == [1, 1]
    assert mon.restart_counts() == {"t": 2}

    # a ping that RAISES (connection-refused analog) also counts
    def bad_ping(msg):
        raise ConnectionError("down")

    mon2 = HeartbeatMonitor(fail_limit=0, timeout_s=1)
    calls = []
    mon2.watch("u", ping=bad_ping, restart=lambda: calls.append(1))
    mon2.tick()
    assert calls == [1]


def test_replicated_searcher_heartbeat_restart(corpus_index, ray_session):
    """End-to-end: replicas registered, one hard-killed past Ray's restart
    budget, monitor detects the dead heartbeat and restarts it in place;
    serving results stay identical to LocalSearcher."""
    import ray

    from riot_ray.engine import LocalSearcher, ReplicatedSearcher

    idx = corpus_index["index_dir"]
    rs = ReplicatedSearcher(idx, replicas=2)
    reg = get_registry(name="riot-reg-e2e")
    # generous ping timeout: this asserts restart SEMANTICS, not latency —
    # under a loaded CI box a 5 s ray.get can spuriously miss and the
    # healthy-replica asserts below would flake
    mon = HeartbeatMonitor(fail_limit=1, timeout_s=60,
                           registry=reg, service="riot-search")
    names = rs.attach_heartbeats(mon, registry=reg, service="riot-search",
                                 ttl_s=60)
    assert names == ["replica-0", "replica-1"]
    assert mon.tick() == {"replica-0": 0, "replica-1": 0}
    live = ray.get(reg.lookup.remote("riot-search"))
    assert set(live) == {"replica-0", "replica-1"}
    assert live["replica-0"]["index_dir"] == idx

    # hard-kill replica 0 with no Ray auto-restart: only the monitor
    # can bring it back (the heart.go restart-command case)
    ray.kill(rs.actors[0], no_restart=True)
    # ray.kill is asynchronous: wait (bounded) until a call to the replica
    # fails, so both ticks below see the actor already dead
    deadline = time.monotonic() + 60
    while True:
        try:
            ray.get(rs.actors[0].ping.remote(0), timeout=5)
        except ray.exceptions.RayActorError:
            break
        except ray.exceptions.GetTimeoutError:
            pass
        assert time.monotonic() < deadline, "killed replica still answers"
        time.sleep(0.05)
    mon.tick()      # miss 1
    mon.tick()      # miss 2 -> exceeds fail_limit=1 -> restart_replica(0)
    assert mon.restart_counts()["replica-0"] == 1

    # the recreated replica serves; results identical to LocalSearcher
    want = LocalSearcher(idx).search(
        SearchReq(text="parse", rank_opts=RankOpts(max_outputs=5)))
    got = ray.get(rs.actors[0].search.remote(
        SearchReq(text="parse", rank_opts=RankOpts(max_outputs=5))))
    assert [h.doc_id for h in got.docs] == [h.doc_id for h in want.docs]
    # and the heartbeat is green again
    assert mon.tick()["replica-0"] == 0
    ray.kill(reg)
