"""Delivery-property check of one run, computed by the benchmark itself from
the replicas' delivery sequences (never from the coordinator's verdict).

Properties of atomic multicast it checks:
  (a) agreement   replicas of one group have identical sequences;
  (b) order       ids delivered by two groups appear in the same relative
                  order in both;
  (c) integrity   no id is delivered twice by one replica;
  (d) genuineness with `addressed` (the simulator knows every multicast's
                  destinations): each id is delivered by exactly the groups
                  it was addressed to. Without it (KV over TCP): the share
                  of ids delivered by two groups is above 0 and at most
                  the configured transfer share.

Run this file to execute the self-test: hand-made sequences with a swapped
cross-group pair, a duplicate and a diverging replica must each fail.
"""

import sys


def read_ids(path):
    with open(path) as f:
        return f.read().split()


def check(groups, max_cross_share=None, addressed=None):
    """groups: {group: [sequence of each replica]}. Returns (ok, reason,
    cross_share)."""
    reference = {}
    for g, replicas in sorted(groups.items()):
        first = replicas[0]
        for r, seq in enumerate(replicas[1:], start=1):
            if seq != first:
                return False, f"(a) group {g}: replica {r} diverges", None
        if len(set(first)) != len(first):
            return False, f"(c) group {g}: an id is delivered twice", None
        reference[g] = first

    where = {}
    for g, seq in reference.items():
        for i, mid in enumerate(seq):
            where.setdefault(mid, []).append((g, i))
    pairs = {}
    for mid, places in where.items():
        for x in range(len(places)):
            for y in range(x + 1, len(places)):
                (g, i), (h, j) = places[x], places[y]
                pairs.setdefault((g, h), []).append((i, j))
    for (g, h), positions in pairs.items():
        positions.sort()
        for (_, j0), (_, j1) in zip(positions, positions[1:]):
            if j1 <= j0:
                return False, (f"(b) groups {g} and {h} deliver two common "
                               f"ids in opposite orders"), None

    if not where:
        return False, "nothing was delivered", None
    cross = sum(1 for places in where.values() if len(places) > 1)
    share = cross / len(where)
    if addressed is not None:
        for mid, places in where.items():
            if {g for g, _ in places} != addressed.get(mid):
                return False, f"(d) id {mid} delivered by groups not " \
                              f"addressed", share
        if len(where) != len(addressed):
            return False, "(d) an addressed id was never delivered", share
    elif not 0 < share <= max_cross_share:
        return False, (f"(d) share of ids delivered by two groups is "
                       f"{share:.4f}, outside (0, {max_cross_share}]"), share
    return True, "", share


def self_test():
    """Returns a list of failures of the check itself (empty when sound)."""
    good = {0: [["a", "x", "b", "y"]] * 3, 1: [["c", "x", "y", "d"]] * 3}
    cases = [
        ("valid run", good, True),
        ("swapped cross-group pair",
         {0: good[0], 1: [["c", "y", "x", "d"]] * 3}, False),
        ("duplicate", {0: [["a", "x", "b", "y", "a"]] * 3, 1: good[1]},
         False),
        ("diverging replica",
         {0: good[0][:2] + [["a", "x", "y", "b"]], 1: good[1]}, False),
    ]
    failures = []
    for name, groups, expect in cases:
        ok, why, _ = check(groups, max_cross_share=0.5)
        if ok != expect:
            failures.append(f"{name}: check returned {ok} ({why})")
    # The simulator's genuineness form: an id delivered by a group it was
    # not addressed to must fail.
    addressed = {"a": {0}, "b": {0}, "c": {1}, "d": {1}, "x": {0, 1},
                 "y": {0}}
    ok, _, _ = check(good, addressed=addressed)
    if ok:
        failures.append("unaddressed group delivery: check returned True")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print(f"FAIL {p}")
    print("delivery check self-test:", "FAILED" if problems else "OK")
    sys.exit(1 if problems else 0)
