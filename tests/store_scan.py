"""Brute-force store scans: the reference the per-EID index is checked
against (scenarios, presence windows, confident co-travelers)."""


def scan_scenarios(store, eid):
    """Every key whose E side holds ``eid`` (vague too), in key order."""
    return tuple(sorted(k for k in store.keys if eid in store.e_scenario(k)))


def scan_presence(keys):
    """Dwell runs ``(cell, first, last)`` from key-ordered ``keys``."""
    runs = []
    for key in keys:
        if runs and runs[-1][0] == key.cell_id and runs[-1][2] == key.tick - 1:
            runs[-1][2] = key.tick
        else:
            runs.append([key.cell_id, key.tick, key.tick])
    return sorted((tuple(run) for run in runs), key=lambda r: (r[1], r[0]))


def scan_co_travelers(store, eid, min_shared):
    """Confident (inclusive) co-occurrence counts, most-shared first."""
    counts = {}
    for key in store.keys:
        inclusive = store.e_scenario(key).inclusive
        if eid in inclusive:
            for other in inclusive - {eid}:
                counts[other] = counts.get(other, 0) + 1
    return sorted(
        ((e, n) for e, n in counts.items() if n >= min_shared),
        key=lambda en: (-en[1], en[0]),
    )
