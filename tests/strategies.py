"""Hypothesis strategies shared by the test modules."""

from itertools import combinations

from hypothesis import strategies as st


@st.composite
def rotation_systems(draw):
    """A simple graph on up to 7 vertices with random cyclic orders,
    sometimes with one row damaged (a dropped, repeated, looped or
    out-of-range entry)."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows: list[list[int]] = [[] for _ in range(n)]
    for (a, b), k in zip(pairs, keep):
        if k:
            rows[a].append(b)
            rows[b].append(a)
    rows = [draw(st.permutations(row)) for row in rows]
    damage = draw(st.sampled_from(["none", "none", "drop", "repeat", "loop", "range"]))
    v = draw(st.integers(min_value=0, max_value=n - 1))
    if damage == "drop" and rows[v]:
        rows[v] = rows[v][1:]
    elif damage == "repeat" and rows[v]:
        rows[v] = rows[v] + rows[v][:1]
    elif damage == "loop":
        rows[v] = rows[v] + [v]
    elif damage == "range":
        rows[v] = rows[v] + [n]
    return rows
