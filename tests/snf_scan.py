"""The scan-based Smith normal form, kept as a test oracle.

`fistab.exactlin.smith_normal_form` finds its pivots through a heap;
this module is the version it replaced, which rescans every entry for
each pivot.  It shares no code with the library, so a test that compares
the two checks the heap's bookkeeping (pushes, stale keys, re-pushes)
against a route that has none.
"""

import math

import numpy as np


def snf_scan_oracle(A) -> tuple[int, ...]:
    """Invariant factors of an integer matrix, nonzero ones only.

    Each pivot is found by scanning every entry for the smallest
    (|v|, Markowitz fill) key, so this costs O(rank * nnz); the
    divisibility chain runs over every factor, units included.
    """
    A = np.asarray(A)
    ri, ci = np.nonzero(A)
    mat: dict[tuple[int, int], int] = {
        (i, j): int(v) for i, j, v in
        zip(ri.tolist(), ci.tolist(), A[ri, ci].tolist())}
    rows: dict[int, set[int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j) in mat:
        rows.setdefault(i, set()).add(j)
        cols.setdefault(j, set()).add(i)

    def set_entry(i: int, j: int, v: int) -> None:
        if v:
            if (i, j) not in mat:
                rows.setdefault(i, set()).add(j)
                cols.setdefault(j, set()).add(i)
            mat[(i, j)] = v
        elif (i, j) in mat:
            del mat[(i, j)]
            rows[i].discard(j)
            cols[j].discard(i)

    def add_row(dst: int, src: int, f: int) -> None:
        if f == 0:
            return
        for j in list(rows.get(src, ())):
            set_entry(dst, j, mat.get((dst, j), 0) + f * mat[(src, j)])

    def add_col(dst: int, src: int, f: int) -> None:
        if f == 0:
            return
        for i in list(cols.get(src, ())):
            set_entry(i, dst, mat.get((i, dst), 0) + f * mat[(i, src)])

    diags: list[int] = []
    while mat:
        best = None
        best_key = None
        for (i, j), v in mat.items():
            fill = (len(rows[i]) - 1) * (len(cols[j]) - 1)
            key = (abs(v), fill)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
        pi, pj = best
        # make the pivot divide its whole row and column, then clear
        while True:
            pv = mat[(pi, pj)]
            moved = False
            for i in list(cols.get(pj, ())):
                if i == pi:
                    continue
                q = mat[(i, pj)] // pv
                add_row(i, pi, -q)
                if (i, pj) in mat:
                    # remainder smaller than pivot: swap roles
                    pi = i
                    moved = True
                    break
            if moved:
                continue
            pv = mat[(pi, pj)]
            for j in list(rows.get(pi, ())):
                if j == pj:
                    continue
                q = mat[(pi, j)] // pv
                add_col(j, pj, -q)
                if (pi, j) in mat:
                    pj = j
                    moved = True
                    break
            if not moved:
                break
        pv = mat[(pi, pj)]
        # pivot row/col now only contain the pivot itself, unless some
        # remainder reappeared; loop above guarantees clean state
        assert rows[pi] == {pj} and cols[pj] == {pi}
        diags.append(abs(pv))
        set_entry(pi, pj, 0)

    # enforce the divisibility chain among diagonal entries
    diags = [d for d in diags if d]
    changed = True
    while changed:
        changed = False
        for a in range(len(diags)):
            for b in range(a + 1, len(diags)):
                if diags[b] % diags[a]:
                    g = math.gcd(diags[a], diags[b])
                    lcm = diags[a] * diags[b] // g
                    diags[a], diags[b] = g, lcm
                    changed = True
    diags.sort()
    return tuple(diags)
