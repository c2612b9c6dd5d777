"""Known-bad corpus for the ``shared-view`` rule on the allocation row
memo's rows (parsed, never run)."""


def corrupt_rows(problem, vcs, rates):
    rows, hulls = _curve_rows(problem, vcs, rates, True)
    rows[0][0] = 0.0  # finding: writes into a memoized row
    row = rows[1]
    row *= 2.0  # finding: augmented assignment into a memoized row
    mine = rows[2].copy()
    mine[0] = 0.0  # clean: private copy
    return hulls, mine
