"""Sweep every tree on n vertices and stare at the hyperdeterminants.

Two patterns to look for: all trees of a given size sharing one value
(they do at every (n, k) tried so far), and the sign alternating as
(-1)^(n-1) whenever the value is nonzero.
"""

from steiner_spectra import graham_pollak_check, sweep_trees

for n, k in [(4, 2), (5, 2), (4, 3), (3, 4), (4, 4)]:
    report = sweep_trees(n, k, det=True, mode="unlabeled")
    dets = sorted({v["det"] for v in report.classes.values()})
    print(f"n={n} k={k}: {len(report.classes)} tree classes, dets {dets}")
    for name, verdict in sorted(report.verdicts.items()):
        print(f"  {name}: {verdict}")

# k = 2 is Graham-Pollak: the determinant only sees the vertex count
print()
gp = graham_pollak_check(6)
for row in gp["per_n"]:
    print(
        f"n={row['n']}: {row['trees']} labeled trees, "
        f"det always {row['expected']}: {'ok' if row['pass'] else 'FAIL'}"
    )
