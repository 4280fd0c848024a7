# Which tree maximizes the Steiner spectral radius? Rank every tree
# class by NQZ radius and emit (degree sequence, radius) rows as CSV
# for external plotting. The path tops every ranking tried so far;
# "top_is_path" is a sweep's question-2 verdict, so an enclosure that
# overlaps the top's counts for the path, and only a strict non-path
# maximizer is reported.

import csv
import sys

from steiner_spectra import extremal_radius

writer = csv.writer(sys.stdout)
writer.writerow(["n", "k", "degree_sequence", "radius", "is_path"])
for n in range(3, 7):
    for k in (3, 4):
        report = extremal_radius(n, k)
        for entry in report["entries"]:
            writer.writerow(
                [
                    n,
                    k,
                    " ".join(str(d) for d in entry["degree_sequence"]),
                    f"{entry['radius']['value']:.9f}",
                    entry["is_path"],
                ]
            )
        if not report["top_is_path"]:
            print(f"non-path maximizer at n={n} k={k}!", file=sys.stderr)
