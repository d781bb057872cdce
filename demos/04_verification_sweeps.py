"""Run the sweep checks over every small diagram and print the reports.

The same sweeps back the acceptance tests; with the default bound of four
chords the whole batch takes well under a minute.

Run: python demos/04_verification_sweeps.py
"""

from vknot import SweepConfig, run_checks

config = SweepConfig(max_chords=4, samples=300, seed=1)
for report in run_checks(config):
    print(report.to_text())
    print()
