"""Benchmark of the permstats CLI; run `python3 perfbench/run.py --help`."""
