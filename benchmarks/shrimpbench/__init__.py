"""shrimpbench: one same-host benchmark for the SHRIMP simulator.

Four fixed workloads (pingpong, storm, dc_strided, dsm_kv), each run in
a fresh child process; host wall, setup and memory per run, checked by
an oracle, with a separately profiled per-layer split.  See README.md
in this directory; ``python -m benchmarks.shrimpbench --help`` lists the
commands.
"""
