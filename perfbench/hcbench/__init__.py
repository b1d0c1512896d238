"""Seeded end-to-end and per-layer benchmark for the holecount CLI.

`workloads` builds the seeded input images, `truth` derives the expected
answers from those images with the benchmark's own scipy code, `check`
compares each CLI response with that truth, `tracer` times the package's
public functions from the outside, and `runner` drives the closed loop.
"""
