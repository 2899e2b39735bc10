"""Support code for the repository benchmark (``perfbench/run.py``).

``workloads`` runs the workloads over the public ``repro`` API,
``checks`` holds the output digests, ``layers`` times the library's
layers in the traced run, and ``measure`` turns passes into metrics.
"""
