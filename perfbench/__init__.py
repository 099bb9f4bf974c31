"""Layered end-to-end benchmark of the PROFIBUS timing analyses.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""
