"""The repository's benchmark: workloads, input cache and layer spans.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
