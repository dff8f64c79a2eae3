"""End-to-end benchmark of the release service and the figure pipelines.

``python -m benchmarks.e2e`` runs it; ``BENCHMARK.json`` at the repository
root names its workloads and metrics, and ``README.md`` here explains them.
"""
