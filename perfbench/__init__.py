"""Repository benchmark: workloads, traced wrappers and the runner."""
