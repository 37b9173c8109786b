"""metasched benchmark: workloads, checks, tracing and the instance generator."""
