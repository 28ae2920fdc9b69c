"""Outside-in benchmark for sepmatch: see README.md in this directory."""
