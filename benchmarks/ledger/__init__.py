"""The perf ledger: the repo's benchmark (see README.md beside this file)."""
