"""End-to-end figure benchmark (see ``README.md`` in this directory)."""
