"""Slow, obviously correct routes that the tests compare the production
code of `hallalg` against: brute-force enumerations, alternative models of
the same groupoids and per-element class labels.  Nothing in `src/`
imports them.  Tests import this package as `oracles`: `tests/` has no
`__init__.py`, so pytest puts `tests/` itself on `sys.path`."""
