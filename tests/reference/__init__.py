"""The reference model the library is pinned against, outside ``src/``.

* :mod:`reference.pmf` — the paper's equations on PMFs written as sorted
  ``{time: probability}`` dicts: Eq. 1 (robustness), Eqs. 2-5 (completion
  time with no drops, with pending drops and with eviction) and the
  32-impulse cap;
* :mod:`reference.loop` — a per-event loop over a sorted event list that
  drives the library's machines, ``SystemState`` and mappers the way the
  engine does at ``batch_window=0``.

The tests compare the engine with both at ``atol=0``.  Nothing in ``src/``
imports this package.
"""
