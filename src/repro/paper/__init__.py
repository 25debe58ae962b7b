"""The paper half: what exists only to regenerate a figure or table.

The signature ranking cube over its R-tree and the BBS skyline (with
:mod:`repro.paper.stack`, which registers both on an engine stack), index
merging, SPJR joins, the comparison baselines with their B+-tree and
selection index, and the experiment harness (map in :mod:`repro`).  These
import the served package; the served package never imports ``repro.paper``.
"""
