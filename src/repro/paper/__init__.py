"""The paper half: what exists only to regenerate a figure or table.

Index merging, SPJR joins, the comparison baselines with their B+-tree and
selection index, and the experiment harness (map in :mod:`repro`).  These
import the served package; the served package never imports ``repro.paper``.
"""
