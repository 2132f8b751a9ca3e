"""Empty: the 2-D puzzle pieces are not modelled.

This module once built the paper's stable leaves, tame boxes and 2-D star
products.  No command and no acceptance criterion used them: every number
henonlab prints comes from the 1-D pieces of ``maps1d`` and the cross-map
chains of ``crossmap``, so the code was deleted.

The module is kept for one reason only: perfbench's ``Tracer.install``
imports ``henonlab.strips`` by name.  Dropping ``"strips"`` from that
import list (ROADMAP item 1) deletes this file.
"""
