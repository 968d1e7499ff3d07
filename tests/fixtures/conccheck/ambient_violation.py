"""Seeded AQ530 violation (lint fixture)."""


def set_global_tracer(tracer):
    pass


def worker_entry(tracer):
    set_global_tracer(tracer)
