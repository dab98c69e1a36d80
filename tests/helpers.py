"""Helpers shared by the test modules."""

import dataclasses

import numpy as np

from regait.constraints import ConstraintBlock, Priority


def constant_block(priority: Priority, matrix, values=None,
                   label: str = "") -> ConstraintBlock:
    """Block whose rows do not depend on (t, x), broadcast over the states."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if values is None:
        values = np.zeros(matrix.shape[0])
    values = np.asarray(values, dtype=float)
    if values.shape != (matrix.shape[0],):
        raise ValueError("one value per row required")

    def rows(t, x):
        lead = np.shape(t)
        return (np.broadcast_to(matrix, lead + matrix.shape),
                np.broadcast_to(values, lead + values.shape))

    return ConstraintBlock(priority=priority, rows=rows, label=label)


def assert_fields_equal(a, b) -> None:
    """Every field of dataclass ``a`` equals ``b``'s exactly, through nested
    dataclasses and tuples of them: arrays entry for entry, the rest by ==."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, tuple):
            assert len(x) == len(y), field.name
            for xi, yi in zip(x, y):
                assert_fields_equal(xi, yi)
        elif dataclasses.is_dataclass(x):
            assert_fields_equal(x, y)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name
