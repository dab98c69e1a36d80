"""Helpers shared by the test modules."""

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
