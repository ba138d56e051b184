"""Products over the rows of a batch that round exactly like one row at a time.

numpy's product of an (m, k) batch with a matrix may round differently from
the product of one of its rows, because BLAS picks other kernels for
matrices.  Multiplying the rows as a stack of (1, k) matrices keeps each row
its own product, so a batched evaluation gives every row the same floats as
the evaluation at that point alone.  A stack (m, k, R) of one matrix per row
keeps that property, provided each of its matrices is laid out in memory as
the matrix of the one-row product is (a transpose stays a transposed view).
Arrays cached on immutable objects are marked read-only by ``read_only``.
"""

from __future__ import annotations


def times(x, M):
    """x @ M for a point x of shape (k,), or for each row of a batch (m, k).

    M is shared by every row, or, for a batch, a stack (m, k, R) whose row i
    multiplies row i of x.
    """
    if M.ndim == 3:
        return (x[:, None, :] @ M)[:, 0, :]
    if x.ndim == 1 or len(x) == 1:  # one row: plain products round alike
        return x @ M
    out = x[:, None, :] @ M
    return out[:, 0, :] if M.ndim == 2 else out[:, 0]


def read_only(a):
    """The array a, marked read-only."""
    a.flags.writeable = False
    return a


def dot(a, b):
    """a . b for points of shape (k,), or row by row for batches (m, k)."""
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
