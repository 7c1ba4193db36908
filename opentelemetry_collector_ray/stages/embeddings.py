"""Embedding storage transforms — symmetric int8 quantization.

The storage-reduction step of an embedding pipeline: a
``list<float32>`` column (4·d bytes/vector) becomes an opaque
``binary`` payload of d int8 codes plus one float32 scale (≈4×
smaller), with cosine ordering approximately preserved. Payloads ride
``pa.binary()`` deliberately — Ray maps list/fixed_size_list columns
onto its tensor extension, which breaks grouped-block conversions
(NOTES.md invariant); opaque bytes survive every exchange.

Symmetric per-vector scheme: ``scale = max|x| / 127``, ``q =
round(x / scale)`` in [-127, 127]; dequantize is ``q · scale``. A
zero vector gets scale 0 and all-zero codes. Everything is one numpy
pass per batch; no state, so these are plain ``map_batches`` fns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from .similarity import _stack


def quantize_batch(t: pa.Table, vec_col: str = "embedding",
                   code_col: str = "q8", scale_col: str = "q8_scale",
                   keep_vec: bool = False) -> pa.Table:
    """int8-quantize the vector column of one batch."""
    x = _stack(t.column(vec_col))
    n = t.num_rows
    d = x.shape[1] if x.size else 0
    amax = np.abs(x).max(axis=1) if x.size else np.zeros(n)
    scale = amax / 127.0
    safe = np.where(scale > 0, scale, 1.0)
    q = np.clip(np.rint(x / safe[:, None]), -127, 127).astype(np.int8)
    q[scale == 0] = 0
    # one flat buffer + uniform offsets: no per-row tobytes loop
    off = np.arange(0, (n + 1) * d, d, dtype=np.int32) if d else \
        np.zeros(n + 1, np.int32)
    codes = pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(off.tobytes()), pa.py_buffer(q.tobytes())])
    out = t if keep_vec else t.drop_columns([vec_col])
    out = out.append_column(code_col, codes)
    out = out.append_column(scale_col,
                            pa.array(scale.astype(np.float32)))
    return out.append_column("q8_dim", pa.array(np.full(n, d, np.int32)))


def dequantize_batch(t: pa.Table, code_col: str = "q8",
                     scale_col: str = "q8_scale",
                     out_col: str = "embedding") -> pa.Table:
    """Inverse transform: codes × scale → ``list<float>`` column."""
    codes = t.column(code_col).combine_chunks() \
        if isinstance(t.column(code_col), pa.ChunkedArray) \
        else t.column(code_col)
    n = t.num_rows
    dim = t.column("q8_dim").to_numpy(zero_copy_only=False)
    scale = t.column(scale_col).to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    if n == 0:
        return t.append_column(out_col,
                               pa.array([], pa.list_(pa.float32())))
    d = int(dim[0])
    if not (dim == d).all():
        raise ValueError("dequantize: mixed q8_dim in one batch")
    # flat read off the binary buffers (slice-safe), no per-row loop
    offs = np.frombuffer(codes.buffers()[1], np.int32)[
        codes.offset: codes.offset + n + 1]
    if not (np.diff(offs) == d).all():
        raise ValueError("dequantize: payload length != q8_dim")
    data = np.frombuffer(codes.buffers()[2], np.int8)
    q = data[offs[0]: offs[-1]].reshape(n, d).astype(np.float64)
    x = (q * scale[:, None]).astype(np.float32)
    flat = pa.array(x.reshape(-1))
    off = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    return t.append_column(out_col, pa.ListArray.from_arrays(off, flat))


def quantize_embeddings(ds: ray.data.Dataset, vec_col: str = "embedding",
                        keep_vec: bool = False, **kw) -> ray.data.Dataset:
    return ds.map_batches(
        lambda t: quantize_batch(t, vec_col=vec_col, keep_vec=keep_vec,
                                 **kw),
        batch_format="pyarrow")


def dequantize_embeddings(ds: ray.data.Dataset, **kw) -> ray.data.Dataset:
    return ds.map_batches(lambda t: dequantize_batch(t, **kw),
                          batch_format="pyarrow")
