"""Event-driven sparse spike propagation.

T2FSNN's value proposition is temporal sparsity: a TTFS neuron fires *at
most once* per inference, so at any given step only a small fraction of a
population is active.  The clock-driven engine nevertheless used to push a
dense spike tensor through full im2col convolutions at every step, making
simulation cost O(T x full-conv) regardless of how few spikes exist.

This module provides the sparse substrate the engine routes around:

* :class:`SpikePacket` — a flat-index event list (batch row, feature index,
  weight) representing one step's weighted spikes without materialising the
  dense tensor.  The number of events is ``packet.count`` — spike
  bookkeeping comes for free, no per-step ``np.count_nonzero``.
* ``apply_stage_events`` — propagate a packet through a converted stage's
  linear ops: :class:`~repro.nn.layers.Flatten` and non-overlapping
  :class:`~repro.nn.layers.AvgPool2D` are pure index remaps (the packet
  stays sparse); :class:`~repro.nn.layers.Dense` gathers rows of ``W``;
  :class:`~repro.nn.layers.Conv2D` scatter-adds weight patches using a
  cached reverse im2col map.  Work scales with the number of events, not
  the tensor size.
* ``ingest`` — the engine's per-step chooser: measure density and pick the
  sparse or dense representation (see docs/DESIGN.md §7).

All sparse kernels accumulate in the same dtype as the dense path
(float64 by default), so predictions and spike counts match the dense
engine exactly; scores agree to floating-point reassociation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.nn.im2col import conv_output_size
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten

__all__ = [
    "SpikePacket",
    "DEFAULT_DENSITY_THRESHOLD",
    "ingest",
    "merge_packets",
    "spike_count",
    "spike_mask",
    "apply_stage_events",
    "apply_op_events",
]

#: Below this fraction of active neurons the sparse path beats the dense
#: im2col convolution (numpy gather/scatter vs BLAS; see
#: benchmarks/bench_engine_throughput.py for the measurement).
DEFAULT_DENSITY_THRESHOLD = 0.1


@dataclass
class SpikePacket:
    """One step's spikes as a flat event list.

    Attributes
    ----------
    rows:
        Batch row of each event, **nondecreasing** (row-major order, as
        produced by ``np.nonzero``).  The dense kernel's CSR row pointer
        relies on this invariant.
    idx:
        Flat feature index of each event within ``shape`` (C-order).
        Duplicates within a row are legal (they arise from pooling remaps)
        and accumulate additively.
    weights:
        Weight carried by each event (the decoded spike value).
    batch:
        Batch size of the dense tensor this packet represents.
    shape:
        Feature shape (without batch) of the dense tensor.
    unique:
        True when event positions are provably distinct (fire-once
        emissions, nonzero extractions).  Densification then uses a plain
        fancy assignment — ~2.5x faster than the duplicate-accumulating
        ``np.add.at`` and bit-identical for distinct positions.  Only
        constructors that can prove distinctness set it (pooling remaps
        may merge positions and leave it False).
    """

    rows: np.ndarray
    idx: np.ndarray
    weights: np.ndarray
    batch: int
    shape: tuple[int, ...]
    unique: bool = False

    @property
    def count(self) -> int:
        """Number of spike events (free spike bookkeeping)."""
        return int(self.idx.shape[0])

    @property
    def size(self) -> int:
        return self.batch * int(np.prod(self.shape))

    @property
    def density(self) -> float:
        """Fraction of the dense tensor that is nonzero."""
        return self.count / max(self.size, 1)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SpikePacket":
        """Extract the events of a dense ``(batch, *shape)`` spike tensor."""
        flat = dense.reshape(dense.shape[0], -1)
        rows, idx = np.divmod(np.flatnonzero(flat), flat.shape[1])
        return cls(
            rows=rows,
            idx=idx,
            weights=flat[rows, idx],
            batch=dense.shape[0],
            shape=dense.shape[1:],
            unique=True,
        )

    @classmethod
    def from_mask(
        cls, mask: np.ndarray, weight: float, dtype=np.float64
    ) -> "SpikePacket":
        """Events of a boolean fire mask, all carrying the same ``weight``.

        This is the native emission path for TTFS/phase-style dynamics whose
        per-step spikes share one kernel weight — the dense
        ``mask.astype(float) * weight`` tensor is never materialised.
        """
        flat = mask.reshape(mask.shape[0], -1)
        rows, idx = np.divmod(np.flatnonzero(flat), flat.shape[1])
        return cls(
            rows=rows,
            idx=idx,
            weights=np.full(idx.shape[0], weight, dtype=dtype),
            batch=mask.shape[0],
            shape=mask.shape[1:],
            unique=True,
        )

    def to_dense(self, dtype=None) -> np.ndarray:
        """Materialise the dense weighted spike tensor."""
        dtype = self.weights.dtype if dtype is None else dtype
        flat = np.zeros((self.batch, int(np.prod(self.shape))), dtype=dtype)
        if self.unique:
            flat[self.rows, self.idx] = self.weights
        else:
            np.add.at(flat, (self.rows, self.idx), self.weights)
        return flat.reshape((self.batch,) + tuple(self.shape))

    def with_shape(self, shape: tuple[int, ...]) -> "SpikePacket":
        """Reinterpret the feature shape (flat indices are unchanged)."""
        if int(np.prod(shape)) != int(np.prod(self.shape)):
            raise ValueError(f"cannot reshape {self.shape} events to {shape}")
        return SpikePacket(
            self.rows, self.idx, self.weights, self.batch, tuple(shape), self.unique
        )

    def compact_rows(self, keep: np.ndarray) -> "SpikePacket":
        """Drop events of retired batch rows and renumber the survivors.

        ``keep`` is a boolean mask over the current batch dimension; kept
        rows are renumbered to their compacted positions (the engine's
        sample-retirement index map).  Event order is preserved, so ``rows``
        stays nondecreasing.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.batch,):
            raise ValueError(f"keep mask shape {keep.shape} != batch {self.batch}")
        new_index = np.cumsum(keep) - 1
        m = keep[self.rows]
        return SpikePacket(
            rows=new_index[self.rows[m]],
            idx=self.idx[m],
            weights=self.weights[m],
            batch=int(np.count_nonzero(keep)),
            shape=self.shape,
            unique=self.unique,
        )

    def rows_with_events(self) -> np.ndarray:
        """Boolean mask over the batch marking rows that carry any event."""
        present = np.zeros(self.batch, dtype=bool)
        present[self.rows] = True
        return present

    def mask(self) -> np.ndarray:
        """Boolean fired-mask of shape ``(batch, *shape)``."""
        flat = np.zeros((self.batch, int(np.prod(self.shape))), dtype=bool)
        flat[self.rows, self.idx] = True
        return flat.reshape((self.batch,) + tuple(self.shape))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpikePacket(count={self.count}, batch={self.batch}, "
            f"shape={self.shape}, density={self.density:.4f})"
        )


def spike_count(spikes: np.ndarray | SpikePacket | None) -> int:
    """Number of spike events in either representation."""
    if spikes is None:
        return 0
    if isinstance(spikes, SpikePacket):
        return spikes.count
    return int(np.count_nonzero(spikes))


def spike_mask(spikes: np.ndarray | SpikePacket) -> np.ndarray:
    """Boolean fired-mask in either representation (for monitors)."""
    if isinstance(spikes, SpikePacket):
        return spikes.mask()
    return spikes != 0


def merge_packets(packets: list[SpikePacket], out: np.ndarray | None = None) -> np.ndarray:
    """Merge a deferral window's packets into one dense drive tensor.

    Integration is additive, so events accumulate position-wise in packet
    order via one flat scatter-add — directly in the packets' dtype (no
    float64 ``bincount`` detour and round-trip; in float64 the result is
    bit-identical to the old bincount path, measured ~3x faster at TTFS
    merge sizes).  ``out``, when given, is the workspace arena buffer of
    shape ``(batch, *shape)`` to merge into (it is zeroed first); without it
    a fresh tensor is allocated.
    """
    first = packets[0]
    features = int(np.prod(first.shape))
    shape = (first.batch,) + tuple(first.shape)
    if out is None:
        out = np.zeros(shape, dtype=first.weights.dtype)
    else:
        if out.shape != shape:
            raise ValueError(f"merge buffer shape {out.shape} != {shape}")
        if not out.flags.c_contiguous:
            # The flat scatter-add below must hit the buffer, not a copy.
            raise ValueError("merge buffer must be C-contiguous")
        out[...] = 0
    pos = np.concatenate([p.rows * features + p.idx for p in packets])
    weights = np.concatenate([p.weights for p in packets])
    np.add.at(out.reshape(-1), pos, weights)
    return out


def ingest(
    spikes: np.ndarray | SpikePacket | None,
    threshold: float,
) -> tuple[np.ndarray | SpikePacket | None, int]:
    """Normalise a step's spike emission and measure it.

    Returns ``(spikes, count)`` where silent emissions become ``None`` and a
    dense tensor whose density is at or below ``threshold`` is converted to
    a :class:`SpikePacket` (pass ``threshold <= 0`` to never pack).  Packets
    are passed through untouched — the stage-application chooser densifies
    over-threshold packets itself.
    """
    if spikes is None:
        return None, 0
    if isinstance(spikes, SpikePacket):
        if spikes.count == 0:
            return None, 0
        return spikes, spikes.count
    count = int(np.count_nonzero(spikes))
    if count == 0:
        return None, 0
    if threshold > 0.0 and count <= threshold * spikes.size:
        return SpikePacket.from_dense(spikes), count
    return spikes, count


# ---------------------------------------------------------------------------
# Sparse linear-op application
# ---------------------------------------------------------------------------


def _dense_apply_events(op: Dense, packet: SpikePacket) -> np.ndarray:
    """Sparse ``x @ W``: gather the weight rows the events touch."""
    if packet.count:
        indptr = np.zeros(packet.batch + 1, dtype=np.int64)
        np.cumsum(np.bincount(packet.rows, minlength=packet.batch), out=indptr[1:])
        mat = sparse.csr_matrix(
            (packet.weights, packet.idx, indptr),
            shape=(packet.batch, op.in_features),
        )
        out = np.asarray(mat @ op.weight.data)
    else:
        out = np.zeros((packet.batch, op.out_features), dtype=packet.weights.dtype)
    if op.bias is not None:
        out += op.bias.data
    return out


def _conv_event_pairs(
    op: Conv2D, packet: SpikePacket, out_h: int, out_w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kernel row, flat output target, weight) triples of a packet's events.

    An event at input pixel ``(c, y, x)`` contributes its weight times
    ``W[:, c, dy, dx]`` to output position ``(y + pad - dy, x + pad - dx)``
    (divided by the stride) for every in-bounds kernel offset — built with
    one broadcast over the ``KH*KW`` offsets, no ragged indexing.
    """
    c, h, w = packet.shape
    kh, kw, stride, pad = op.kernel_h, op.kernel_w, op.stride, op.pad
    cidx, rem = np.divmod(packet.idx, h * w)
    yy, xx = np.divmod(rem, w)
    dy = np.repeat(np.arange(kh, dtype=np.int64), kw)[:, None]
    dx = np.tile(np.arange(kw, dtype=np.int64), kh)[:, None]
    oy = yy[None, :] + pad - dy
    ox = xx[None, :] + pad - dx
    if stride > 1:
        valid = (oy % stride == 0) & (ox % stride == 0)
        oy //= stride
        ox //= stride
        valid &= (oy >= 0) & (oy < out_h) & (ox >= 0) & (ox < out_w)
    else:
        valid = (oy >= 0) & (oy < out_h) & (ox >= 0) & (ox < out_w)
    n_off = kh * kw
    keep = valid.ravel()
    krow = (cidx[None, :] * n_off + (dy * kw + dx)).ravel()[keep]
    target = (
        packet.rows[None, :] * (out_h * out_w) + oy * out_w + ox
    ).ravel()[keep]
    weights = np.broadcast_to(packet.weights, (n_off, packet.count)).ravel()[keep]
    return krow, target, weights


def _conv2d_apply_events(op: Conv2D, packet: SpikePacket) -> np.ndarray:
    """Sparse convolution: scatter-add one weight patch per event.

    The scatter is a ``(F, C*KH*KW) @ sparse`` product (compiled CSR
    matmul).  Work scales with ``events x KH*KW x F`` instead of the full
    im2col volume.
    """
    c, h, w = packet.shape
    out_h = conv_output_size(h, op.kernel_h, op.stride, op.pad)
    out_w = conv_output_size(w, op.kernel_w, op.stride, op.pad)
    out_len = out_h * out_w
    f = op.out_channels
    w_mat = op.weight.data.reshape(f, -1)
    if packet.count == 0:
        out = np.zeros((packet.batch, f, out_h, out_w), dtype=packet.weights.dtype)
    else:
        krow, target, weights = _conv_event_pairs(op, packet, out_h, out_w)
        cols = sparse.coo_matrix(
            (weights, (krow, target)),
            shape=(w_mat.shape[1], packet.batch * out_len),
        ).tocsr()
        out = np.asarray(w_mat @ cols)  # (F, batch*L)
        out = np.ascontiguousarray(
            out.reshape(f, packet.batch, out_h, out_w).transpose(1, 0, 2, 3)
        )
    if op.bias is not None:
        out += op.bias.data.reshape(1, -1, 1, 1)
    return out


def _avgpool_apply_events(
    op: AvgPool2D, packet: SpikePacket
) -> SpikePacket | np.ndarray:
    """Non-overlapping average pooling is a pure index remap."""
    c, h, w = packet.shape
    s = op.size
    if op.stride != s or h % s or w % s:
        # Overlapping/ragged pools duplicate events across windows; rare in
        # converted nets, so fall back to the dense op.
        return op.infer(packet.to_dense())
    out_h, out_w = h // s, w // s
    cidx, rem = np.divmod(packet.idx, h * w)
    yy, xx = np.divmod(rem, w)
    new_idx = cidx * (out_h * out_w) + (yy // s) * out_w + (xx // s)
    return SpikePacket(
        rows=packet.rows,
        idx=new_idx,
        weights=packet.weights / (s * s),
        batch=packet.batch,
        shape=(c, out_h, out_w),
    )


def apply_op_events(op, packet: SpikePacket) -> SpikePacket | np.ndarray:
    """Apply one linear op to a packet, staying sparse where possible."""
    if isinstance(op, Flatten):
        return packet.with_shape((int(np.prod(packet.shape)),))
    if isinstance(op, AvgPool2D):
        return _avgpool_apply_events(op, packet)
    if isinstance(op, Dense):
        return _dense_apply_events(op, packet)
    if isinstance(op, Conv2D):
        return _conv2d_apply_events(op, packet)
    return op.infer(packet.to_dense())


def apply_stage_events(stage, packet: SpikePacket) -> np.ndarray:
    """Propagate a packet through a converted stage's op chain.

    Index-remap ops keep the packet sparse; the first matrix op (conv or
    dense) produces the dense synaptic drive, and any remaining ops run on
    the dense inference path.
    """
    out: SpikePacket | np.ndarray = packet
    for op in stage.ops:
        if isinstance(out, SpikePacket):
            out = apply_op_events(op, out)
        else:
            out = op.infer(out)
    if isinstance(out, SpikePacket):
        out = out.to_dense()
    return out
