"""Per-node flow features aggregated within one time window."""

from __future__ import annotations

import numpy as np

from botfuse.flow_ingest import WindowSlice

FEATURE_NAMES = ("conn", "fail_conn", "dur", "src_bytes_avg", "dst_bytes_avg")
FEATURE_DIM = len(FEATURE_NAMES)


def extract_node_features(window: WindowSlice) -> np.ndarray:
    """Aggregate one window's flows into the five per-node features.

    Returns an (n, FEATURE_DIM) float64 matrix with columns in
    ``FEATURE_NAMES`` order and one row per node, in the order of
    ``window.node_index[0]``: every node appearing as source or destination
    of any record. A flow succeeds when payload moved in both directions.
    ``conn`` and ``fail_conn`` count the successful and the failed flows
    where the node is either endpoint; ``dur`` averages duration over the
    node's successful flows only; ``src_bytes_avg``/``dst_bytes_avg``
    average the bytes the node sent and received over all of its flows,
    successful or not. A flow contributes to both of its endpoints (for a
    degenerate self-addressed flow, to the same node in both roles, which
    keeps the endpoint-participation accounting exact).

    The sums run over the endpoint slots interleaved as [src0, dst0, src1,
    dst1, ...]: ``np.bincount`` adds its weights in that order, so each
    node's float sums take the same additions, in the same order, as a
    record-by-record loop.
    """
    table = window.table
    if not len(table):
        raise ValueError("cannot extract features from an empty window")

    nodes, local = window.node_index
    slots = local.ravel()
    n = len(nodes)
    success = np.repeat((table.src_bytes > 0) & (table.dst_bytes > 0), 2)
    ok_slots = slots[success]

    n_flows = np.bincount(slots, minlength=n)
    conn = np.bincount(ok_slots, minlength=n)
    dur_sum = np.bincount(ok_slots, weights=np.repeat(table.duration, 2)[success], minlength=n)
    sent = np.column_stack((table.src_bytes, table.dst_bytes)).ravel()
    received = np.column_stack((table.dst_bytes, table.src_bytes)).ravel()
    return np.column_stack((
        conn,
        n_flows - conn,
        np.divide(dur_sum, conn, out=np.zeros(n), where=conn > 0),
        np.bincount(slots, weights=sent, minlength=n) / n_flows,
        np.bincount(slots, weights=received, minlength=n) / n_flows,
    ))
