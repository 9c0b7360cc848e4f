"""Reference chart data built from full bundle structures.

Used by experiments and tests to certify recovered chart operators against
ground truth; the reconstruction layer itself never touches these inputs.
"""

from __future__ import annotations

import numpy as np

from .bundle import HermitianBundle
from .manifold import Region
from .reconstruction import ChartOperator


def chart_operator_from_bundle(b: HermitianBundle, region: Region, chart_local) -> ChartOperator:
    """Extract the true transports and potential on a chart of a region.

    chart_local indexes vertices of the region; edges and transport
    orientation follow the recovered-chart convention (data carried from
    edge[1] to edge[0]).
    """
    chart = [int(v) for v in chart_local]
    glob = np.asarray([region.vertices[v] for v in chart], dtype=np.int64)
    # the edges inside the chart as chart-index pairs (i, j), i < j, in
    # lexicographic order
    pairs = np.sort(Region(b.manifold, glob).inner_edges()[1], axis=1)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return ChartOperator(
        vertices=tuple(chart),
        edges=[tuple(p) for p in pairs.tolist()],
        transports=b.edge_transports(glob[pairs]),
        potentials=b.potential[glob],
        diagnostics={"source": "reference"},
    )
