"""Minimal SVG writer: polylines, markers and marching-squares level lines.

No plotting dependency; output is a best-effort visual aid, metrics.csv and the
.npy snapshots are the load-bearing artifacts.  The writer works in array
passes: numpy maps every coordinate to the canvas at once, and each kind of
element is formatted by one ``%`` template over a flat tuple.
"""

import numpy as np

_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

MAX_PATHS = 100  # particles drawn by render_trajectory_svg
_LEVEL_QUANTILES = np.array([0.05, 0.15, 0.3, 0.5, 0.7, 0.85])  # of the potential on the plot grid


def _quantiles(values, q):
    """``np.quantile(values, q)`` with its default ``linear`` method, for q in [0, 1].

    One sort and numpy's own interpolation: the value at virtual index
    (n - 1) q, with a NaN anywhere giving NaN.  The result has numpy's bits,
    but for the sign of a zero among tied zeros.  ``np.quantile`` and
    ``np.unique`` import ``numpy.ma`` on their first call, which costs a
    fresh process 10-30 ms.
    """
    v = np.sort(values, axis=None)
    if np.isnan(v[-1]):
        return np.full(q.shape, v[-1])
    virtual = (v.size - 1) * q
    below = np.floor(virtual)
    t = virtual - below
    lo = below.astype(np.intp)
    a, b = v[lo], v[np.minimum(lo + 1, v.size - 1)]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def marching_squares(grid, xs, ys, level):
    """Line segments of the iso-contour {grid == level} on a regular grid, as a (k, 2, 2) array.

    Cell (i, j) has the corners (xs[i], ys[j]), (xs[i+1], ys[j]),
    (xs[i+1], ys[j+1]) and (xs[i], ys[j+1]); edge k joins corner k to corner
    k + 1 (mod 4).  An edge is crossed where its end values lie strictly on
    either side of the level.  A cell with two or more crossings yields the
    segment between its first two, and one with four also the segment between
    its last two.  Row s of the result is segment s, [[x0, y0], [x1, y1]], and
    the segments come in row-major cell order.  The corner values
    come from four shifted slices of the grid; only the crossed edges are
    looked up by index.
    """
    grid = np.asarray(grid, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ny = grid.shape[1]
    # one row per cell in row-major order: corners 0..3, then corner 0 again
    c0 = grid[:-1, :-1]
    v = np.stack([c0, grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:], c0], axis=-1).reshape(-1, 5)
    dv = v - level
    cell, edge = np.nonzero(dv[:, :4] * dv[:, 1:] < 0)  # crossed edges, in cell order
    v0, v1 = v[cell, edge], v[cell, edge + 1]
    # corner k sits at (i + di[k], j + dj[k])
    di, dj = np.array([0, 1, 1, 0, 0]), np.array([0, 0, 1, 1, 0])
    ci, cj = np.divmod(cell, ny - 1)
    x0, x1 = xs[ci + di[edge]], xs[ci + di[edge + 1]]
    y0, y1 = ys[cj + dj[edge]], ys[cj + dj[edge + 1]]
    t = (level - v0) / (v1 - v0)  # v1 != v0 on a crossed edge
    px = x0 + t * (x1 - x0)
    py = y0 + t * (y1 - y0)
    # the crossings of a cell are contiguous, in edge order
    first = np.flatnonzero(np.diff(cell, prepend=-1))
    count = np.diff(first, append=cell.size)
    start = np.sort(np.concatenate([first[count >= 2], first[count == 4] + 2]))
    return np.stack([px[start], py[start], px[start + 1], py[start + 1]], axis=-1).reshape(-1, 2, 2)


def _elements(templates, values):
    """The templates, one per line, filled from the flat array ``values`` by one ``%``.

    ``%.2f`` prints a float64 with the same digits as ``f"{v:.2f}"``.
    """
    return "\n".join(templates) % tuple(values.ravel().tolist())


def render_trajectory_svg(path, snapshots, target=None):
    """Particle trajectories over the target's level lines, on a 640 x 640 canvas.

    Initial particles are drawn as blue circles, final ones as red squares,
    with the in-between path as a thin colored line per particle.  Only the
    first ``MAX_PATHS`` particles are drawn, and the first and last snapshots
    set the plot limits, so the snapshots in between need only those rows.
    The level lines come from one ``marching_squares`` call per level.
    """
    width = height = 640
    first, last = snapshots[0], snapshots[-1]
    # the bounds of both snapshots, without a copy of them
    lo = np.minimum(first.min(axis=0), last.min(axis=0))
    hi = np.maximum(first.max(axis=0), last.max(axis=0))
    pad = 0.15 * np.maximum(hi - lo, 1e-6)
    xlim = (lo[0] - pad[0], hi[0] + pad[0])
    ylim = (lo[1] - pad[1], hi[1] + pad[1])

    def to_canvas(pts):
        """Canvas coordinates of an (..., 2) array of points, y pointing down."""
        out = np.empty(pts.shape)
        out[..., 0] = (pts[..., 0] - xlim[0]) / (xlim[1] - xlim[0]) * width
        out[..., 1] = (ylim[1] - pts[..., 1]) / (ylim[1] - ylim[0]) * height
        return out

    parts = []
    if target is not None and target.dim == 2:
        xs = np.linspace(xlim[0], xlim[1], 60)
        ys = np.linspace(ylim[0], ylim[1], 60)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        # grid[i, j] = f(xs[i], ys[j])
        grid = target.potential_all(np.stack([gx.ravel(), gy.ravel()], axis=1)).reshape(gx.shape)
        levels = np.sort(_quantiles(grid, _LEVEL_QUANTILES))
        # the distinct levels in order, as np.unique gives them: a NaN level crosses no edge
        levels = levels[np.concatenate([[True], levels[1:] != levels[:-1]])]
        segs = np.concatenate([marching_squares(grid, xs, ys, level) for level in levels])
        if len(segs):
            line = ('<polyline points="%.2f,%.2f %.2f,%.2f" fill="none" stroke="black" '
                    'stroke-width="0.6" stroke-opacity="0.6"/>')
            parts.append(_elements([line] * len(segs), to_canvas(segs)))

    shown = min(first.shape[0], MAX_PATHS)
    # paths[i, s] = particle i in snapshot s
    paths = to_canvas(np.stack([snap[:shown] for snap in snapshots], axis=1))
    points = " ".join(["%.2f,%.2f"] * len(snapshots))
    parts.append(_elements([f'<polyline points="{points}" fill="none" stroke="{_PALETTE[idx % len(_PALETTE)]}" '
                            'stroke-width="0.8" stroke-opacity="0.5"/>' for idx in range(shown)], paths))
    parts.append(_elements(['<circle cx="%.2f" cy="%.2f" r="3.0" fill="#1f4fd0"/>'] * shown, paths[:, 0]))
    parts.append(_elements(['<rect x="%.2f" y="%.2f" width="5.0" height="5.0" fill="#d62728"/>'] * shown,
                           paths[:, -1] - 2.5))
    body = "\n".join(parts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}" viewBox="0 0 {width} {height}">\n'
                 f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n')
