"""Minimal SVG writer: polylines, markers and marching-squares level lines.

No plotting dependency; output is a best-effort visual aid, the CSV files are
the load-bearing artifacts.
"""

import numpy as np

_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

MAX_PATHS = 100  # particles drawn by render_trajectory_svg


class SvgCanvas:
    def __init__(self, width, height, xlim, ylim):
        self.width = width
        self.height = height
        self.xlim = xlim
        self.ylim = ylim
        self.parts = []

    def _map(self, x, y):
        px = (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0]) * self.width
        py = (self.ylim[1] - y) / (self.ylim[1] - self.ylim[0]) * self.height
        return px, py

    def polyline(self, xs, ys, color, width=1.0, opacity=1.0):
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in (self._map(x, y) for x, y in zip(xs, ys)))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-opacity="{opacity}"/>'
        )

    def circle(self, x, y, radius, color):
        px, py = self._map(x, y)
        self.parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius}" fill="{color}"/>')

    def square(self, x, y, size, color):
        px, py = self._map(x, y)
        h = size / 2.0
        self.parts.append(
            f'<rect x="{px - h:.2f}" y="{py - h:.2f}" width="{size}" height="{size}" fill="{color}"/>'
        )

    def write(self, path):
        body = "\n".join(self.parts)
        doc = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)


def marching_squares(grid, xs, ys, level):
    """Line segments of the iso-contour {grid == level} on a regular grid.

    Cell (i, j) has the corners (xs[i], ys[j]), (xs[i+1], ys[j]),
    (xs[i+1], ys[j+1]) and (xs[i], ys[j+1]); edge k joins corner k to corner
    k + 1 (mod 4).  An edge is crossed where its end values lie strictly on
    either side of the level.  A cell with two or more crossings yields the
    segment between its first two, and one with four also the segment between
    its last two.  Segments come in row-major cell order.
    """
    grid = np.asarray(grid, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = grid.shape
    ci, cj = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    # one row per cell in row-major order: corners 0..3, then corner 0 again
    i = ci.reshape(-1, 1) + [0, 1, 1, 0, 0]
    j = cj.reshape(-1, 1) + [0, 0, 1, 1, 0]
    v = grid[i, j]
    crossed = (v[:, :4] - level) * (v[:, 1:] - level) < 0  # (cells, edges)
    i0, i1 = i[:, :4][crossed], i[:, 1:][crossed]
    j0, j1 = j[:, :4][crossed], j[:, 1:][crossed]
    v0, v1 = grid[i0, j0], grid[i1, j1]
    t = (level - v0) / (v1 - v0)  # v1 != v0 on a crossed edge
    px = xs[i0] + t * (xs[i1] - xs[i0])
    py = ys[j0] + t * (ys[j1] - ys[j0])
    # the crossings of a cell are contiguous, in edge order
    count = crossed.sum(axis=1)
    first = np.cumsum(count) - count
    start = np.sort(np.concatenate([first[count >= 2], first[count == 4] + 2]))
    p0 = zip(px[start].tolist(), py[start].tolist())
    p1 = zip(px[start + 1].tolist(), py[start + 1].tolist())
    return list(zip(p0, p1))


def render_trajectory_svg(path, snapshots, target=None, max_paths=MAX_PATHS,
                          width=640, height=640):
    """Particle trajectories over the target's level lines.

    Initial particles are drawn as blue circles, final ones as red squares,
    with the in-between path as a thin colored line per particle.  Only the
    first ``max_paths`` particles are drawn, and the first and last snapshots
    set the plot limits, so the snapshots in between need only those rows.
    """
    first, last = snapshots[0], snapshots[-1]
    allpts = np.vstack([first, last])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    pad = 0.15 * np.maximum(hi - lo, 1e-6)
    xlim = (lo[0] - pad[0], hi[0] + pad[0])
    ylim = (lo[1] - pad[1], hi[1] + pad[1])
    canvas = SvgCanvas(width, height, xlim, ylim)

    if target is not None and target.dim == 2:
        xs = np.linspace(xlim[0], xlim[1], 60)
        ys = np.linspace(ylim[0], ylim[1], 60)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        # grid[i, j] = f(xs[i], ys[j])
        grid = target.potential_all(np.stack([gx.ravel(), gy.ravel()], axis=1)).reshape(gx.shape)
        levels = np.quantile(grid, [0.05, 0.15, 0.3, 0.5, 0.7, 0.85])
        for level in np.unique(levels):
            for (x0, y0), (x1, y1) in marching_squares(grid, xs, ys, level):
                canvas.polyline([x0, x1], [y0, y1], color="black", width=0.6, opacity=0.6)

    n = first.shape[0]
    shown = range(min(n, max_paths))
    for idx in shown:
        xs = [snap[idx, 0] for snap in snapshots]
        ys = [snap[idx, 1] for snap in snapshots]
        canvas.polyline(xs, ys, color=_PALETTE[idx % len(_PALETTE)], width=0.8, opacity=0.5)
    for idx in shown:
        canvas.circle(first[idx, 0], first[idx, 1], 3.0, "#1f4fd0")
    for idx in shown:
        canvas.square(last[idx, 0], last[idx, 1], 5.0, "#d62728")
    canvas.write(path)
