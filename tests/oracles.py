"""Independent reference implementations used only by the test suite.

Everything here is written straight from the defining formulas, in plain
Python loops, with mpmath supplying high-precision special functions.
Nothing imports the dnt package, so agreement between these functions
and the package is evidence, not tautology.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# Standard normal CDF and quantile


def oracle_normal_cdf(z: float) -> float:
    """Phi(z) by direct quadrature of the normal density."""
    if z < -40.0:
        return 0.0
    if z > 40.0:
        return 1.0
    density = lambda t: mp.e ** (-t * t / 2) / mp.sqrt(2 * mp.pi)
    if z <= 0:
        val = mp.quad(density, [-40, z])
    else:
        val = mp.mpf(1) - mp.quad(density, [z, 40])
    return float(val)


def oracle_normal_cdf_erf(z: float) -> float:
    """Phi(z) via mpmath's erf, as a cross-check on the quadrature."""
    return float((mp.mpf(1) + mp.erf(mp.mpf(z) / mp.sqrt(2))) / 2)


def oracle_normal_quantile(p: float, tol: float = 1e-13) -> float:
    """Inverse of Phi by bisection, comparing the CDF at full precision.

    The comparison must stay in mpf arithmetic: rounding Phi(mid) to a
    double first creates a plateau of z values sharing one float CDF,
    which caps the achievable accuracy near p = 0 or 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p outside (0, 1)")
    target = mp.mpf(p)
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (mp.mpf(1) + mp.erf(mp.mpf(mid) / mp.sqrt(2))) / 2 < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Family CDFs for the sampler goodness checks


def oracle_family_cdf(kind: str, params: tuple[float, ...], x: float) -> float:
    """CDF of each supported family at x, via mpmath primitives."""
    if kind == "Normal":
        loc, scale = params
        return oracle_normal_cdf_erf((x - loc) / scale)
    if kind == "StudentT":
        (df,) = params
        # F(x) = 1 - I_{df/(df+x^2)}(df/2, 1/2) / 2 for x >= 0
        t = mp.mpf(df) / (df + mp.mpf(x) ** 2)
        half_tail = mp.betainc(df / 2, mp.mpf(1) / 2, 0, t, regularized=True) / 2
        return float(1 - half_tail) if x >= 0 else float(half_tail)
    if kind == "Uniform":
        a, b = params
        return min(1.0, max(0.0, (x - a) / (b - a)))
    if kind == "Beta":
        a, b = params
        if x <= 0:
            return 0.0
        if x >= 1:
            return 1.0
        return float(mp.betainc(a, b, 0, x, regularized=True))
    if kind == "Laplace":
        loc, scale = params
        z = (x - loc) / scale
        return float(mp.e ** z / 2) if z < 0 else float(1 - mp.e ** (-z) / 2)
    if kind == "Gamma":
        shape, rate = params
        if x <= 0:
            return 0.0
        return float(mp.gammainc(shape, 0, rate * x, regularized=True))
    if kind == "ChiSquare":
        (df,) = params
        if x <= 0:
            return 0.0
        return float(mp.gammainc(df / 2, 0, x / 2, regularized=True))
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Shared small helpers for the statistic oracles (plain loops on purpose)


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


def _pop_sd(xs: list[float]) -> float:
    m = _mean(xs)
    return math.sqrt(sum((v - m) ** 2 for v in xs) / len(xs))


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 == 1 else 0.5 * (s[mid - 1] + s[mid])


def _central_moment(xs: list[float], k: int) -> float:
    m = _mean(xs)
    return sum((v - m) ** k for v in xs) / len(xs)


def _fitted_u(xs: list[float]) -> list[float]:
    """u_i = Phi((x_(i) - mean)/sd) with population sd, ascending order."""
    m = _mean(xs)
    s = _pop_sd(xs)
    return [oracle_normal_cdf_erf((v - m) / s) for v in sorted(xs)]


# ---------------------------------------------------------------------------
# The six statistics, straight from their formulas


def oracle_ks(xs: list[float]) -> float:
    u = _fitted_u(xs)
    n = len(u)
    d = 0.0
    for i in range(1, n + 1):
        d = max(d, i / n - u[i - 1], u[i - 1] - (i - 1) / n)
    return d


def oracle_ks_from_u(u: list[float]) -> float:
    n = len(u)
    d = 0.0
    for i in range(1, n + 1):
        d = max(d, i / n - u[i - 1], u[i - 1] - (i - 1) / n)
    return d


def oracle_ad(xs: list[float]) -> float:
    u = _fitted_u(xs)
    return oracle_ad_from_u(u)


def oracle_ad_from_u(u: list[float]) -> float:
    n = len(u)
    total = 0.0
    for i in range(1, n + 1):
        total += (2 * i - 1) * (math.log(u[i - 1]) + math.log(1 - u[n - i]))
    return -n - total / n


def oracle_jb(xs: list[float]) -> float:
    n = len(xs)
    m2 = _central_moment(xs, 2)
    skew = _central_moment(xs, 3) / m2 ** 1.5
    kurt = _central_moment(xs, 4) / m2 ** 2
    return (n / 6.0) * (skew ** 2 + (kurt - 3.0) ** 2 / 4.0)


def oracle_glb(xs: list[float]) -> float:
    u = _fitted_u(xs)
    return oracle_glb_from_u(u)


def oracle_glb_from_u(u: list[float]) -> float:
    n = len(u)
    total = 0.0
    for i in range(1, n + 1):
        total += (2 * i - 1) * math.log(u[i - 1])
        total += (2 * n + 1 - 2 * i) * math.log(1 - u[i - 1])
    return -n - total / n


def oracle_gg(xs: list[float]) -> float:
    n = len(xs)
    med = _median(xs)
    j = math.sqrt(math.pi / 2.0) * sum(abs(v - med) for v in xs) / n
    m3 = _central_moment(xs, 3)
    m4 = _central_moment(xs, 4)
    return (n / 6.0) * (m3 / j ** 3) ** 2 + (n / 64.0) * (m4 / j ** 4 - 3.0) ** 2


def oracle_bs(xs: list[float]) -> float:
    n = len(xs)
    sigma = _pop_sd(xs)
    mean = _mean(xs)
    tau = sum(abs(v - mean) for v in xs) / n
    omega = 13.29 * (math.log(sigma) - math.log(tau))
    return math.sqrt(n + 2.0) * (omega - 3.0) / 3.54


# ---------------------------------------------------------------------------
# Q-Q rasters and ImageGrid features, per point and per pixel

RASTER = 128


def _line_pixels(r0: int, c0: int, r1: int, c1: int) -> list[tuple[int, int]]:
    """Bresenham's integer line from (r0, c0) to (r1, c1), inclusive."""
    dr, dc = abs(r1 - r0), abs(c1 - c0)
    step_r = 1 if r1 >= r0 else -1
    step_c = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    out = [(r, c)]
    while (r, c) != (r1, c1):
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += step_c
        if e2 < dc:
            err += dc
            r += step_r
        out.append((r, c))
    return out


def oracle_rasterize(
    theoretical: list[float], empirical: list[float]
) -> tuple[list[list[float]], tuple[float, float]]:
    """The 128x128 Q-Q image and its shared axis range.

    Background 0.0; the anchor line from the bottom-left to the top-right
    corner at 0.5; then, for each point, every pixel whose center lies
    within 1.5 px of the point's mapped location at 1.0. Both axes span
    [min - 5% spread, max + 5% spread] over all coordinates, and row 0 is
    the top of the image.
    """
    coords = list(theoretical) + list(empirical)
    low, high = min(coords), max(coords)
    spread = high - low
    lo = low - 0.05 * spread
    hi = high + 0.05 * spread
    last = RASTER - 1
    scale = last / (hi - lo)
    pixels = [[0.0] * RASTER for _ in range(RASTER)]
    for r, c in _line_pixels(last, 0, 0, last):
        pixels[r][c] = 0.5
    for t, e in zip(theoretical, empirical):
        col = (t - lo) * scale
        row = last - (e - lo) * scale
        for r in range(max(0, math.floor(row - 1.5)), min(last, math.ceil(row + 1.5)) + 1):
            for c in range(max(0, math.floor(col - 1.5)), min(last, math.ceil(col + 1.5)) + 1):
                if (r - row) * (r - row) + (c - col) * (c - col) <= 1.5 * 1.5:
                    pixels[r][c] = 1.0
    return pixels, (lo, hi)


def oracle_extract_image(pixels: list[list[float]]) -> list[float]:
    """ImageGrid features: three statistics per 16x16 cell, then four globals.

    Per cell, in row-major cell order: mean intensity, mean |forward
    difference| along each row, mean |forward difference| down each
    column, both over the differences inside the cell. Globals: mean,
    population sd, and the mean row and column index of the pixels equal
    to 1.0 (0.0 when there are none).
    """
    cell = 16
    out: list[float] = []
    for top in range(0, RASTER, cell):
        for left in range(0, RASTER, cell):
            total = across = down = 0.0
            for r in range(top, top + cell):
                for c in range(left, left + cell):
                    total += pixels[r][c]
                    if c + 1 < left + cell:
                        across += abs(pixels[r][c + 1] - pixels[r][c])
                    if r + 1 < top + cell:
                        down += abs(pixels[r + 1][c] - pixels[r][c])
            out += [total / (cell * cell), across / (cell * (cell - 1)), down / (cell * (cell - 1))]
    values = [v for row in pixels for v in row]
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) * (v - mean) for v in values) / len(values))
    points = [(r, c) for r in range(RASTER) for c in range(RASTER) if pixels[r][c] == 1.0]
    if points:
        row_mean = sum(r for r, _ in points) / len(points)
        col_mean = sum(c for _, c in points) / len(points)
    else:
        row_mean = col_mean = 0.0
    return out + [mean, sd, row_mean, col_mean]


# ---------------------------------------------------------------------------
# Image metrics, naive sliding-window form


def oracle_gaussian_window(size: int = 11, sigma: float = 1.5) -> list[list[float]]:
    half = size // 2
    w = [
        [
            math.exp(-((r - half) ** 2 + (c - half) ** 2) / (2 * sigma ** 2))
            for c in range(size)
        ]
        for r in range(size)
    ]
    total = sum(sum(row) for row in w)
    return [[v / total for v in row] for row in w]


def oracle_ssim(a: list[list[float]], b: list[list[float]]) -> float:
    """Mean SSIM with an 11x11 Gaussian window, valid placements only."""
    win = oracle_gaussian_window()
    size = 11
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    rows = len(a)
    cols = len(a[0])
    values = []
    for top in range(rows - size + 1):
        for left in range(cols - size + 1):
            mu_a = mu_b = 0.0
            for r in range(size):
                for c in range(size):
                    mu_a += win[r][c] * a[top + r][left + c]
                    mu_b += win[r][c] * b[top + r][left + c]
            var_a = var_b = cov = 0.0
            for r in range(size):
                for c in range(size):
                    da = a[top + r][left + c] - mu_a
                    db = b[top + r][left + c] - mu_b
                    var_a += win[r][c] * da * da
                    var_b += win[r][c] * db * db
                    cov += win[r][c] * da * db
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
            values.append(num / den)
    return sum(values) / len(values)


def oracle_psnr(a: list[list[float]], b: list[list[float]]) -> float:
    rows = len(a)
    cols = len(a[0])
    mse = 0.0
    for r in range(rows):
        for c in range(cols):
            mse += (a[r][c] - b[r][c]) ** 2
    mse /= rows * cols
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


# ---------------------------------------------------------------------------
# Large-margin metric learning: triplet structure and objective


def _sq_euclid(a: list[float], b: list[float]) -> float:
    return sum((u - v) ** 2 for u, v in zip(a, b))


def oracle_triplets(
    x: list[list[float]], labels: list[int], k: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """Pull pairs and push triplets from the neighborhood rule.

    Focals are the points of every class with at least k+1 members, in
    index order. Each focal ranks all other points by Euclidean distance,
    ties toward the lower index. Its targets are the first k same-class
    points of that ranking; its impostors are the different-class points
    among the first 3k. Pairs are (focal, target) in target order, and
    triplets are (focal, target, impostor) for each target in order, then
    each impostor in order.
    """
    n = len(x)
    pairs: list[tuple[int, int]] = []
    triplets: list[tuple[int, int, int]] = []
    for i in range(n):
        if labels.count(labels[i]) < k + 1:
            continue
        others = [j for j in range(n) if j != i]
        ranked = sorted(others, key=lambda j: (_sq_euclid(x[i], x[j]), j))
        targets = [j for j in ranked if labels[j] == labels[i]][:k]
        impostors = [l for l in ranked[: 3 * k] if labels[l] != labels[i]]
        for j in targets:
            pairs.append((i, j))
            for l in impostors:
                triplets.append((i, j, l))
    return pairs, triplets


def oracle_lmnn_objective(
    x: list[list[float]],
    pairs: list[tuple[int, int]],
    triplets: list[tuple[int, int, int]],
    m: list[list[float]],
    push_weight: float,
    margin: float,
) -> tuple[float, list[list[float]]]:
    """LMNN loss at metric M and its gradient in M, as explicit sums.

    With d_ij = x_i - x_j and q_ij = d_ij' M d_ij:
        loss = sum over pairs of q_ij
             + push_weight * sum over triplets of max(0, margin + q_ij - q_il)
    The gradient adds d_ij d_ij' for every pair, and
    push_weight * (d_ij d_ij' - d_il d_il') for every triplet whose hinge
    is positive.
    """
    dim = len(m)
    grad = [[0.0] * dim for _ in range(dim)]

    def diff(a: int, b: int) -> list[float]:
        return [x[a][t] - x[b][t] for t in range(dim)]

    def quad(d: list[float]) -> float:
        return sum(d[r] * m[r][c] * d[c] for r in range(dim) for c in range(dim))

    def add_outer(d: list[float], weight: float) -> None:
        for r in range(dim):
            for c in range(dim):
                grad[r][c] += weight * d[r] * d[c]

    loss = 0.0
    for i, j in pairs:
        d = diff(i, j)
        loss += quad(d)
        add_outer(d, 1.0)
    for i, j, l in triplets:
        d_ij, d_il = diff(i, j), diff(i, l)
        hinge = margin + quad(d_ij) - quad(d_il)
        if hinge > 0.0:
            loss += push_weight * hinge
            add_outer(d_ij, push_weight)
            add_outer(d_il, -push_weight)
    return loss, grad
